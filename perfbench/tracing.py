"""Spans around the calls between ``qss`` modules, installed from outside.

Nothing under ``src/`` is edited.  ``install`` replaces, in each calling
module's namespace, every reference to a function of another ``qss``
module with a wrapper that records a span; module references (``cli``
calls ``bell.plane_sum``) are replaced by a proxy whose functions are
wrapped the same way.  A few calls inside one module are wrapped too
(``INTRA``), as is the validation hook of the state classes.

Spans are kept in memory as ``(parent, name, start, end)`` and written out
by the worker when it ends.  ``layer_metrics`` turns them into the
benchmark's per-layer metrics; a metric whose function no longer exists
under its name is left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "protocol", "attack", "states", "qsim", "bell", "rdm")

#: Calls inside one module that get their own span: (module, function).
INTRA = (("rdm", "marginal_set"),)

#: State classes whose ``__post_init__`` validation is one span, "qsim.validate".
VALIDATED = ("PureState", "DensityMatrix")

#: Per-layer metric -> (span name, statistic).  A span name that is a bare
#: layer aggregates every span of that layer.  Statistics: calls, self
#: (duration minus child spans) and total (duration).
SPAN_METRICS = {
    "qsim.apply_one.calls": ("qsim._apply_one", "calls"),
    "qsim.apply_one.self_s": ("qsim._apply_one", "self"),
    "qsim.expectation.calls": ("qsim.expectation", "calls"),
    "qsim.expectation.self_s": ("qsim.expectation", "self"),
    "qsim.validate.calls": ("qsim.validate", "calls"),
    "qsim.validate.self_s": ("qsim.validate", "self"),
    "qsim.reduce_state.calls": ("qsim.reduce_state", "calls"),
    "qsim.reduce_state.self_s": ("qsim.reduce_state", "self"),
    "states.calls": ("states", "calls"),
    "attack.attacked_state.self_s": ("attack.attacked_state", "self"),
    "protocol.run_protocol.self_s": ("protocol.run_protocol", "self"),
    "protocol.transcript_to_jsonl.self_s": ("protocol.transcript_to_jsonl", "self"),
    "protocol.transcript_summary.self_s": ("protocol.transcript_summary", "self"),
    "bell.correlation_tensor.self_s": ("bell.correlation_tensor", "self"),
    "bell.maximize_plane_sum.self_s": ("bell.maximize_plane_sum", "self"),
    "bell.horodecki_m.calls": ("bell.horodecki_m", "calls"),
    "bell.horodecki_m.self_s": ("bell.horodecki_m", "self"),
    "rdm.g_uniqueness_check.self_s": ("rdm.g_uniqueness_check", "self"),
    "rdm.ghz_counterexample_check.total_s": ("rdm.ghz_counterexample_check", "total"),
    "rdm.marginal_set.calls": ("rdm.marginal_set", "calls"),
    **{f"{layer}.self_s": (layer, "self") for layer in LAYERS},
}


def _rounds(summary):
    return summary["rounds"], summary["sift_count"]


def _tensor_entries(tensor):
    return (tensor.entries.size,)


#: Counters read from a span's return value: span name -> (counter names,
#: function giving their increments).
COUNTERS = {
    "protocol.transcript_summary": (("protocol.rounds", "protocol.sifted_rounds"), _rounds),
    "bell.correlation_tensor": (("bell.tensor_entries",), _tensor_entries),
}


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float] | None] = []
        self.installed: set[str] = set()
        self.counters = {name: 0 for names, _ in COUNTERS.values() for name in names}
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; a returned generator is consumed inside it."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if inspect.isgenerator(out):
                out = iter(list(out))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (parent, name, start, end)
        if name in COUNTERS:
            self._count(name, out)
        return out

    def _count(self, name, out):
        names, extract = COUNTERS[name]
        try:
            increments = extract(out)
        except (AttributeError, KeyError, TypeError):
            self.broken_counters.update(names)
            return
        for key, value in zip(names, increments):
            self.counters[key] += int(value)

    def wrap(self, name, fn):
        self.installed.add(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


class _ModuleProxy:
    """Stands in for a module reference; its functions are traced."""

    def __init__(self, tracer, module, layer):
        self._module = module
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                setattr(self, attr, tracer.wrap(f"{layer}.{attr}", value))

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _layer_of(module_name: str) -> str | None:
    prefix, _, layer = module_name.partition(".")
    return layer if prefix == "qss" and layer in LAYERS else None


def install(tracer: Tracer) -> None:
    """Wrap every cross-module reference in the qss modules' namespaces."""
    modules = {layer: importlib.import_module(f"qss.{layer}") for layer in LAYERS}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if inspect.ismodule(value) and _layer_of(value.__name__) not in (None, layer):
                setattr(module, attr, _ModuleProxy(tracer, value, _layer_of(value.__name__)))
            elif inspect.isfunction(value):
                callee = _layer_of(value.__module__)
                if callee not in (None, layer):
                    setattr(module, attr, tracer.wrap(f"{callee}.{value.__name__}", value))
    for layer, attr in INTRA:
        fn = getattr(modules[layer], attr, None)
        if inspect.isfunction(fn):
            setattr(modules[layer], attr, tracer.wrap(f"{layer}.{attr}", fn))
    for cls_name in VALIDATED:
        cls = getattr(modules["qsim"], cls_name, None)
        hook = getattr(cls, "__post_init__", None)
        if hook is not None:
            cls.__post_init__ = tracer.wrap("qsim.validate", hook)


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics summed over the traces of one pass's jobs.

    Each trace is a worker's ``{"spans", "installed", "counters",
    "broken_counters"}``; a span is ``(parent, name, start, end)`` with
    ``parent`` the index of the enclosing span or -1.
    """
    stats: dict[str, list[float]] = {}
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (_, name, start, end) in enumerate(spans):
            total = end - start
            for key in (name, name.partition(".")[0]):
                calls, self_s, total_s = stats.get(key, (0, 0.0, 0.0))
                stats[key] = [calls + 1, self_s + total - child_time[sid], total_s + total]
    installed = set.intersection(*(set(t["installed"]) for t in traces))
    broken = set().union(*(t["broken_counters"] for t in traces))
    index = {"calls": 0, "self": 1, "total": 2}
    metrics: dict[str, float] = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        if span in LAYERS or span in installed:
            metrics[metric] = stats.get(span, (0, 0.0, 0.0))[index[stat]]
    for name in traces[0]["counters"]:
        if name not in broken:
            metrics[name] = sum(t["counters"][name] for t in traces)
    if "protocol.rounds" in metrics and "protocol.sifted_rounds" in metrics:
        rounds = metrics["protocol.rounds"]
        metrics["protocol.sift_ratio"] = metrics["protocol.sifted_rounds"] / rounds if rounds else 0.0
    metrics["trace.spans"] = sum(len(t["spans"]) for t in traces)
    return metrics


def missing_spans(installed) -> list[str]:
    """Metric span names that ``install`` could not find under their name."""
    wanted = {span for span, _ in SPAN_METRICS.values() if span not in LAYERS}
    return sorted(wanted - set(installed))
