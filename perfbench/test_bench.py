"""Span accounting, the traced worker, and the harness's refusal to run
without the program.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the repo root.
Workers run in subprocesses: installing the spans rewrites the ``qss``
module namespaces, which must not leak into other tests.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_self_time_subtracts_children():
    spans = [
        (-1, "cli.main", 0.0, 10.0),
        (0, "protocol.run_protocol", 1.0, 7.0),
        (1, "qsim._apply_one", 2.0, 3.0),
        (1, "qsim._apply_one", 4.0, 6.0),
        (0, "protocol.transcript_to_jsonl", 8.0, 9.0),
    ]
    installed = ["qsim._apply_one", "protocol.run_protocol", "protocol.transcript_to_jsonl"]
    trace = {"spans": spans, "installed": installed, "counters": {}, "broken_counters": []}
    m = tracing.layer_metrics([trace])
    assert m["qsim.apply_one.calls"] == 2
    assert m["qsim.apply_one.self_s"] == pytest.approx(3.0)
    assert m["protocol.run_protocol.self_s"] == pytest.approx(3.0)
    assert m["protocol.self_s"] == pytest.approx(4.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(10.0)
    # a pass's jobs add up
    twice = tracing.layer_metrics([trace, trace])
    assert twice["qsim.apply_one.calls"] == 4
    assert twice["cli.self_s"] == pytest.approx(6.0)


def test_renamed_function_is_a_missing_metric():
    trace = {"spans": [(-1, "cli.main", 0.0, 1.0)], "installed": ["qsim.validate"],
             "counters": {"bell.tensor_entries": 3}, "broken_counters": ["bell.tensor_entries"]}
    m = tracing.layer_metrics([trace])
    assert "qsim.expectation.calls" not in m and "qsim.expectation.self_s" not in m
    assert m["qsim.validate.calls"] == 0
    assert "bell.tensor_entries" not in m
    assert "qsim.expectation" in tracing.missing_spans({"qsim.validate"})


def test_generator_is_consumed_inside_its_span():
    tracer = tracing.Tracer()

    def lines():
        yield "a"
        yield "b"

    out = tracer.call("protocol.transcript_to_jsonl", lines)
    assert tracer.spans[0] is not None  # closed before the caller iterates
    assert list(out) == ["a", "b"]


def test_counter_that_cannot_be_read_is_dropped():
    tracer = tracing.Tracer()
    tracer.call("protocol.transcript_summary", lambda: {"rounds": 5})
    assert "protocol.rounds" in tracer.broken_counters
    tracer.call("bell.correlation_tensor", lambda: None)
    assert "bell.tensor_entries" in tracer.broken_counters


def _run_jobs(tmp_path, name, jobs, trace):
    """Each job in its own worker process, as run.py runs them."""
    out_dir = tmp_path / name
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    results = []
    for i, job in enumerate(jobs):
        spec_path = tmp_path / f"{name}.{i}.spec.json"
        result_path = tmp_path / f"{name}.{i}.json"
        spec_path.write_text(json.dumps({"src": SRC, "argv": job.full_argv(str(out_dir), i),
                                         "trace": trace, "result": str(result_path)}))
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(spec_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(result_path.read_text()))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    return results, digests


def test_traced_worker_matches_untraced(tmp_path):
    jobs = [
        workloads.run_protocol_job(2, 3000, "G", 0.3, 5),
        workloads.bell_job("g", 4, 0.5, 0.0, search_seed=1, restarts=2),
        workloads.Job("sweep-attack", ("--m", "2", "--phi-grid", "0:1.5:5"), {}),
        workloads.Job("rdm", ("--n", "5"), {}),
    ]
    plain, plain_files = _run_jobs(tmp_path, "plain", jobs, trace=False)
    traced, traced_files = _run_jobs(tmp_path, "traced", jobs, trace=True)
    assert [r["code"] for r in plain] == [0] * len(jobs)
    assert [r["code"] for r in traced] == [0] * len(jobs)
    assert traced_files == plain_files

    traces = [r["trace"] for r in traced]
    for trace in traces:
        assert tracing.missing_spans(trace["installed"]) == []
        roots = [s for s in trace["spans"] if s[0] == -1]
        assert [s[1] for s in roots] == ["cli.main"]
    m = tracing.layer_metrics(traces)
    wall = sum(r["wall_s"] for r in traced)
    attributed = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0 <= wall - attributed <= 0.05 * wall
    assert m["protocol.rounds"] == 3000
    assert 0 < m["protocol.sifted_rounds"] < 3000
    assert m["protocol.sift_ratio"] == m["protocol.sifted_rounds"] / 3000
    assert m["qsim.apply_one.calls"] == 4 * 2**4  # 2^N basis combos x N parties
    assert m["bell.tensor_entries"] == 3**4
    assert m["bell.horodecki_m.calls"] == 2 * 5
    assert m["rdm.marginal_set.calls"] == 2
    assert m["qsim.validate.calls"] > 0 and m["states.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
