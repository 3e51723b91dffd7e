"""One benchmark job: run one ``qss.cli.main(argv)`` call in this process.

``run.py`` starts a fresh interpreter on this file for every job, as a
user starts one ``qss`` process per command:

    python3 perfbench/worker.py SPEC.json

SPEC holds ``src`` (the directory ``qss`` must be imported from), ``argv``,
``trace`` and ``result`` (where this process writes its JSON result).  With
``trace`` the spans of ``tracing.py`` are installed before the job runs and
written to the result when it ends.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback


def _blas_version(numpy) -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    import qss.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != spec["src"]:
        print(f"error: qss imported from {cli.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(spec["argv"])
        else:
            code = tracer.call("cli.main", cli.main, spec["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is reported as a failed job
        traceback.print_exc()
        code = -1
    wall_s = time.perf_counter() - start

    result = {
        "code": code,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "openblas": _blas_version(numpy),
        },
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "installed": sorted(tracer.installed),
            "counters": tracer.counters,
            "broken_counters": sorted(tracer.broken_counters),
        }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
