"""Closed-loop benchmark of the ``qss`` command-line jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload protocol-long --seed 1 --seconds 40 --trace 0

One client runs one job at a time.  A pass runs the workload's whole job
list, each job through ``qss.cli.main`` in a fresh worker process
(``worker.py``), as a user runs one ``qss`` process per command.  Passes
repeat while the next one is expected to end within ``--seconds``, and
every timing is the median over passes.  Before each pass, ``setup_s`` times a few fresh
interpreters importing ``qss.cli``.  After them, the first pass's outputs
are checked (``checks.py``) and every later pass must write byte-identical
files.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
carry the spans of ``tracing.py`` and give the per-layer metrics, and the
difference between the two kinds is the tracing overhead.

Stdout holds a readable report of every metric, then, as its last line,
one JSON object: ``correct``, ``attempted`` and ``failed`` count jobs, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``) named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: OpenBLAS/OpenMP threads of every worker.  One thread, which no host has
#: fewer cores than, keeps runs steady on a small shared machine.
BLAS_THREADS = 1
#: Fresh-interpreter imports timed before each pass, so that the setup_s
#: samples spread over the whole run.
SETUP_SAMPLES_PER_PASS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: No pass starts after this many seconds, so checks and clean-up still end
#: well inside the 180 s a run may take.
DEADLINE_S = 140.0
OUTPUT_DIR = ".perfbench_tmp"
LAYER_UNIT_SUFFIX = (("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio"))


def worker_env(src: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QSS_THREADS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = src
    return env


def measure_setup(env: dict[str, str], samples: int) -> list[float]:
    """Wall times of fresh interpreters importing qss.cli."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        # with pipes, run() wakes when the child exits; without them a wait
        # with a timeout polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import qss.cli"], env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run_job(env, src, argv, spec_base, trace, timeout) -> dict | None:
    """One job in a fresh worker process; None if the worker itself failed."""
    spec = {"src": src, "argv": argv, "trace": trace, "result": spec_base + ".result.json"}
    with open(spec_base + ".spec.json", "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               spec_base + ".spec.json"],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        return None
    with open(spec["result"]) as fh:
        return json.load(fh)


def job_digest(out_dir: str, index: int, job) -> dict[str, str]:
    """SHA-256 of every file job ``index`` wrote."""
    prefix = os.path.basename(job.out_path(out_dir, index))
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith(prefix):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def dir_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir))


def pass_wall(p, command=None) -> float:
    return sum(r["wall_s"] for r in p["results"] if command in (None, r["command"]))


def end_to_end(passes, setup, jobs) -> dict[str, tuple[list[float], str]]:
    """Every end-to-end figure as name -> (one value per sample, unit)."""
    out = {
        "setup_s": (setup, "s"),
        "wall_s": ([pass_wall(p) for p in passes], "s"),
        "peak_rss_mb": ([max(r["peak_rss_mb"] for r in p["results"]) for p in passes], "MB"),
    }
    for command in sorted({job.command for job in jobs}):
        out[f"cmd_{command.replace('-', '_')}_s"] = ([pass_wall(p, command) for p in passes], "s")
    rounds = sum(job.params["rounds"] for job in jobs if job.command == "run-protocol")
    if rounds:
        out["rounds_per_s"] = ([rounds / pass_wall(p, "run-protocol") for p in passes], "1/s")
    return out


def per_layer(traced, untraced) -> dict[str, tuple[list[float], str]]:
    """Every per-layer figure as name -> (one value per traced pass, unit)."""
    samples: dict[str, list[float]] = {}
    for p in traced:
        metrics = tracing.layer_metrics([r["trace"] for r in p["results"]])
        wall = pass_wall(p)
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = wall - sum(metrics[f"{layer}.self_s"]
                                                     for layer in tracing.LAYERS)
        metrics["cli.output_bytes"] = p["output_bytes"]
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    out = {}
    for name, values in samples.items():
        if len(values) == len(traced):
            unit = next((u for suffix, u in LAYER_UNIT_SUFFIX if name.endswith(suffix)), "count")
            out[name] = (values, unit)
    untraced_wall = statistics.median(pass_wall(p) for p in untraced)
    out["trace.overhead_s"] = ([wall - untraced_wall for wall in out["trace.wall_s"][0]], "s")
    return out


def report(title: str, figures: dict) -> None:
    print(f"# {title}: median, min, max over n samples")
    for name, (values, unit) in figures.items():
        print(f"{name:38s} {statistics.median(values):>12.6g} {min(values):>12.6g} "
              f"{max(values):>12.6g} {unit:6s} n={len(values)}")


def bench(args, root: str, scratch: str) -> int:
    began = time.perf_counter()
    src = os.path.join(root, "src")
    env = worker_env(src)
    jobs = workloads.build(args.workload, args.seed)
    measure_setup(env, 1)  # compiles the bytecode, which users pay once

    setup, passes = [], []
    first_dir = reference = None
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        out_dir = os.path.join(scratch, f"pass{len(passes)}")
        setup += measure_setup(env, SETUP_SAMPLES_PER_PASS)
        os.makedirs(out_dir)
        results = []
        for i, job in enumerate(jobs):
            timeout = max(10.0, DEADLINE_S + 30.0 - (time.perf_counter() - began))
            result = run_job(env, src, job.full_argv(out_dir, i), f"{out_dir}.{i}",
                             traced, timeout)
            if result is not None:
                result["command"] = job.command
            results.append(result)
        digests = [job_digest(out_dir, i, job) for i, job in enumerate(jobs)]
        if reference is None:
            first_dir, reference = out_dir, digests
        ok = [r is not None and r["code"] == 0 and d == ref
              for r, d, ref in zip(results, digests, reference)]
        passes.append({"traced": traced, "results": results, "ok": ok,
                       "output_bytes": dir_bytes(out_dir)})
        if out_dir != first_dir:
            shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - loop_start
        n = len(passes)
        enough = n >= MIN_PASSES and (not args.trace or n >= 2 * MIN_TRACED_PASSES)
        if enough and elapsed + elapsed / n > args.seconds:
            break
        if time.perf_counter() - began + elapsed / n > DEADLINE_S:
            break

    # output checks, outside the timed passes; a job whose first output fails
    # them fails in every pass, since later passes must match it byte for byte
    problems = [checks.check(job, job.out_path(first_dir, i)) if passes[0]["ok"][i] else []
                for i, job in enumerate(jobs)]
    for job, found in zip(jobs, problems):
        for problem in found:
            print(f"check failed: {job.command} {' '.join(job.argv)}: {problem}", file=sys.stderr)
    attempted = len(passes) * len(jobs)
    failed = sum(not ok or bool(found) for p in passes for ok, found in zip(p["ok"], problems))

    good = [p for p in passes if None not in p["results"]]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no worker pass completed", file=sys.stderr)
        return 1
    env_info = dict(untraced[0]["results"][0]["env"], blas_threads=BLAS_THREADS,
                    nproc=len(os.sched_getaffinity(0)), qss_threads="unset",
                    workload=args.workload, seed=args.seed)
    print("# env " + json.dumps(env_info, sort_keys=True))
    print(f"# passes {len(passes)} (traced {len(traced)}), jobs attempted {attempted}, "
          f"failed {failed}, ops_failed_frac {failed / attempted:.6g}")
    e2e = end_to_end(untraced, setup, jobs)
    report("end-to-end (untraced passes)", e2e)
    if args.trace:
        layers = per_layer(traced, untraced)
        for span in tracing.missing_spans(traced[0]["results"][0]["trace"]["installed"]):
            print(f"warning: no function for span {span}; its metrics are left out",
                  file=sys.stderr)
        report("per-layer (traced passes)", layers)
        chosen = layers
    else:
        chosen = {name: e2e[name] for name in ("wall_s", "setup_s", "peak_rss_mb")}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in chosen.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qss", "cli.py")):
        print("error: run from the root of a qss checkout; src/qss/cli.py is missing",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUTPUT_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(root, OUTPUT_DIR))
    try:
        return bench(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, OUTPUT_DIR))
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
