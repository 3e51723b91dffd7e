"""Output checks for each benchmarked CLI command.

Every check is a physical identity or a statistical bound, never a golden
hash, so it keeps holding when a faster implementation consumes the random
stream differently.  Each check returns a list of problems; an empty list
means the output is accepted.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Rejection level of each binomial tail test, on the side the count lies on.
TAIL_ALPHA = 1e-9
ABS_TOL = 1e-9
CROSSING_TOL = 1e-8
MAX_PROBLEMS = 5


def binomial_tail(k: int, n: int, p: float) -> float:
    """Probability of a Binomial(n, p) count at least as far from n*p as ``k``,
    on the side of the mean that ``k`` lies on."""
    if not 0 <= k <= n:
        return 0.0
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)

    def pmf(i: int) -> float:
        return math.exp(base - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * log_p + (n - i) * log_q)

    # walking away from the mean the terms only shrink, so stop once they
    # no longer change the sum
    steps = range(k, -1, -1) if k <= n * p else range(k, n + 1)
    total = 0.0
    for i in steps:
        term = pmf(i)
        total += term
        if term <= 1e-17 * total:
            break
    return min(total, 1.0)


def _count_ok(name: str, k: int, n: int, p: float) -> list[str]:
    tail = binomial_tail(k, n, p)
    if tail < TAIL_ALPHA:
        return [f"{name} {k} of {n} is outside the binomial tail bound around p={p!r} "
                f"(tail {tail:.3g})"]
    return []


def qber_x(phi: float) -> float:
    """Sifted-round error probability under the attack at angle ``phi``."""
    return (1.0 - math.cos(phi)) / 2.0


def _echo(result: dict, params: dict, keys) -> list[str]:
    return [f"{key} is {result.get(key)!r}, expected {params[key]!r}"
            for key in keys if result.get(key) != params[key]]


def check_run_protocol(params: dict, out: str) -> list[str]:
    m, rounds = params["m"], params["rounds"]
    width = 2 * m
    with open(out + ".summary.json") as fh:
        summary = json.load(fh)
    problems = _echo(summary, params, ("m", "rounds", "carrier", "phi", "seed"))
    # the Bobs' product bit carries a carrier-dependent sign in all-y rounds
    y_sign = (-1) ** (m + 1) if params["carrier"] == "G" else (-1) ** m
    lines = sifted = errors = 0
    with open(out + ".transcript.jsonl") as fh:
        for i, line in enumerate(fh):
            lines += 1
            if len(problems) >= MAX_PROBLEMS:
                continue
            rec = json.loads(line)
            bases, outcomes = rec["bases"], rec["outcomes"]
            if rec["round"] != i:
                problems.append(f"line {i}: round {rec['round']}")
            if len(bases) != width or set(bases) - {"X", "Y"}:
                problems.append(f"line {i}: bases {bases!r}")
                continue
            if len(outcomes) != width or any(o not in (1, -1) for o in outcomes):
                problems.append(f"line {i}: outcomes {outcomes!r}")
                continue
            is_sifted = len(set(bases)) == 1
            if rec["sifted"] is not is_sifted:
                problems.append(f"line {i}: sifted flag {rec['sifted']} for bases {bases}")
            if is_sifted:
                sifted += 1
                product = math.prod(outcomes[1:]) * (y_sign if bases[0] == "Y" else 1)
                errors += outcomes[0] != product
    if lines != rounds:
        problems.append(f"transcript has {lines} lines, expected {rounds}")
    if problems:
        return problems
    if summary["sift_count"] != sifted:
        problems.append(f"summary sift_count {summary['sift_count']} != {sifted} sifted lines")
    elif sifted and abs(summary["error_rate"] - errors / sifted) > 1e-12:
        problems.append(f"summary error_rate {summary['error_rate']} != {errors}/{sifted}")
    problems += _count_ok("sift count", sifted, rounds, 2.0 ** (1 - width))
    p_err = qber_x(params["phi"])
    if p_err == 0.0 and errors:
        problems.append(f"{errors} key errors without an attack")
    problems += _count_ok("error count", errors, sifted, p_err)
    return problems


def check_bell(params: dict, out: str) -> list[str]:
    with open(out) as fh:
        result = json.load(fh)
    problems = _echo(result, params, ("state", "n", "noise"))
    full = result["full_sum"]
    if abs(full - params["full_sum"]) > ABS_TOL:
        problems.append(f"full_sum {full!r}, expected {params['full_sum']!r}")
    if params["search"]:
        if "search" not in result:
            return problems + ["frame search result missing"]
        best = result["search"]["best_plane_sum"]
        if best < result["plane_sum"] - ABS_TOL:
            problems.append(f"best_plane_sum {best!r} < plane_sum {result['plane_sum']!r}")
        if best > full + ABS_TOL:
            problems.append(f"best_plane_sum {best!r} exceeds full_sum {full!r}")
    elif "search" in result:
        problems.append("unexpected frame search result")
    return problems


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def carrier_amplitudes(state: str, n: int) -> np.ndarray:
    """Amplitudes of the G carrier (n >= 3) or the GHZ state, written out directly."""
    amps = np.zeros(2**n)
    if state == "g":
        weights = np.array([bin(i).count("1") for i in range(2**n)])
        amps[(weights == 1) | (weights == n - 1)] = 1.0
    else:
        amps[[0, -1]] = 1.0
    return amps / np.linalg.norm(amps)


def reference_tensor(amps: np.ndarray) -> np.ndarray:
    """Dense correlation tensor <sigma_a1 x ... x sigma_an>, x/y/z order,
    by one Pauli contraction per qubit of the density matrix."""
    n = int(np.log2(amps.size))
    rho = np.outer(amps, amps.conj()).reshape((2,) * (2 * n))
    # pair each qubit's row and column index: axes (r0, c0, r1, c1, ...)
    order = [ax for q in range(n) for ax in (q, n + q)]
    arr = rho.transpose(order).reshape((4,) * n)
    # tr(rho sigma) = sum_{r,c} rho[r, c] sigma[c, r]
    pauli = _PAULI.transpose(0, 2, 1).reshape(3, 4)
    for _ in range(n):
        arr = np.tensordot(arr, pauli, axes=([0], [1]))
    return arr.real


def check_tensor(params: dict, out: str) -> list[str]:
    with open(out) as fh:
        result = json.load(fh)
    problems = _echo(result, params, ("state", "n"))
    entries = np.asarray(result["entries"], dtype=float)
    ref = reference_tensor(carrier_amplitudes(params["state"], params["n"])).reshape(-1)
    if entries.shape != ref.shape:
        return problems + [f"{entries.size} tensor entries, expected {ref.size}"]
    worst = float(np.abs(entries - ref).max())
    if worst > ABS_TOL:
        problems.append(f"tensor entries differ from the dense reference by {worst:.3g}")
    return problems


def read_csv(path: str) -> tuple[list[dict], dict]:
    """Rows (as dicts of strings) and trailing ``# key: value`` comments."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# schema: "):
        raise ValueError("missing schema line")
    header = lines[1].split(",")
    rows, comments = [], {}
    for line in lines[2:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments[key] = value
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows, comments


def check_sweep_attack(params: dict, out: str) -> list[str]:
    rows, comments = read_csv(out)
    problems = []
    grid = np.linspace(0.0, math.pi / 2, params["points"])
    phis = np.array([float(r["phi"]) for r in rows])
    if phis.shape != grid.shape or np.abs(phis - grid).max() > 1e-12:
        problems.append(f"phi column does not hold the {params['points']}-point grid")
    crossing = float(comments["crossing_phi"])
    if abs(crossing - math.pi / 4) > CROSSING_TOL:
        problems.append(f"crossing_phi {crossing!r} is not pi/4")
    return problems


def check_rdm(params: dict, out: str) -> list[str]:
    with open(out) as fh:
        result = json.load(fh)
    problems = _echo(result, params, ("n",))
    expected = {"forced_product": True, "ghz_counterexample": True, "nullspace_dim": 0}
    for key, value in expected.items():
        got = result.get(key)
        # compare types too: JSON false must not pass for 0
        if type(got) is not type(value) or got != value:
            problems.append(f"{key} is {got!r}, expected {value!r}")
    return problems


def check_thresholds(params: dict, out: str) -> list[str]:
    rows, _ = read_csv(out)
    ns = [int(r["n"]) for r in rows]
    if ns != list(range(params["n_min"], params["n_max"] + 1)):
        return [f"rows cover n = {ns}"]
    flips = [n for n, r in zip(ns, rows) if (r["g_more_robust"] == "true") != (n >= params["flip_n"])]
    if flips:
        return [f"g_more_robust does not first flip at n = {params['flip_n']} (wrong at n = {flips})"]
    return []


CHECKS = {
    "run-protocol": check_run_protocol,
    "bell": check_bell,
    "tensor": check_tensor,
    "sweep-attack": check_sweep_attack,
    "rdm": check_rdm,
    "thresholds": check_thresholds,
}


def check(job, out: str) -> list[str]:
    """Problems found in the output that ``job`` wrote at ``out``."""
    try:
        return CHECKS[job.command](job.params, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
