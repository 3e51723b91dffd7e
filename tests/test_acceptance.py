"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criterion 5's coalition-information bound is asserted as stated even though
the default carrier leaks a small residual correlation to single Bobs; see
the project notes for the analysis.
"""

import json
import math
import time

import numpy as np
import pytest

from qss.attack import (
    AttackScenario,
    attacked_state,
    coalition_collapse,
    exact_mutual_info_ab,
    mutual_info_ab,
    mutual_info_ae,
    rho_ae,
)
from qss.bell import (
    G6_ANY_FRAME_BOUND,
    collapse_visibility,
    correlation_tensor,
    crossover_scan,
    full_sum,
    horodecki_m,
    lr_sufficiency_thresholds,
    plane_sum,
)
from qss.cli import main as cli_main
from qss.protocol import ProtocolConfig, coalition_info, reconstruct_key, run_protocol
from qss.qsim import PauliString, expectation
from qss.rdm import g_uniqueness_check, ghz_counterexample_check
from qss.states import add_white_noise, g_state

PHI_GRID = np.linspace(0.0, math.pi / 2, 21)


def verdict(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def test_criterion_1_correlation_identities():
    start = time.perf_counter()
    ok = True
    for m in (1, 2, 3, 4):
        n = 2 * m
        ok &= abs(expectation(g_state(n), PauliString.uniform("X", n)) - 1.0) < 1e-10
        ok &= (
            abs(expectation(g_state(n), PauliString.uniform("Y", n)) - (-1.0) ** (m + 1))
            < 1e-10
        )
    for n in (3, 5, 7):
        ok &= abs(expectation(g_state(n), PauliString.uniform("Y", n))) < 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert verdict(1, ok, f"x/y correlation identities, {elapsed:.3f} s")


def test_criterion_2_g4_product_state_identity():
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    px, mx = np.ones(1), np.ones(1)
    for _ in range(4):
        px = np.kron(px, plus)
        mx = np.kron(mx, minus)
    expected = (px - mx) / math.sqrt(2.0)
    actual = g_state(4).amplitudes
    phase = np.vdot(expected, actual)
    phase /= abs(phase)
    dist = np.linalg.norm(actual - phase * expected)
    ok = dist < 1e-10
    assert verdict(2, ok, f"4-qubit x-product decomposition, distance {dist:.2e}")


def test_criterion_3_security_crossing():
    lo, hi = 0.0, math.pi / 2
    f = lambda phi: mutual_info_ab(phi) - mutual_info_ae(phi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = abs(crossing - math.pi / 4) < 1e-6

    worst = 0.0
    for m in (2, 3):
        for phi in PHI_GRID:
            gap = abs(
                exact_mutual_info_ab(AttackScenario("G", m, float(phi)))
                - mutual_info_ab(float(phi))
            )
            worst = max(worst, gap)
    ok &= worst < 1e-9
    assert verdict(
        3, ok, f"crossing at {crossing:.8f}, analytic/exact gap {worst:.2e}"
    )


def test_criterion_4_unified_criterion_concurrence():
    ok = True
    for carrier in ("G", "GHZ"):
        for phi in PHI_GRID:
            phi = float(phi)
            if abs(phi - math.pi / 4) <= 1e-3:
                continue
            margin = mutual_info_ab(phi) - mutual_info_ae(phi)
            t = attacked_state(AttackScenario(carrier, 3, phi))
            m_ab = np.sign(horodecki_m(coalition_collapse(t, kept_bob=1)) - 1.0)
            m_ae = np.sign(horodecki_m(rho_ae(t)) - 1.0)
            ok &= m_ab == np.sign(margin)
            ok &= m_ae == -np.sign(margin)
    assert verdict(4, ok, "Horodecki signs track the information margin, both carriers")


def test_criterion_5_protocol_monte_carlo():
    start = time.perf_counter()
    m, rounds = 3, 100_000
    t0 = run_protocol(ProtocolConfig(rounds, AttackScenario("G", m, 0.0), 20240))

    parity_ok = True
    y_sign = (-1) ** (m + 1)
    for rec in t0.records:
        if rec.sifted:
            expected = 1 if rec.basis_label == "X" else y_sign
            parity_ok &= int(np.prod(rec.outcomes)) == expected

    p_sift = 2.0 ** (1 - 2 * m)
    se = math.sqrt(p_sift * (1 - p_sift) / rounds)
    sift_ok = abs(t0.sift_count / rounds - p_sift) < 5 * se

    coalition_vals = {
        size: coalition_info(t0, list(range(1, 1 + size))) for size in (1, 2, 4)
    }
    coalition_ok = all(v <= 0.02 for v in coalition_vals.values())

    tq = run_protocol(
        ProtocolConfig(rounds, AttackScenario("G", m, math.pi / 4), 20241)
    )
    _, _, err = reconstruct_key(tq)
    p_err = 0.146447
    se_q = math.sqrt(p_err * (1 - p_err) / tq.sift_count)
    qber_ok = abs(err - p_err) < 5 * se_q

    elapsed = time.perf_counter() - start
    time_ok = elapsed < 60.0
    ok = parity_ok and sift_ok and coalition_ok and qber_ok and time_ok
    detail = (
        f"parity {parity_ok}, sift {sift_ok}, qber {qber_ok}, {elapsed:.1f} s, "
        f"coalition bits {{"
        + ", ".join(f"{k}: {v:.4f}" for k, v in coalition_vals.items())
        + "} vs bound 0.02"
    )
    assert verdict(5, ok, detail)


def test_criterion_6_tensor_values():
    t6 = correlation_tensor(g_state(6))
    ok = abs(full_sum(t6) - 23.0) < 1e-9
    for p in (0.25, 0.5, 1.0):
        noisy = correlation_tensor(add_white_noise(g_state(6), p).realized)
        ok &= abs(plane_sum(noisy) - p * p * 16.0 / 3.0) < 1e-9
    allowed = {-1.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0}
    import itertools

    pattern_ok = True
    for idx in itertools.product(range(3), repeat=6):
        v = t6.entries[idx]
        pattern_ok &= min(abs(v - a) for a in allowed) < 1e-10
    counts = {a: 0 for a in allowed}
    for idx in itertools.product(range(3), repeat=6):
        v = t6.entries[idx]
        counts[min(allowed, key=lambda a: abs(v - a))] += 1
    # 2 entries at +1, 1 at -1; +1/3 families x^2z^4, y^2z^4 (15 placements
    # each) and x^2y^2z^2 (90); -1/3 families x^4z^2, y^4z^2, x^2y^4, x^4y^2
    # (15 placements each)
    pattern_ok &= counts[1.0] == 2 and counts[-1.0] == 1
    pattern_ok &= counts[1.0 / 3.0] == 120 and counts[-1.0 / 3.0] == 60
    ok &= pattern_ok
    assert verdict(6, ok, "full sum 23, plane sum 16p^2/3, entry pattern exact")


def test_criterion_7_thresholds():
    lr_bound, ghz_bound = lr_sufficiency_thresholds()
    ok = abs(lr_bound - 0.433012) < 1e-6 * 0.433012 + 5e-7
    ok &= abs(G6_ANY_FRAME_BOUND - 0.208514) < 5e-7
    ok &= abs(ghz_bound - 0.176777) < 5e-7

    for n in (4, 5, 6, 8):
        for p in (0.3, 0.6, 0.9):
            p_prime = collapse_visibility(n, p)
            g = g_state(n)
            dim = 2**n
            rho = p * np.outer(g.amplitudes, g.amplitudes.conj()) + (
                1 - p
            ) * np.eye(dim) / dim
            rows = [k * 2 ** (n - 2) for k in range(4)]
            sub = rho[np.ix_(rows, rows)]
            sub = sub / np.trace(sub).real
            bell = g_state(2).amplitudes
            werner = p_prime * np.outer(bell, bell.conj()) + (1 - p_prime) * np.eye(4) / 4
            ok &= np.abs(sub - werner).max() < 1e-9

    reports = {r.n: r.g_more_robust for r in crossover_scan(4, 16)}
    ok &= all(not reports[n] for n in range(4, 13))
    ok &= all(reports[n] for n in range(13, 17))
    assert verdict(7, ok, "named thresholds, collapse visibility, crossover at 13")


def test_criterion_8_rdm_determination():
    start = time.perf_counter()
    ok = all(ghz_counterexample_check(n) for n in range(3, 9))
    for n in (5, 6, 7, 8):
        sol = g_uniqueness_check(n)
        ok &= sol.forced_product and sol.residual < 1e-9
    sol4 = g_uniqueness_check(4)
    ok &= (not sol4.forced_product) and sol4.residual < 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert verdict(8, ok, f"counterexamples and uniqueness ranks, {elapsed:.1f} s")


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["sweep-attack", "--m", "2", "--phi-grid", "0:1.5:7"],
        ["bell", "--state", "g", "--n", "6", "--frame", "search", "--restarts", "2"],
        ["run-protocol", "--m", "2", "--rounds", "3000", "--phi", "0.5", "--seed", "9"],
        ["rdm", "--n", "5"],
        ["thresholds", "--n-min", "4", "--n-max", "13"],
    ]
    ok = True
    for i, cmd in enumerate(commands):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert cli_main(cmd + ["--out", str(out_a)]) == 0
        assert cli_main(cmd + ["--out", str(out_b)]) == 0
        prefix = f"a{i}"
        for path_a in sorted(tmp_path.glob(prefix + "*")):
            suffix = path_a.name[len(prefix):]
            path_b = tmp_path / f"b{i}{suffix}"
            ok &= path_a.read_bytes() == path_b.read_bytes()
    assert verdict(9, ok, "byte-identical reruns for every CLI command")
