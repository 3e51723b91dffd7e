"""Correlation tensors, two-setting sums, Horodecki criterion, thresholds."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qss import bell, dicke
from qss.attack import AttackScenario, attacked_state, coalition_collapse, rho_ae
from qss.bell import (
    CorrelationTensor,
    G6_ANY_FRAME_BOUND,
    LocalFrame,
    ThresholdReport,
    collapse_visibility,
    correlation_tensor,
    crit_noise_g,
    crit_noise_ghz,
    crossover_scan,
    full_sum,
    horodecki_m,
    lr_sufficiency_thresholds,
    maximize_plane_sum,
    plane_sum,
    plane_sum_upper_bound,
)
from qss.errors import BudgetExceeded, InvalidArgument, InvalidDimension
from qss.qsim import (
    DensityMatrix,
    PauliString,
    PureState,
    expectation,
    reduce_state,
)
from qss.states import add_white_noise, dicke_vector, g_state, ghz_state

import born
from born import (
    _search_block,
    dense_maximize_plane_sum,
    density_expectation,
    dicke_state,
    make_basis_state,
    pauli_transform,
    search_block_from_scratch,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"X": SX, "Y": SY, "Z": SZ}


def kron_expectation(amps, axes):
    op = functools.reduce(np.kron, (MATS[a] for a in axes))
    return np.vdot(amps, op @ amps).real


def expected_g6_tensor_entry(axes):
    """Independent combinatorial oracle for the 6-qubit carrier tensor.

    Nonzero entries: +1 at xxxxxx and yyyyyy, -1 at zzzzzz; +-1/3 for the
    mixed families x^2z^4, -x^4z^2, -y^4z^2, y^2z^4, -x^2y^4, -x^4y^2,
    x^2y^2z^2 (any placement); 0 otherwise.
    """
    counts = {a: axes.count(a) for a in "XYZ"}
    key = (counts["X"], counts["Y"], counts["Z"])
    table = {
        (6, 0, 0): 1.0,
        (0, 6, 0): 1.0,
        (0, 0, 6): -1.0,
        (2, 0, 4): 1.0 / 3.0,
        (4, 0, 2): -1.0 / 3.0,
        (0, 4, 2): -1.0 / 3.0,
        (0, 2, 4): 1.0 / 3.0,
        (2, 4, 0): -1.0 / 3.0,
        (4, 2, 0): -1.0 / 3.0,
        (2, 2, 2): 1.0 / 3.0,
    }
    return table.get(key, 0.0)


@pytest.fixture(scope="module")
def g6_tensor():
    return correlation_tensor(g_state(6))


@pytest.fixture(scope="module")
def ghz6_tensor():
    return correlation_tensor(ghz_state(6))


def nine_expectation_m(rho):
    """M as first written: T from nine density-matrix expectations, the
    oracle for ``horodecki_m``'s Pauli-transform T."""
    t = np.empty((3, 3))
    for i, a in enumerate("XYZ"):
        for j, b in enumerate("XYZ"):
            t[i, j] = density_expectation(rho, PauliString(a + b))
    vals = np.sort(np.linalg.eigvalsh(t.T @ t))
    return float(vals[-1] + vals[-2])


class TestCorrelationMatrix2q:
    """The two-qubit correlation matrix T that ``horodecki_m`` reads."""

    def test_bell_pair(self):
        # (|01> + |10>)/sqrt 2 has T = diag(1, 1, -1), so M = 2
        rho = reduce_state(g_state(2), range(2))
        assert np.abs(correlation_tensor(rho).entries - np.diag([1.0, 1.0, -1.0])).max() < 1e-10
        assert horodecki_m(rho) == pytest.approx(2.0, abs=1e-10)

    def test_product_state(self):
        # |00> has T = diag(0, 0, 1), so M = 1
        rho = reduce_state(make_basis_state(2, "00"), range(2))
        assert np.abs(correlation_tensor(rho).entries - np.diag([0.0, 0.0, 1.0])).max() < 1e-10
        assert horodecki_m(rho) == pytest.approx(1.0, abs=1e-10)

    def test_wrong_size(self):
        with pytest.raises(InvalidDimension):
            horodecki_m(reduce_state(g_state(3), range(3)))

    # the phi grid of the golden sweep-attack hashes
    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_bit_identical_to_nine_expectations(self, carrier, m):
        for phi in np.linspace(0.0, math.pi / 2, 41).tolist():
            t = attacked_state(AttackScenario(carrier, m, phi))
            for rho in (coalition_collapse(t, kept_bob=1), rho_ae(t)):
                assert horodecki_m(rho) == nine_expectation_m(rho), phi


class TestHorodecki:
    def test_bell_pair_maximal(self):
        assert horodecki_m(reduce_state(g_state(2), range(2))) == pytest.approx(2.0, abs=1e-10)

    def test_product_state_no_violation(self):
        assert horodecki_m(reduce_state(make_basis_state(2, "01"), range(2))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_werner_threshold(self):
        below = add_white_noise(g_state(2), 0.70).realized
        above = add_white_noise(g_state(2), 0.72).realized
        assert horodecki_m(below) < 1.0  # 2 * 0.70^2 = 0.98 < 1
        assert horodecki_m(above) > 1.0

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_collapsed_pair_tracks_security_margin(self, carrier):
        for phi, expect_violation in [(0.2, True), (0.7, True), (0.9, False), (1.4, False)]:
            t = attacked_state(AttackScenario(carrier, 3, phi))
            m_val = horodecki_m(coalition_collapse(t, kept_bob=1))
            assert (m_val > 1.0) == expect_violation

    def test_collapsed_pair_marginal_case(self):
        t = attacked_state(AttackScenario("G", 2, math.pi / 4))
        assert horodecki_m(coalition_collapse(t, kept_bob=1)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_eavesdropper_pair_is_dual(self):
        for phi in (0.3, 0.8, 1.2):
            t = attacked_state(AttackScenario("G", 2, phi))
            t_dual = attacked_state(AttackScenario("G", 2, math.pi / 2 - phi))
            m_ae = horodecki_m(rho_ae(t))
            m_ab = horodecki_m(coalition_collapse(t_dual, kept_bob=1))
            assert m_ae == pytest.approx(m_ab, abs=1e-9)

    def test_crossing_bisects_to_quarter_pi(self):
        def margin(phi):
            t = attacked_state(AttackScenario("G", 2, phi))
            return horodecki_m(coalition_collapse(t, kept_bob=1)) - 1.0

        lo, hi = 0.5, 1.2
        assert margin(lo) > 0 > margin(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(math.pi / 4, abs=1e-6)


class TestCorrelationTensorValues:
    def test_g6_matches_combinatorial_oracle(self, g6_tensor):
        for idx in itertools.product(range(3), repeat=6):
            axes = "".join("XYZ"[i] for i in idx)
            assert g6_tensor.entries[idx] == pytest.approx(
                expected_g6_tensor_entry(axes), abs=1e-10
            ), axes

    def test_ghz6_spot_checks_against_kron_oracle(self, ghz6_tensor):
        amps = ghz_state(6).amplitudes
        for axes in ("XXXXXX", "ZZZZZZ", "XXYYXX", "ZZXXZZ", "YYYYYY", "XYZXYZ"):
            idx = tuple("XYZ".index(a) for a in axes)
            assert ghz6_tensor.entries[idx] == pytest.approx(
                kron_expectation(amps, axes), abs=1e-10
            )

    def test_g4_spot_checks_against_kron_oracle(self):
        t = correlation_tensor(g_state(4))
        amps = g_state(4).amplitudes
        for axes in ("XXXX", "YYYY", "ZZXX", "XYXY", "ZZZZ"):
            idx = tuple("XYZ".index(a) for a in axes)
            assert t.entries[idx] == pytest.approx(kron_expectation(amps, axes), abs=1e-10)

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            correlation_tensor(g_state(9))

    def test_entries_frozen(self, g6_tensor):
        with pytest.raises(ValueError):
            g6_tensor.entries[(0,) * 6] = 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.1])
    def test_non_finite_or_out_of_range_entry_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            CorrelationTensor(1, [bad, 0.0, 0.0])


@st.composite
def pure_states(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, v / np.linalg.norm(v))


@st.composite
def mixed_states(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    rank = draw(st.integers(1, 2**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    rho = a @ a.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


class TestPauliTransform:
    """Every entry of the transform against a single expectation value."""

    @staticmethod
    def assert_matches_expectation(state, expect):
        entries = correlation_tensor(state).entries
        assert entries.shape == (3,) * state.n_qubits
        for idx in itertools.product(range(3), repeat=state.n_qubits):
            axes = PauliString("".join("XYZ"[i] for i in idx))
            assert abs(entries[idx] - expect(state, axes)) < 1e-12, axes

    @settings(deadline=None, max_examples=40)
    @given(pure_states())
    def test_complex_pure_states(self, state):
        self.assert_matches_expectation(state, expectation)

    @settings(deadline=None, max_examples=40)
    @given(mixed_states())
    def test_mixed_states(self, state):
        self.assert_matches_expectation(state, density_expectation)

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.7])
    @pytest.mark.parametrize("make", [g_state, ghz_state])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bit_identical_to_tensordot_loop(self, n, make, p):
        state = make(n)
        if p == 1.0:
            rho = np.outer(state.amplitudes, state.amplitudes.conj())
        else:
            state = add_white_noise(state, p).realized
            rho = state.matrix
        expected = np.clip(pauli_transform(rho, n, bell._PAULI_ROWS).real, -1.0, 1.0) + 0.0
        entries = correlation_tensor(state).entries
        assert np.array_equal(entries, expected)
        assert np.array_equal(np.signbit(entries), np.signbit(expected))


class TestSquaredSums:
    def test_g6_full_sum(self, g6_tensor):
        assert full_sum(g6_tensor) == pytest.approx(23.0, abs=1e-9)

    def test_g6_plane_sum(self, g6_tensor):
        assert plane_sum(g6_tensor) == pytest.approx(16.0 / 3.0, abs=1e-9)

    def test_ghz6_plane_and_full_sums(self, ghz6_tensor):
        assert plane_sum(ghz6_tensor) == pytest.approx(32.0, abs=1e-9)
        assert full_sum(ghz6_tensor) == pytest.approx(33.0, abs=1e-9)

    def test_ghz6_plane_sum_brute_force(self, ghz6_tensor):
        amps = ghz_state(6).amplitudes
        total = sum(
            kron_expectation(amps, "".join(axes)) ** 2
            for axes in itertools.product("XY", repeat=6)
        )
        assert plane_sum(ghz6_tensor) == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_noisy_g6_scaling(self, p):
        noisy = add_white_noise(g_state(6), p).realized
        t = correlation_tensor(noisy)
        assert plane_sum(t) == pytest.approx(p * p * 16.0 / 3.0, abs=1e-9)
        assert full_sum(t) == pytest.approx(p * p * 23.0, abs=1e-9)

    def test_maximally_mixed_vanishes(self):
        t = correlation_tensor(DensityMatrix(2, np.eye(4) / 4))
        assert full_sum(t) == pytest.approx(0.0, abs=1e-12)

    def test_plane_sum_with_explicit_default_frame(self, g6_tensor):
        frame = LocalFrame.default(6)
        assert plane_sum(g6_tensor, frame) == pytest.approx(
            plane_sum(g6_tensor), abs=1e-10
        )

    def test_tensor_linearity(self):
        pure = correlation_tensor(g_state(4)).entries
        noisy = correlation_tensor(add_white_noise(g_state(4), 0.6).realized).entries
        assert np.abs(noisy - 0.6 * pure).max() < 1e-10


class TestLocalFrameValidation:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidArgument):
            LocalFrame([[[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])

    def test_non_orthogonal_pair_rejected(self):
        with pytest.raises(InvalidArgument):
            LocalFrame([[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])

    @pytest.mark.parametrize("party", [0, 1])
    def test_nan_direction_rejected(self, party):
        axes = LocalFrame.default(2).axes.copy()
        axes[party, 1, 2] = np.nan
        with pytest.raises(InvalidArgument):
            LocalFrame(axes)


class TestRotations:
    def test_full_sum_invariant_under_random_rotations(self, g6_tensor):
        # local unitaries rotate each party's Bloch axes, which keeps the full sum
        rng = np.random.default_rng(17)
        base = full_sum(g6_tensor)
        amps = g_state(6).amplitudes
        for _ in range(50):
            unitaries = [
                np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                for _ in range(6)
            ]
            rotated = PureState(6, functools.reduce(np.kron, unitaries) @ amps)
            assert full_sum(correlation_tensor(rotated)) == pytest.approx(base, abs=1e-8)

    def test_rotation_matches_rotated_observables(self):
        # spot-check the frame contraction against a direct n.sigma expectation
        state = g_state(2)
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        frame = LocalFrame(np.stack([q[:, :2].T, LocalFrame.default(1).axes[0]]))
        t = correlation_tensor(state)
        contracted = bell._contract_parties(t.entries, frame.axes[None]).reshape(2, 2)
        n_vec = q[:, 0]  # party 0's first direction
        op = np.kron(
            n_vec[0] * SX + n_vec[1] * SY + n_vec[2] * SZ, SY
        )
        direct = np.vdot(state.amplitudes, op @ state.amplitudes).real
        assert contracted[0, 1] == pytest.approx(direct, abs=1e-10)


def sequential_search(t, restarts, seed):
    """Reference frame search: one restart at a time, one party contraction
    at a time, with the same starting frames, sweep rule and winner rule."""

    def contract(arr, axis, mat):
        return np.moveaxis(np.tensordot(mat, arr, axes=([1], [axis])), 0, axis)

    n = t.n
    best_val = -np.inf
    best_axes = LocalFrame.default(n).axes.copy()
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        if r == 0:
            axes = LocalFrame.default(n).axes.copy()
        else:
            axes = np.empty((n, 2, 3))
            for i in range(n):
                q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                axes[i] = q[:, :2].T
        prev = -np.inf
        for _ in range(200):
            val = prev
            for i in range(n):
                arr = t.entries
                for j in range(n):
                    if j != i:
                        arr = contract(arr, j, axes[j])
                mat = np.moveaxis(arr, i, -1).reshape(-1, 3)
                w, v = np.linalg.eigh(mat.T @ mat)
                axes[i, 0] = v[:, -1]
                axes[i, 1] = v[:, -2]
                val = float(w[-1] + w[-2])
            if val - prev < 1e-12:
                prev = val
                break
            prev = val
        if prev > best_val:
            best_val = prev
            best_axes = axes.copy()
    return best_val, LocalFrame(best_axes)


def assert_matches_sequential(t, restarts, seed):
    val, frame = dense_maximize_plane_sum(t, restarts=restarts, seed=seed)
    ref, _ = sequential_search(t, restarts, seed)
    assert abs(val - ref) < 1e-10
    assert abs(plane_sum(t, frame) - val) < 1e-10


@functools.lru_cache(maxsize=None)
def named_tensor(name):
    state = {
        "g6_p05": lambda: add_white_noise(g_state(6), 0.5).realized,
        "g6": lambda: g_state(6),
        "ghz6": lambda: ghz_state(6),
        "g4_p07": lambda: add_white_noise(g_state(4), 0.7).realized,
    }[name]()
    return correlation_tensor(state)


def shared_frame(n, th, ph):
    """The plane with normal angles (th, ph) for every one of n parties."""
    return LocalFrame(np.broadcast_to(dicke.plane_axes(th, ph), (n, 2, 3)))


class TestPlaneSearch:
    """``maximize_plane_sum``'s shared-plane search; the tests against
    ``sequential_search`` check the dense per-party oracle it is held to."""

    def test_ghz6_reaches_default_frame_value(self, ghz6_tensor):
        val, _ = maximize_plane_sum(dicke_vector("GHZ", 6), restarts=4)
        assert val >= 32.0 - 1e-8
        assert val <= full_sum(ghz6_tensor) + 1e-8

    def test_product_state_stays_at_one(self):
        val, _ = maximize_plane_sum(np.array([1.0, 0.0, 0.0, 0.0]), restarts=8)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_g6_bounded_by_full_sum(self, g6_tensor):
        val, frame = maximize_plane_sum(dicke_vector("G", 6), restarts=4)
        assert 16.0 / 3.0 - 1e-9 <= val <= 23.0 + 1e-8
        # returned frame reproduces the returned value
        assert plane_sum(g6_tensor, frame) == pytest.approx(val, abs=1e-8)

    def test_deterministic_given_seed(self):
        v1, _ = maximize_plane_sum(dicke_vector("G", 6), restarts=3, seed=9)
        v2, _ = maximize_plane_sum(dicke_vector("G", 6), restarts=3, seed=9)
        assert v1 == v2

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgument):
            maximize_plane_sum(dicke_vector("G", 6), restarts=3, seed=-1)

    def test_restarts_cap_admitted(self, monkeypatch):
        blocks = []

        def search(model, rng, block):
            blocks.append(block)
            return np.zeros(len(block)), np.zeros(len(block)), np.zeros(len(block))

        monkeypatch.setattr(bell, "refine_block", search)
        maximize_plane_sum(np.array([1.0, 0.0, 0.0]), restarts=bell.MAX_RESTARTS)
        assert blocks[-1].stop == bell.MAX_RESTARTS

    @settings(deadline=None, max_examples=40)
    @given(
        st.one_of(pure_states(max_n=5), mixed_states(max_n=5)),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
    )
    def test_matches_sequential_search(self, state, restarts, seed, block):
        # small blocks make the winner lie in any block, not only the first
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(born, "_RESTART_BLOCK", block)
            assert_matches_sequential(correlation_tensor(state), restarts, seed)

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("name", ["g6_p05", "g6", "ghz6", "g4_p07"])
    def test_carriers_match_sequential_search(self, name, seed):
        assert_matches_sequential(named_tensor(name), 64, seed)

    def test_restarts_past_one_block(self):
        assert_matches_sequential(named_tensor("g4_p07"), born._RESTART_BLOCK + 3, 2)


@st.composite
def dicke_vectors(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return c / np.linalg.norm(c)


normal_angles = st.tuples(st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSharedPlaneSearch:
    @settings(deadline=None, max_examples=60)
    @given(dicke_vectors(), normal_angles)
    def test_value_matches_dense_plane_sum(self, c, angles):
        th, ph = angles
        value = dicke.plane_model(c)(np.array([th]), np.array([ph]))[0][0]
        t = correlation_tensor(dicke_state(c))
        assert value == pytest.approx(plane_sum(t, shared_frame(c.size - 1, th, ph)), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_derivatives_match_finite_differences(self, n):
        rng = np.random.default_rng(n)
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        c /= np.linalg.norm(c)
        model = dicke.plane_model(c)
        th, ph = np.array([0.0, 0.9, 2.5]), np.array([0.4, -1.2, 3.0])
        _, grad, hess = model(th, ph)
        e_th, e_ph = np.stack([dicke.plane_axes(*angles) for angles in zip(th, ph)], 1)
        normal0 = np.cross(e_th, e_ph)

        def value(a, b):
            # the normal tilted by a towards e_theta and by b towards e_phi
            normal = normal0 + a * e_th + b * e_ph
            normal /= np.linalg.norm(normal, axis=1)[:, None]
            return model(np.arccos(normal[:, 2]), np.arctan2(normal[:, 1], normal[:, 0]))[0]

        h = 1e-4
        fd_grad = [(value(h, 0) - value(-h, 0)) / (2 * h), (value(0, h) - value(0, -h)) / (2 * h)]
        fd_hess = [
            (value(h, 0) - 2 * value(0, 0) + value(-h, 0)) / h**2,
            (value(0, h) - 2 * value(0, 0) + value(0, -h)) / h**2,
            (value(h, h) - value(h, -h) - value(-h, h) + value(-h, -h)) / (4 * h**2),
        ]
        scale = 2.0**n
        assert np.abs(grad - np.array(fd_grad).T).max() < 1e-6 * scale
        assert np.abs(hess - np.array(fd_hess).T).max() < 1e-5 * scale

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_matches_dense_oracle(self, carrier, n):
        t = correlation_tensor(g_state(n) if carrier == "G" else ghz_state(n))
        ref, _ = dense_maximize_plane_sum(t, 64, 0)
        val, frame = maximize_plane_sum(dicke_vector(carrier, n))
        assert abs(val - ref) <= 1e-9 * max(1.0, ref)
        assert abs(plane_sum(t, frame) - val) <= 1e-9
        assert np.array_equal(frame.axes, np.broadcast_to(frame.axes[0], frame.axes.shape))

    def test_noise_scales_by_p_squared(self):
        c = dicke_vector("G", 6)
        pure, frame = maximize_plane_sum(c, restarts=16, seed=5)
        noisy, noisy_frame = maximize_plane_sum(c, 0.5, restarts=16, seed=5)
        assert noisy == 0.25 * pure
        assert np.array_equal(noisy_frame.axes, frame.axes)
        ref, _ = dense_maximize_plane_sum(named_tensor("g6_p05"), 64, 0)
        assert abs(noisy - ref) <= 1e-9 * max(1.0, ref)

    @pytest.mark.parametrize("carrier, n", [("G", 6), ("GHZ", 5), ("G", 8)])
    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_restarts_do_not_depend_on_block_size(self, monkeypatch, carrier, n, block):
        c = dicke_vector(carrier, n)
        ref_val, ref_frame = maximize_plane_sum(c, 0.5, restarts=20, seed=11)
        monkeypatch.setattr(bell, "_RESTART_BLOCK", block)
        val, frame = maximize_plane_sum(c, 0.5, restarts=20, seed=11)
        assert val == ref_val
        assert np.array_equal(frame.axes, ref_frame.axes)

    @pytest.mark.parametrize("carrier, n", [("G", 3), ("G", 6), ("G", 8), ("GHZ", 5)])
    def test_every_restart_ends_at_a_local_maximum(self, carrier, n):
        # not only the winner: no restart stops on a slope or at a saddle
        model = dicke.plane_model(dicke_vector(carrier, n))
        _, th, ph = dicke.refine_block(model, np.random.default_rng(n), range(64))
        _, grad, hess = model(th, ph)
        h11, h22, h12 = hess.T
        assert np.abs(grad).max() <= 1e-5 * 2.0**n
        assert ((h11 < 0) & (h11 * h22 > h12**2)).all()

    def test_restart_zero_is_the_default_frame(self):
        # the xy plane is GHZ's best, so restart 0 stays where it starts
        val, frame = maximize_plane_sum(dicke_vector("GHZ", 6), restarts=1)
        assert np.array_equal(frame.axes, LocalFrame.default(6).axes)
        assert val == pytest.approx(32.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_never_below_the_default_frame(self, n):
        t = correlation_tensor(g_state(n))
        val, _ = maximize_plane_sum(dicke_vector("G", n), restarts=1)
        assert val >= plane_sum(t) - 1e-12

    @pytest.mark.parametrize(
        "dicke, visibility, error",
        [
            (np.array([1.0, 1.0]), 1.0, InvalidArgument),
            (np.array([np.nan, 0.0]), 1.0, InvalidArgument),
            (np.array([1.0]), 1.0, InvalidDimension),
            (np.eye(2), 1.0, InvalidDimension),
            (np.array([1.0, 0.0]), 1.5, InvalidArgument),
            (np.array([1.0, 0.0]), -0.1, InvalidArgument),
        ],
    )
    def test_bad_input_rejected(self, dicke, visibility, error):
        with pytest.raises(error):
            maximize_plane_sum(dicke, visibility)


def top_eigenvalue_only(t):
    """The upper bound with its second eigenvalue dropped: a mutant the
    frame check below must reject."""
    unfold = np.stack([np.moveaxis(t.entries, i, 0).reshape(3, -1) for i in range(t.n)])
    return float(np.linalg.eigvalsh(unfold @ unfold.transpose(0, 2, 1))[:, -1].min())


def assert_bounds_frames(bound, t, rng, frames=20):
    value = bound(t)
    for axes in [LocalFrame.default(t.n).axes] + [
        born._random_frame(t.n, rng) for _ in range(frames)
    ]:
        assert plane_sum(t, LocalFrame(axes)) <= value + 1e-9


class TestUpperBound:
    @pytest.mark.parametrize("p", [1.0, 0.5])
    @pytest.mark.parametrize(
        "make, n, expected",
        [(g_state, 4, 8.0), (g_state, 6, 46.0 / 3.0), (g_state, 8, 58.875)]
        + [(ghz_state, n, 2.0 ** (n - 1)) for n in range(3, 9)],
    )
    def test_carrier_values(self, make, n, expected, p):
        state = make(n)
        t = correlation_tensor(state if p == 1.0 else add_white_noise(state, p).realized)
        assert plane_sum_upper_bound(t) == pytest.approx(p * p * expected, abs=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(pure_states(max_n=4), mixed_states(max_n=4)), st.integers(0, 2**32 - 1))
    def test_bounds_every_frame(self, state, seed):
        assert_bounds_frames(plane_sum_upper_bound, correlation_tensor(state),
                             np.random.default_rng(seed))

    def test_top_eigenvalue_mutant_rejected(self):
        with pytest.raises(AssertionError):
            assert_bounds_frames(top_eigenvalue_only, correlation_tensor(ghz_state(4)),
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_brackets_the_search(self, carrier, n):
        t = correlation_tensor(g_state(n) if carrier == "G" else ghz_state(n))
        val, _ = maximize_plane_sum(dicke_vector(carrier, n), restarts=8)
        assert plane_sum(t) - 1e-12 <= val <= plane_sum_upper_bound(t) + 1e-9


@functools.lru_cache(maxsize=None)
def noisy_tensor(make, n, p):
    state = make(n)
    return correlation_tensor(state if p == 1.0 else add_white_noise(state, p).realized)


class TestCarriedContraction:
    """The oracle search with the left contraction carried from party to
    party gives bit for bit what contracting every other party afresh gave."""

    @pytest.mark.parametrize("restarts", [1, 64, 130])
    @pytest.mark.parametrize(
        "make, n, p",
        [(g_state, 4, 1.0), (g_state, 5, 1.0), (g_state, 6, 0.5), (g_state, 8, 0.9),
         (ghz_state, 7, 0.5)],
    )
    def test_bit_identical_to_contraction_from_scratch(self, make, n, p, restarts):
        t = noisy_tensor(make, n, p)
        # every block of a search with this many restarts, as the oracle cuts them
        for start in range(0, restarts, born._RESTART_BLOCK):
            block = range(start, min(start + born._RESTART_BLOCK, restarts))
            vals, axes = _search_block(t, 3, block)
            ref_vals, ref_axes = search_block_from_scratch(t, 3, block)
            assert np.array_equal(vals, ref_vals)
            assert np.array_equal(axes, ref_axes)


def collapsed_pair_oracle(n, p):
    """Exact projection: noisy n-qubit carrier, last n-2 qubits on |0>."""
    g = g_state(n)
    dim = 2**n
    rho = p * np.outer(g.amplitudes, g.amplitudes.conj()) + (1 - p) * np.eye(dim) / dim
    rows = [k * 2 ** (n - 2) for k in range(4)]
    sub = rho[np.ix_(rows, rows)]
    return sub / np.trace(sub).real


class TestCollapseVisibility:
    def test_pure_state_keeps_full_visibility(self):
        assert collapse_visibility(6, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        assert collapse_visibility(6, 0.5) == pytest.approx(16.0 / 22.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    @pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
    def test_matches_exact_projection(self, n, p):
        p_prime = collapse_visibility(n, p)
        bell = g_state(2).amplitudes
        werner = p_prime * np.outer(bell, bell.conj()) + (1 - p_prime) * np.eye(4) / 4
        assert np.abs(collapsed_pair_oracle(n, p) - werner).max() < 1e-9

    def test_zero_visibility_rejected(self):
        with pytest.raises(InvalidArgument):
            collapse_visibility(6, 0.0)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidArgument):
            collapse_visibility(3, 0.5)


class TestThresholds:
    def test_six_significant_figures(self):
        lr_bound, ghz_bound = lr_sufficiency_thresholds()
        assert lr_bound == pytest.approx(0.433013, abs=5e-7)
        assert ghz_bound == pytest.approx(0.176777, abs=5e-7)
        assert G6_ANY_FRAME_BOUND == pytest.approx(0.208514, abs=5e-7)

    def test_crit_noise_g_values(self):
        # n / (n + (sqrt 2 - 1) 2^(n-2)) evaluated directly
        assert crit_noise_g(6) == pytest.approx(
            6.0 / (6.0 + (math.sqrt(2.0) - 1.0) * 16.0), abs=1e-12
        )

    def test_crit_noise_ghz_is_werner_bound_at_n2_scaling(self):
        assert crit_noise_ghz(6) == pytest.approx(1.0 / math.sqrt(32.0), abs=1e-12)

    def test_collapsed_werner_crosses_at_crit_noise(self):
        n = 6
        p_crit = crit_noise_g(n)
        assert collapse_visibility(n, p_crit) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-10
        )

    def test_crossover_between_12_and_13(self):
        reports = {r.n: r for r in crossover_scan(4, 16)}
        assert not reports[12].g_more_robust
        assert reports[13].g_more_robust
        assert all(not reports[n].g_more_robust for n in range(4, 13))
        assert all(reports[n].g_more_robust for n in range(13, 17))

    def test_report_fields(self):
        (r,) = crossover_scan(6, 6)
        assert r == ThresholdReport(6, crit_noise_g(6), crit_noise_ghz(6), False)

    def test_bad_range(self):
        with pytest.raises(InvalidArgument):
            crossover_scan(3, 5)
