"""Marginal sets and the Gram-matrix uniqueness check."""

import tracemalloc

import numpy as np
import pytest

from qss import rdm
from qss.errors import BudgetExceeded, InvalidArgument
from qss.qsim import PureState, reduce_state
from qss.rdm import GramSolution, g_uniqueness_check, ghz_counterexample_check, marginal_set
from qss.states import carrier_state, g_state

from born import dense_constraint_system, dense_marginal_set, make_basis_state, v_states

#: rdm's largest qubit count: its basis indices are carried as uint64.
MAX_RDM_QUBITS = 64

#: GHZ and the |0..0>/|1..1> mixture as coefficients on span{|0..0>, |1..1>}.
GHZ_COEFFS = np.full((2, 2), 0.5)
MIXTURE_COEFFS = np.diag([0.5, 0.5])


def on_span(coeffs, k):
    """The 2^k x 2^k matrix with 2x2 coefficients on span{|0..0>, |1..1>}."""
    m = np.zeros((2**k, 2**k), dtype=complex)
    m[np.ix_([0, -1], [0, -1])] = coeffs
    return m


def marginals_match(a, b):
    """Two marginal sets agree entry by entry within the check's tolerance."""
    return len(a) == len(b) and all(
        np.abs(x - y).max() <= rdm._MARGINAL_TOL for x, y in zip(a, b)
    )


def mixture_marginals(*states):
    """Dense marginal set of the equal-weight mixture of pure states."""
    return [sum(ms) / len(states) for ms in zip(*map(dense_marginal_set, states))]


def dense_trace_distance(a, b):
    """(1/2) ||a - b||_1 from one eigen-solve of the full matrices."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def all_pairs_system(n):
    """The uniqueness system as first written, the reference for the
    support-restricted one: one real and one imaginary row for every pair
    y <= y' of (n-1)-qubit indices, with the 16 Gram parameters ordered
    g00..g33, then (Re, Im) of g01, g02, g03, g12, g13, g23."""
    v0, v1 = v_states(n)
    a0 = v0.amplitudes.real
    a1 = v1.amplitudes.real
    w = np.zeros((2**n, 4))
    for z in range(2**n):
        zp, b = z >> 1, z & 1
        w[z, b] = a0[zp]
        w[z, 2 + b] = a1[zp]
    w /= np.sqrt(2.0)
    half = 2 ** (n - 1)
    w0, w1 = w[:half], w[half:]  # party 0 (the top bit) set to 0 and to 1
    ys, yps = np.triu_indices(half)
    c = np.einsum("pa,pb->pab", w0[yps], w0[ys]) + np.einsum("pa,pb->pab", w1[yps], w1[ys])
    rows_re = np.zeros((ys.size, 16))
    rows_im = np.zeros((ys.size, 16))
    off = {}
    for a in range(4):
        rows_re[:, a] = c[:, a, a]
    k = 4
    for a in range(4):
        for b in range(a + 1, 4):
            rows_re[:, k] = c[:, a, b] + c[:, b, a]
            rows_im[:, k + 1] = c[:, a, b] - c[:, b, a]
            off[a, b] = k
            k += 2
    ortho = np.zeros((4, 16))
    ortho[0, [0, 1]] = 1.0  # <E0|E0> = g00 + g11 = 1
    ortho[1, [2, 3]] = 1.0  # <E1|E1> = g22 + g33 = 1
    ortho[2, [off[0, 2], off[1, 3]]] = 1.0  # Re <E0|E1> = 0
    ortho[3, [off[0, 2] + 1, off[1, 3] + 1]] = 1.0  # Im <E0|E1> = 0
    a_mat = np.vstack([rows_re, rows_im, ortho])
    target = 0.5 * (a0[ys] * a0[yps] + a1[ys] * a1[yps])
    b_vec = np.concatenate([target, np.zeros(ys.size), [1.0, 1.0, 0.0, 0.0]])
    return a_mat, b_vec


class TestMarginalSet:
    def test_needs_three_parties(self):
        with pytest.raises(InvalidArgument):
            marginal_set(GHZ_COEFFS, 2)

    def test_product_state_marginals(self):
        # |000> has coefficients diag(1, 0)
        ms = marginal_set(np.diag([1.0, 0.0]), 3)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        for j in range(3):
            assert np.abs(on_span(ms[j], 2) - expected).max() < 1e-12

    def test_ghz_marginal_is_classical_mixture(self):
        ms = marginal_set(GHZ_COEFFS, 4)
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[7, 7] = 0.5
        for j in range(4):
            assert np.abs(on_span(ms[j], 3) - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_g_marginals_permutation_invariant(self, n):
        # the carrier is permutation symmetric, so every single-party-deleted
        # marginal is the same matrix
        ms = dense_marginal_set(g_state(n))
        assert len(ms) == n
        for j in range(1, n):
            assert np.abs(ms[j] - ms[0]).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_g_marginal_closed_form(self, n):
        # tracing out any party leaves (|v0><v0| + |v1><v1|) / 2
        v0, v1 = v_states(n)
        expected = 0.5 * (
            np.outer(v0.amplitudes, v0.amplitudes.conj())
            + np.outer(v1.amplitudes, v1.amplitudes.conj())
        )
        ms = dense_marginal_set(g_state(n))
        assert np.abs(ms[0] - expected).max() < 1e-10

    def test_marginals_match_tolerance(self):
        # a trace keeps only the diagonal: GHZ and the mixture share their
        # marginals, GHZ and |0..0> do not
        ghz = marginal_set(GHZ_COEFFS, 4)
        assert marginals_match(ghz, marginal_set(MIXTURE_COEFFS, 4))
        assert not marginals_match(ghz, marginal_set(np.diag([1.0, 0.0]), 4))


class TestGHZCounterexample:
    @pytest.mark.parametrize("n", range(3, MAX_RDM_QUBITS + 1))
    def test_holds_for_all_sizes(self, n):
        # a Python bool, which the CLI's JSON writer needs
        assert ghz_counterexample_check(n) is True

    def test_mixture_really_differs_globally(self):
        assert rdm._trace_distance(GHZ_COEFFS, MIXTURE_COEFFS) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_support_matches_dense_oracle(self, n):
        zeros, ones = make_basis_state(n, "0" * n), make_basis_state(n, "1" * n)
        for coeffs, dense in (
            (GHZ_COEFFS, dense_marginal_set(carrier_state("GHZ", n))),
            (MIXTURE_COEFFS, mixture_marginals(zeros, ones)),
        ):
            ms = marginal_set(coeffs, n)
            assert len(ms) == n
            for got, expected in zip(ms, dense):
                assert np.abs(on_span(got, n - 1) - expected).max() < 1e-12
        full = range(n)
        ghz = reduce_state(carrier_state("GHZ", n), full).matrix
        mixture = 0.5 * (reduce_state(zeros, full).matrix + reduce_state(ones, full).matrix)
        support = rdm._trace_distance(GHZ_COEFFS, MIXTURE_COEFFS)
        assert abs(support - dense_trace_distance(ghz, mixture)) < 1e-12

    def test_every_size_peaks_below_one_mib(self):
        tracemalloc.start()
        try:
            for n in range(3, MAX_RDM_QUBITS + 1):
                ghz_counterexample_check(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_rejected_before_allocating(self, monkeypatch):
        def compute(*args):
            raise AssertionError("the marginals were computed")

        monkeypatch.setattr(rdm, "marginal_set", compute)
        with pytest.raises(BudgetExceeded):
            ghz_counterexample_check(MAX_RDM_QUBITS + 1)

    def test_g_carrier_has_no_dephasing_counterexample(self):
        # the analogous z-dephasing of the carrier (W/Wbar mixture) does NOT
        # reproduce its marginals, unlike the GHZ case
        n = 6
        w = np.zeros(2**n)
        w[[1 << q for q in range(n)]] = 1.0 / np.sqrt(n)
        wbar = w[::-1]  # flipping every qubit reverses the index order
        mixture = mixture_marginals(PureState(n, w), PureState(n, wbar))
        assert not marginals_match(dense_marginal_set(g_state(n)), mixture)


class TestGramUniqueness:
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 13, 32, MAX_RDM_QUBITS])
    def test_forced_for_five_plus(self, n):
        sol = g_uniqueness_check(n)
        assert isinstance(sol, GramSolution)
        assert sol.forced_product
        assert sol.nullspace_dim == 0
        assert sol.residual < 1e-9

    @pytest.mark.parametrize("n", range(3, 13))
    def test_nullspace_dimension(self, n):
        # values of the all-pairs system; only n = 4 leaves the Gram free
        assert g_uniqueness_check(n).nullspace_dim == (6 if n == 4 else 0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_rows_are_the_nonzero_all_pairs_rows(self, n):
        dense_a, dense_b = all_pairs_system(n)
        nonzero = dense_a.any(axis=1) | (dense_b != 0)
        a_mat, b_vec = rdm._constraint_system(n)
        assert np.array_equal(a_mat, dense_a[nonzero])
        assert np.array_equal(b_vec, dense_b[nonzero])

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_dense_oracle(self, n):
        # the shell-built system is the dense one, bit for bit
        a_mat, b_vec = rdm._constraint_system(n)
        dense_a, dense_b = dense_constraint_system(n)
        assert np.array_equal(a_mat, dense_a)
        assert np.array_equal(b_vec, dense_b)

    def test_largest_size_peaks_below_32_mib(self):
        tracemalloc.start()
        try:
            g_uniqueness_check(MAX_RDM_QUBITS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_not_forced_for_four(self):
        sol = g_uniqueness_check(4)
        assert not sol.forced_product
        assert sol.nullspace_dim >= 1
        assert sol.residual < 1e-9

    def test_four_qubit_counterexample_exists(self):
        # concrete witness for the n = 4 non-uniqueness: the x-basis
        # dephasing of the carrier shares all 3-party marginals with it
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        px = np.ones(1)
        mx = np.ones(1)
        for _ in range(4):
            px = np.kron(px, plus)
            mx = np.kron(mx, minus)
        mixture = 0.5 * (np.outer(px, px) + np.outer(mx, mx))
        pure_states = (PureState(4, px), PureState(4, mx))
        assert marginals_match(dense_marginal_set(g_state(4)), mixture_marginals(*pure_states))
        assert dense_trace_distance(mixture, reduce_state(g_state(4), range(4)).matrix) > 0.1

    def test_trivial_gram_structure(self):
        sol = g_uniqueness_check(6)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 1.0
        expected[0, 3] = expected[3, 0] = 1.0
        assert np.abs(sol.gram - expected).max() < 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(InvalidArgument):
            g_uniqueness_check(2)

    def test_oversized_rejected_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("the linear system was built")

        monkeypatch.setattr(rdm, "_constraint_system", build)
        with pytest.raises(BudgetExceeded):
            g_uniqueness_check(MAX_RDM_QUBITS + 1)

    def test_three_qubit_case_reported(self):
        # n = 3 is outside the regime the uniqueness argument targets but the
        # linear system itself is still rank-complete
        sol = g_uniqueness_check(3)
        assert sol.forced_product
