"""Carrier-state constructors, collapse branches, noise."""

import functools
import itertools

import numpy as np
import pytest

from qss.errors import InvalidArgument
from qss.qsim import MAX_STATE_QUBITS, PauliString, expectation, reduce_state
from qss.states import (
    add_white_noise,
    branch_weights,
    carrier_branch,
    carrier_state,
    dicke_vector,
    g_state,
    shell_amplitudes,
)

from born import dicke_state, v_states


def w_pair(n):
    """|W_n> (one qubit at 1) and |Wbar_n> (one qubit at 0), built here: the
    bit flip of every qubit reverses the index order."""
    w = np.zeros(2**n)
    w[[1 << q for q in range(n)]] = 1.0 / np.sqrt(n)
    return w, w[::-1]


def hand_built_single_one_amps(k):
    """The hand-built constructors the shell builder replaced, kept as its
    oracle. This one: the unnormalized sum of the k basis states with exactly
    one 1."""
    amps = np.zeros(2**k, dtype=complex)
    for j in range(k):
        amps[1 << (k - 1 - j)] += 1.0
    return amps


def hand_built_g_amps(n):
    if n == 2:
        amps = np.zeros(4, dtype=complex)
        amps[1] = amps[2] = 1.0 / np.sqrt(2.0)
        return amps
    return (hand_built_single_one_amps(n) + hand_built_single_one_amps(n)[::-1]) / np.sqrt(2.0 * n)


def hand_built_ghz_amps(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return amps


def hand_built_v_amps(n):
    k = n - 1
    a0 = hand_built_single_one_amps(k)
    a0[2**k - 1] += 1.0
    a1 = hand_built_single_one_amps(k)[::-1].copy()
    a1[0] += 1.0
    return a0 / np.sqrt(n), a1 / np.sqrt(n)


def hand_built_branch_amps(carrier, m):
    k = 2 * m - 1
    if carrier == "G" and m > 1:
        return hand_built_v_amps(2 * m)
    low, high = np.zeros(2**k, dtype=complex), np.zeros(2**k, dtype=complex)
    # |0...0> and |1...1>: the GHZ branches, and the G branches at m = 1
    low[0] = high[-1] = 1.0
    return (high, low) if carrier == "G" else (low, high)


def assert_bit_identical(actual, expected):
    # array_equal treats -0.0 as 0.0, so the sign bits are compared apart
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual.real), np.signbit(expected.real))
    assert np.array_equal(np.signbit(actual.imag), np.signbit(expected.imag))


class TestBitIdentity:
    """The shell builder against the hand-built constructors it replaced."""

    @pytest.mark.parametrize("n", range(2, MAX_STATE_QUBITS + 1))
    def test_carriers(self, n):
        assert_bit_identical(g_state(n).amplitudes, hand_built_g_amps(n))
        assert_bit_identical(carrier_state("GHZ", n).amplitudes, hand_built_ghz_amps(n))

    @pytest.mark.parametrize("n", range(3, MAX_STATE_QUBITS + 1))
    def test_v_states(self, n):
        for state, expected in zip(v_states(n), hand_built_v_amps(n)):
            assert_bit_identical(state.amplitudes, expected)

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_branches(self, carrier, m):
        xi = carrier_branch(carrier, m).amplitudes
        for amps, expected in zip((xi, xi[::-1]), hand_built_branch_amps(carrier, m)):
            assert_bit_identical(amps, expected)


class TestWStates:
    """The carrier against its W and Wbar components."""

    def test_w4_wbar4_orthogonal(self):
        # the carrier lies in the span of two orthogonal components
        w, wbar = w_pair(4)
        g = g_state(4).amplitudes
        assert abs(np.vdot(w, wbar)) < 1e-12
        assert abs(np.vdot(w, g)) ** 2 + abs(np.vdot(wbar, g)) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_g_overlaps_with_both_components(self, n):
        g = g_state(n).amplitudes
        w, wbar = w_pair(n)
        assert np.vdot(w, g).real == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert np.vdot(wbar, g).real == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)

    def test_minimum_size(self):
        with pytest.raises(InvalidArgument):
            g_state(1)


class TestGState:
    def test_g2_is_bell_state(self):
        amps = g_state(2).amplitudes
        expected = np.zeros(4)
        expected[[1, 2]] = 1.0 / np.sqrt(2.0)
        assert np.abs(amps - expected).max() < 1e-12

    def test_g4_from_x_product_states(self):
        # independent construction via np.kron of single-qubit x eigenvectors
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        kron4 = lambda v: functools.reduce(np.kron, [v] * 4)
        expected = (kron4(plus) - kron4(minus)) / np.sqrt(2.0)
        actual = g_state(4).amplitudes
        phase = np.vdot(expected, actual)
        phase /= abs(phase)
        assert np.abs(actual - phase * expected).max() < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_x_correlation(self, m):
        n = 2 * m
        assert expectation(g_state(n), PauliString.uniform("X", n)) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_all_y_correlation_alternates(self, m):
        n = 2 * m
        assert expectation(g_state(n), PauliString.uniform("Y", n)) == pytest.approx(
            (-1.0) ** (m + 1), abs=1e-10
        )

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_all_y_vanishes_for_odd_n(self, n):
        assert expectation(g_state(n), PauliString.uniform("Y", n)) == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_permutation_symmetric(self, n):
        tensor = g_state(n).amplitudes.reshape((2,) * n)
        for i, j in itertools.combinations(range(n), 2):
            swapped = np.swapaxes(tensor, i, j)
            assert np.abs(swapped - tensor).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_invariant_under_global_flip(self, n):
        tensor = g_state(n).amplitudes.reshape((2,) * n)
        flipped = tensor[(slice(None, None, -1),) * n]
        assert np.abs(flipped - tensor).max() < 1e-12


class TestGHZState:
    def test_amplitudes(self):
        amps = carrier_state("GHZ", 3).amplitudes
        expected = np.zeros(8)
        expected[[0, 7]] = 1.0 / np.sqrt(2.0)
        assert np.abs(amps - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_all_z_correlation(self, n):
        assert expectation(carrier_state("GHZ", n), PauliString.uniform("Z", n)) == pytest.approx(
            1.0, abs=1e-10
        )


class TestBranchStates:
    def test_m1_degenerate_pair(self):
        xi = carrier_branch("G", 1).amplitudes
        assert np.abs(xi - [0.0, 1.0]).max() < 1e-12
        assert np.abs(xi[::-1] - [1.0, 0.0]).max() < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_branches_orthonormal(self, m):
        xi = carrier_branch("G", m).amplitudes
        assert abs(np.vdot(xi, xi[::-1])) < 1e-12
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)

    def test_xi_m2_explicit(self):
        # (|100> + |010> + |001> + |111>)/2
        xi = carrier_branch("G", 2)
        expected = np.zeros(8)
        expected[[4, 2, 1, 7]] = 0.5
        assert np.abs(xi.amplitudes - expected).max() < 1e-12

    def test_xibar_is_bit_flip_of_xi(self):
        # X on every Bob reverses each axis; the result is the carrier's
        # Alice-1 half
        xi = carrier_branch("G", 3)
        k = xi.n_qubits
        flipped = xi.amplitudes.reshape((2,) * k)[(slice(None, None, -1),) * k]
        xibar = g_state(6).amplitudes[2**k :] * np.sqrt(2.0)
        assert np.abs(flipped.reshape(-1) - xibar).max() < 1e-12

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", range(1, 8))
    def test_xibar_is_index_reversal_of_xi(self, carrier, m):
        # the carrier is (|0>|xi> + |1>|xibar>)/sqrt(2) with Alice as qubit 0,
        # and X on every Bob maps index x to 2^k - 1 - x; run_protocol reads
        # the rotated xibar off the rotated xi by this
        xi = carrier_branch(carrier, m).amplitudes
        halves = carrier_state(carrier, 2 * m).amplitudes.reshape(2, -1) * np.sqrt(2.0)
        assert np.abs(halves[0] - xi).max() <= 1e-15
        assert np.abs(halves[1] - xi[::-1]).max() <= 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_v_states_reconstruct_carrier(self, n):
        # (1/sqrt 2)(|v0>|0> + |v1>|1>) on qubits (1..n-1, n) reassembled
        # qubit-0-last must equal g_state(n) with qubit 0 moved to the end;
        # equivalently |g_n> = (1/sqrt 2)(|0>|v0'>...) -- check via direct
        # index arithmetic: amplitude of |b, y> is v_b[y]/sqrt(2)
        v0, v1 = v_states(n)
        g = g_state(n).amplitudes
        half = 2 ** (n - 1)
        assert np.abs(g[:half] - v0.amplitudes / np.sqrt(2.0)).max() < 1e-12
        assert np.abs(g[half:] - v1.amplitudes / np.sqrt(2.0)).max() < 1e-12

    def test_ghz_branches_are_basis_states(self):
        xi = carrier_branch("GHZ", 3).amplitudes
        assert np.argmax(np.abs(xi)) == 0
        assert np.argmax(np.abs(xi[::-1])) == 31
        assert abs(np.vdot(xi, xi[::-1])) < 1e-12

    def test_unknown_carrier(self):
        with pytest.raises(InvalidArgument):
            carrier_branch("cluster", 2)

    def test_carrier_state_dispatch(self):
        assert np.abs(
            carrier_state("G", 4).amplitudes - hand_built_g_amps(4)
        ).max() < 1e-12
        assert np.abs(
            carrier_state("GHZ", 4).amplitudes - hand_built_ghz_amps(4)
        ).max() < 1e-12



class TestDickeVector:
    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_spells_out_the_carrier(self, carrier, n):
        dense = dicke_state(dicke_vector(carrier, n)).amplitudes
        assert np.abs(dense - carrier_state(carrier, n).amplitudes).max() < 1e-15

    @pytest.mark.parametrize("carrier, n", [("G", 1), ("GHZ", 0), ("W", 4)])
    def test_rejected(self, carrier, n):
        with pytest.raises(InvalidArgument):
            dicke_vector(carrier, n)



class TestShells:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_branch_weights(self, n):
        # the carrier's shells split on Alice's qubit, at the odd and even n
        # that rdm's branches (n) and the protocol's (2m) use
        assert set(branch_weights("G", n)) == {1, n - 1}
        assert branch_weights("GHZ", n) == (0,)

    @pytest.mark.parametrize("k", range(2, 64))
    def test_shell_norm(self, k):
        # sqrt(k + 1) is the norm rdm wrote out for both of its branches; a
        # repeated weight counts once
        w = np.arange(k + 1)
        for weights, count in [((1, k), k + 1), ((k - 1, 0), k + 1), ((0,), 1), ((1, 1), k)]:
            expected = np.where(np.isin(w, weights), 1.0 / np.sqrt(float(count)), 0.0)
            assert np.array_equal(shell_amplitudes(k, weights, w), expected)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_shell_amplitudes_match_dense_shell(self, k):
        # each basis state of a listed weight, summed and normalized densely
        weight = np.array([bin(x).count("1") for x in range(2**k)])
        for weights in {(0,), (k,), (1, k), (k - 1, 0), (0, k), tuple(range(0, k + 1, 2))}:
            dense = np.isin(weight, weights).astype(float)
            dense /= np.linalg.norm(dense)
            assert np.abs(shell_amplitudes(k, weights, weight) - dense).max() <= 1e-15

def refuse_allocation(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the 2^k amplitudes were allocated")

    monkeypatch.setattr(np, "zeros", allocate)
    monkeypatch.setattr(np, "concatenate", allocate)


class TestSizeLimit:
    # 2^64 amplitudes, and a register one qubit past the cap: a constructor
    # that allocated before checking would fail inside numpy or build the
    # state instead of raising InvalidArgument
    @pytest.mark.parametrize(
        "make, past_cap",
        [
            (g_state, MAX_STATE_QUBITS + 1),
            (functools.partial(carrier_state, "GHZ"), MAX_STATE_QUBITS + 1),
            (v_states, MAX_STATE_QUBITS + 2),
            # m = 11: 21 Bob qubits
            (functools.partial(carrier_branch, "G"), 11),
        ],
        ids=["g_state", "ghz_state", "v_states", "g_branches"],
    )
    def test_rejected_before_allocating(self, make, past_cap, monkeypatch):
        refuse_allocation(monkeypatch)
        for n in (64, past_cap):
            with pytest.raises(InvalidArgument):
                make(n)

    def test_ghz_branches_rejected_before_allocating(self, monkeypatch):
        # 79 Bob qubits, each branch a basis state
        refuse_allocation(monkeypatch)
        with pytest.raises(InvalidArgument):
            carrier_branch("GHZ", 40)

    def test_v_states_minimum_size(self):
        with pytest.raises(InvalidArgument):
            v_states(1)


class TestWhiteNoise:
    def test_full_visibility(self):
        s = g_state(2)
        noisy = add_white_noise(s, 1.0)
        pure = reduce_state(s, range(s.n_qubits)).matrix
        assert np.abs(noisy.realized.matrix - pure).max() < 1e-12

    def test_zero_visibility(self):
        noisy = add_white_noise(g_state(2), 0.0)
        assert np.abs(noisy.realized.matrix - np.eye(4) / 4).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument):
            add_white_noise(g_state(2), 1.5)

    def test_oversized_rejected_before_allocating(self, monkeypatch):
        # 13 qubits fit a PureState but not a DensityMatrix
        s = g_state(13)

        def allocate(*args, **kwargs):
            raise AssertionError("the 2^n x 2^n matrix was allocated")

        monkeypatch.setattr(np, "outer", allocate)
        monkeypatch.setattr(np, "eye", allocate)
        with pytest.raises(InvalidArgument):
            add_white_noise(s, 0.5)

    def test_convex_combination(self):
        s = g_state(3)
        p = 0.37
        noisy = add_white_noise(s, p)
        expected = p * reduce_state(s, range(s.n_qubits)).matrix + (1 - p) * np.eye(8) / 8
        assert np.abs(noisy.realized.matrix - expected).max() < 1e-12

