"""Core simulator primitives: states, Pauli action, traces, measurement."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qss import protocol, qsim
from qss.attack import AttackScenario
from qss.errors import InvalidArgument, InvalidDimension, InvalidState
from qss.qsim import DensityMatrix, PauliString, PureState, expectation, reduce_state
from qss.states import carrier_branch, g_state

from born import (
    ZeroProbabilityBranch,
    dense_attacked_state,
    density_expectation,
    make_basis_state,
    outcome_probabilities,
    project,
    sequential_trace,
)

# Independent oracle: explicit matrices, combined with np.kron only.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)
MATS = {"I": ID, "X": SX, "Y": SY, "Z": SZ}


def kron_chain(axes):
    return functools.reduce(np.kron, (MATS[a] for a in axes))


@st.composite
def pure_states(draw, min_qubits=1, max_qubits=4):
    n = draw(st.integers(min_qubits, max_qubits))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, amps / np.linalg.norm(amps))


def pauli_for(n, draw_source):
    return PauliString("".join(draw_source))


class TestBasisStates:
    def test_single_zero(self):
        s = make_basis_state(1, "0")
        assert expectation(s, PauliString("Z")) == pytest.approx(1.0)

    def test_two_qubit_encoding(self):
        s = make_basis_state(2, "10")
        assert np.argmax(np.abs(s.amplitudes)) == 2

    def test_three_qubit_encoding(self):
        s = make_basis_state(3, "111")
        assert np.argmax(np.abs(s.amplitudes)) == 7

    def test_length_mismatch(self):
        with pytest.raises(InvalidDimension):
            make_basis_state(3, "01")

    def test_bad_characters(self):
        with pytest.raises(InvalidArgument):
            make_basis_state(2, "0x")

    # 2^64 amplitudes overflow numpy's dimension limit, and 2^21 would be
    # allocated only for PureState to reject the register
    @pytest.mark.parametrize("n", [qsim.MAX_STATE_QUBITS + 1, 64])
    def test_oversized_rejected_before_allocating(self, n, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("the 2^n amplitudes were allocated")

        monkeypatch.setattr(np, "zeros", allocate)
        with pytest.raises(InvalidArgument):
            make_basis_state(n, "0" * n)


class TestPureStateValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidState):
            PureState(1, np.array([1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidDimension):
            PureState(2, np.array([1.0, 0.0]))

    def test_amplitudes_read_only(self):
        s = make_basis_state(1, "0")
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5

    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.nan, 1.0], [1.0, np.nan * 1j]])
    def test_nan_rejected(self, amps):
        with pytest.raises(InvalidState):
            PureState(1, amps)


class TestDensityMatrixValidation:
    @pytest.mark.parametrize(
        "matrix",
        [
            [[np.nan, 0.0], [0.0, 1.0]],
            [[0.5, np.nan], [np.nan, 0.5]],
            [[0.5, np.nan * 1j], [0.0, 0.5]],
            [[0.5 + np.nan * 1j, 0.0], [0.0, 0.5]],
        ],
    )
    def test_nan_rejected(self, matrix):
        with pytest.raises(InvalidState):
            DensityMatrix(1, matrix)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(InvalidState):
            DensityMatrix(2, np.diag([0.6, -0.1, 0.0, 0.5]))

    def test_negative_eigenvalue_inside_zero_rows_rejected(self):
        # the block [[0.5, 0.6], [0.6, 0.5]] on indices 0 and 7 has
        # eigenvalues 1.1 and -0.1; every other row and column is zero
        m = np.zeros((8, 8))
        m[np.ix_([0, 7], [0, 7])] = [[0.5, 0.6], [0.6, 0.5]]
        with pytest.raises(InvalidState):
            DensityMatrix(3, m)


@st.composite
def mixed_states(draw, max_qubits=3):
    n = draw(st.integers(1, max_qubits))
    rank = draw(st.integers(1, 2**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    rho = a @ a.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


def moveaxis_apply_one(arr, axis, mat):
    """The rotation kernel as first written, with ``np.moveaxis``: the
    bit-identity oracle for ``qsim._apply_one``."""
    moved = np.moveaxis(arr, axis, 0)
    out = np.dot(mat, moved.reshape(2, -1)).reshape(moved.shape)
    return np.moveaxis(out, 0, axis)


#: The matrices the package rotates with: ``run_protocol``'s basis changes
#: and the ``project`` oracle's projectors.
KERNEL_MATRICES = [qsim.EIGENBASIS[ax].conj().T for ax in qsim.AXES] + [
    np.outer(v, v.conj()) for ax in qsim.AXES for v in qsim.EIGENBASIS[ax].T
]


class TestApplyOneKernel:
    """``_apply_one`` gives bit for bit what the moveaxis kernel gave."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.data())
    def test_matches_moveaxis_kernel(self, k, seed, data):
        rng = np.random.default_rng(seed)
        ours = theirs = rng.normal(size=(2,) * k) + 1j * rng.normal(size=(2,) * k)
        # a chain of rotations, so later steps see the strided views that
        # earlier ones return, as in a protocol or projection loop
        for axis in data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k)):
            which = data.draw(st.integers(-1, len(KERNEL_MATRICES) - 1))
            if which < 0:
                mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            else:
                mat = KERNEL_MATRICES[which]
            ours = qsim._apply_one(ours, axis, mat)
            theirs = moveaxis_apply_one(theirs, axis, mat)
            assert ours.shape == theirs.shape == (2,) * k
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 4])
    def test_protocol_matches_moveaxis_kernel(self, carrier, m, phi, monkeypatch):
        config = protocol.ProtocolConfig(3000, AttackScenario(carrier, m, phi), 17)
        # each combination's cumulative law but its last entry, and its
        # rounds' uniforms, as run_protocol hands them to searchsorted
        laws, uniforms = [], []
        searchsorted = np.searchsorted

        def recorded(a, v, side="left", sorter=None):
            if side == "right":
                laws.append(np.array(a))
                uniforms.append(np.array(v))
            return searchsorted(a, v, side=side, sorter=sorter)

        monkeypatch.setattr(np, "searchsorted", recorded)
        ours = protocol.run_protocol(config)
        # the laws as the moveaxis kernel and a length-2 sum over Evan's probe
        # built them from the dense attacked state
        n = config.scenario.n_parties
        psi = dense_attacked_state(config.scenario)
        base = psi.amplitudes.reshape((2,) * psi.n_qubits)
        expected = []
        for combo in range(2**n):
            arr = base
            for q in range(n):
                ax = "XY"[(combo >> (n - 1 - q)) & 1]
                arr = moveaxis_apply_one(arr, q, qsim.EIGENBASIS[ax].conj().T)
            probs = (np.abs(arr) ** 2).reshape(2**n, 2).sum(axis=1)
            expected.append(np.cumsum(probs / probs.sum()))
        assert len(laws) == len(expected)
        # the law built on the branch span sums in another order, so it can
        # equal the dense one only to roundoff (at most 0.125 * 2^N eps seen)
        tol = 2**n * np.finfo(float).eps
        assert all(np.abs(a - b[:-1]).max() <= tol for a, b in zip(laws, expected))
        # the dense laws, sampled with the run's own uniforms and clamped to
        # the last outcome, give its outcomes
        dense_idx = np.empty_like(ours.outcome_idx)
        for combo, (law, u) in enumerate(zip(expected, uniforms)):
            dense_idx[ours.combo_idx == combo] = searchsorted(law, u, side="right")
        assert np.array_equal(np.minimum(dense_idx, 2**n - 1), ours.outcome_idx)
        monkeypatch.setattr(protocol, "_apply_one", moveaxis_apply_one)
        theirs = protocol.run_protocol(config)
        assert np.array_equal(ours.combo_idx, theirs.combo_idx)
        assert np.array_equal(ours.outcome_idx, theirs.outcome_idx)


class TestApplyPauli:
    """The action P|x> = phase(x) |x xor flip> behind ``expectation``."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_flip_maps_w_to_wbar(self, n):
        # <X^n> = +1 on (W + Wbar)/sqrt2 and -1 on (W - Wbar)/sqrt2 iff X^n W = Wbar
        w = np.zeros(2**n)
        w[[1 << q for q in range(n)]] = 1.0 / np.sqrt(n)
        wbar = w[::-1]  # flipping every qubit reverses the index order
        flip = PauliString.uniform("X", n)
        for sign in (1, -1):
            state = PureState(n, (w + sign * wbar) / np.sqrt(2.0))
            assert abs(expectation(state, flip) - sign) < 1e-10

    def test_sigma_z_fixes_zero(self):
        assert abs(expectation(make_basis_state(1, "0"), PauliString("Z")) - 1.0) < 1e-10

    def test_sigma_y_cubed_orthogonal_to_g3(self):
        assert abs(expectation(g_state(3), PauliString.uniform("Y", 3))) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimension):
            expectation(make_basis_state(2, "00"), PauliString("X"))

    @settings(deadline=None, max_examples=20)
    @given(pure_states(max_qubits=3))
    def test_norm_preserved(self, state):
        # the Pauli strings over sqrt(2^n) are orthonormal: sum_P <P>^2 = 2^n tr(rho^2)
        n = state.n_qubits
        total = sum(
            expectation(state, PauliString("".join(axes))) ** 2
            for axes in itertools.product("IXYZ", repeat=n)
        )
        assert abs(total - 2**n) < 1e-9

    @settings(deadline=None, max_examples=30)
    @given(mixed_states(), st.data())
    def test_matches_kron_oracle(self, state, data):
        axes = data.draw(
            st.text(alphabet="IXYZ", min_size=state.n_qubits, max_size=state.n_qubits)
        )
        expected = np.trace(kron_chain(axes) @ state.matrix).real
        assert abs(density_expectation(state, PauliString(axes)) - expected) < 1e-10


class TestPopcounts:
    @pytest.mark.parametrize("k", range(17))
    def test_hamming_weights(self, k):
        assert qsim.popcounts(k).tolist() == [x.bit_count() for x in range(2**k)]


class TestExpectation:
    def test_x_on_g6(self):
        assert expectation(g_state(6), PauliString.uniform("X", 6)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_y_on_g4(self):
        assert expectation(g_state(4), PauliString.uniform("Y", 4)) == pytest.approx(
            -1.0, abs=1e-10
        )

    def test_x_on_zero(self):
        assert expectation(make_basis_state(1, "0"), PauliString("X")) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_nonhermitian_density_rejected(self):
        with pytest.raises(InvalidState):
            DensityMatrix(1, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))

    @settings(deadline=None, max_examples=30)
    @given(pure_states(max_qubits=3), st.data())
    def test_pure_equals_density(self, state, data):
        axes = data.draw(
            st.text(alphabet="XYZ", min_size=state.n_qubits, max_size=state.n_qubits)
        )
        p = PauliString(axes)
        assert expectation(state, p) == pytest.approx(
            density_expectation(reduce_state(state, range(state.n_qubits)), p), abs=1e-10
        )

    @settings(deadline=None, max_examples=30)
    @given(pure_states(max_qubits=3), st.data())
    def test_matches_kron_oracle(self, state, data):
        axes = data.draw(
            st.text(alphabet="IXYZ", min_size=state.n_qubits, max_size=state.n_qubits)
        )
        expected = np.vdot(state.amplitudes, kron_chain(axes) @ state.amplitudes).real
        assert expectation(state, PauliString(axes)) == pytest.approx(
            expected, abs=1e-10
        )


class TestPartialTrace:
    def test_product_state(self):
        reduced = reduce_state(make_basis_state(2, "00"), [0])
        assert np.abs(reduced.matrix - np.diag([1.0, 0.0])).max() < 1e-10

    def test_g2_reduces_to_maximally_mixed(self):
        # direct 4x4 oracle: entries of the reduced matrix by index arithmetic
        rho = reduce_state(g_state(2), range(2))
        full = rho.matrix
        oracle = np.array(
            [
                [full[0, 0] + full[1, 1], full[0, 2] + full[1, 3]],
                [full[2, 0] + full[3, 1], full[2, 2] + full[3, 3]],
            ]
        )
        reduced = reduce_state(g_state(2), [0])
        assert np.abs(reduced.matrix - oracle).max() < 1e-12
        assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-10

    def test_empty_keep_rejected(self):
        with pytest.raises(InvalidArgument):
            reduce_state(g_state(2), [])

    @settings(deadline=None, max_examples=25)
    @given(pure_states(min_qubits=3, max_qubits=4), st.data())
    def test_two_step_equals_one_step(self, state, data):
        n = state.n_qubits
        keep = sorted(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 2)
            )
        )
        discard = [q for q in range(n) if q not in keep]
        one = reduce_state(state, keep)
        # drop one qubit first, then the rest (re-indexed) from the dense reduction
        first_drop = discard[0]
        mid = reduce_state(state, [q for q in range(n) if q != first_drop])
        remap = {q: i for i, q in enumerate(q for q in range(n) if q != first_drop)}
        two = sequential_trace(mid, [remap[q] for q in keep])
        assert np.abs(one.matrix - two).max() < 1e-10

    def test_trace_preserved(self):
        reduced = reduce_state(g_state(4), [1, 2])
        assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-10)


def keep_lists(n):
    """Keep lists in any order, with repeats, or holding every qubit."""
    some = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    return st.one_of(some, st.permutations(range(n)))


class TestReduceStateAgainstSequentialTrace:
    @settings(deadline=None, max_examples=60)
    @given(pure_states(max_qubits=6), st.data())
    def test_pure_states(self, state, data):
        keep = data.draw(keep_lists(state.n_qubits))
        a = state.amplitudes
        expected = sequential_trace(DensityMatrix(state.n_qubits, np.outer(a, a.conj())), keep)
        assert np.abs(reduce_state(state, keep).matrix - expected).max() < 1e-12

    @pytest.mark.parametrize("keep", [(0, 19), (3, 7, 11)])
    def test_twenty_qubits_within_four_state_sizes(self, keep):
        n = 20
        rng = np.random.default_rng(5)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = PureState(n, amps / np.linalg.norm(amps))
        tracemalloc.start()
        try:
            reduced = reduce_state(state, keep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * state.amplitudes.nbytes
        # rows of psi indexed by the kept qubits: rho = psi_K psi_K^dagger
        rest = [q for q in range(n) if q not in keep]
        psi_k = state.amplitudes.reshape((2,) * n).transpose(list(keep) + rest)
        psi_k = psi_k.reshape(2 ** len(keep), -1)
        assert np.abs(reduced.matrix - psi_k @ psi_k.conj().T).max() < 1e-12


class TestProject:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_alice_x_measurement_collapses_bobs(self, m, sign):
        prob, collapsed = project(g_state(2 * m), [0], "X", [sign])
        assert prob == pytest.approx(0.5, abs=1e-10)
        xi = carrier_branch("G", m).amplitudes
        bob_part = (xi + sign * xi[::-1]) / np.sqrt(2.0)
        plus = np.array([1.0, sign]) / np.sqrt(2.0)
        expected = np.kron(plus, bob_part)
        phase = np.vdot(expected, collapsed.amplitudes)
        assert np.abs(collapsed.amplitudes - phase * expected).max() < 1e-10

    def test_zero_probability_branch(self):
        with pytest.raises(ZeroProbabilityBranch):
            project(make_basis_state(2, "00"), [0], "Z", [-1])

    def test_outcome_count_mismatch(self):
        with pytest.raises(InvalidArgument):
            project(make_basis_state(2, "00"), [0, 1], "Z", [1])

    @settings(deadline=None, max_examples=20)
    @given(pure_states(max_qubits=3), st.data())
    def test_born_completeness(self, state, data):
        n = state.n_qubits
        basis = data.draw(st.sampled_from("XYZ"))
        total = 0.0
        for idx in range(2**n):
            outcomes = [1 - 2 * ((idx >> (n - 1 - q)) & 1) for q in range(n)]
            try:
                prob, _ = project(state, list(range(n)), basis, outcomes)
            except ZeroProbabilityBranch:
                prob = 0.0
            total += prob
        assert total == pytest.approx(1.0, abs=1e-9)


class TestOutcomeProbabilities:
    @settings(deadline=None, max_examples=40)
    @given(pure_states(max_qubits=5), st.data())
    def test_matches_sequential_projection(self, state, data):
        n = state.n_qubits
        bases = data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        probs = outcome_probabilities(state, bases)
        measured = [q for q, ax in enumerate(bases) if ax != "I"]
        assert probs.shape == (2 ** len(measured),)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        for idx, p in enumerate(probs):
            expected, branch = 1.0, state
            for k, q in enumerate(measured):
                bit = (idx >> (len(measured) - 1 - k)) & 1
                try:
                    prob, branch = project(branch, [q], bases[q], [1 - 2 * bit])
                except ZeroProbabilityBranch:
                    expected = 0.0
                    break
                expected *= prob
            assert abs(p - expected) < 1e-12

    def test_invalid_letter(self):
        with pytest.raises(InvalidArgument):
            outcome_probabilities(make_basis_state(2, "00"), "XA")

    def test_wrong_length(self):
        with pytest.raises(InvalidDimension):
            outcome_probabilities(make_basis_state(2, "00"), "XYZ")


def _sample_outcomes(state, bases, rng, n_draws):
    """Inverse-CDF draws of every qubit's ±1 outcome, as ``run_protocol`` samples."""
    probs = outcome_probabilities(state, bases)
    idx = np.searchsorted(np.cumsum(probs / probs.sum()), rng.random(n_draws), side="right")
    bits = (np.minimum(idx, probs.size - 1)[:, None] >> np.arange(state.n_qubits)[::-1]) & 1
    return 1 - 2 * bits


class TestMeasureSample:
    def test_g6_all_x_parity(self):
        outcomes = _sample_outcomes(g_state(6), "X" * 6, np.random.default_rng(11), 200)
        assert (np.prod(outcomes, axis=1) == 1).all()

    def test_g6_all_y_parity(self):
        # exhaustive Born enumeration confirms the parity constraint; sampled
        # outcomes must satisfy it on every draw (M=3, sign +1)
        outcomes = _sample_outcomes(g_state(6), "Y" * 6, np.random.default_rng(13), 200)
        assert (np.prod(outcomes, axis=1) == 1).all()
