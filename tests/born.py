"""Dense oracles: the attacked state, basis states, projective collapse, Born
tables, Pauli expectations of density matrices and partial traces.

``dense_attacked_state`` is |psi>_ABE on all 2m+1 qubits, for m <= 9: the
state that ``attack`` and ``protocol`` read on the branch span, where the
Bob register is one qubit, and that the tests check them against.
``outcome_probabilities`` rotates each measured qubit of a pure state into
its measurement eigenbasis and reads off |amplitude|^2: the exponential
reference that the protocol's outcome laws and ``exact_mutual_info_ab``'s
joint law are checked against.  ``project`` collapses a full register onto
one outcome pattern: the reference for the two-qubit states that ``attack``
reads off the branch span.  ``density_expectation`` is the signed Pauli
gather on a density matrix, the reference for ``bell``'s Pauli transform.
``sequential_trace`` and ``dense_marginal_set`` reduce 2^n x 2^n states, the
references for ``reduce_state`` and for ``rdm``'s two-vector marginals.
``dense_constraint_system`` builds ``rdm``'s Gram system from the 2^(n-1)
amplitudes of ``v_states``, the reference for the one built on their shells.
``pauli_transform`` is the tensordot loop that ``bell.correlation_tensor``'s
party contraction replaced.  ``dense_maximize_plane_sum`` is the per-party
frame search on the 3^n tensor, the reference for ``bell``'s shared-plane
search on the Dicke vector, and ``search_block_from_scratch`` its step
before the left part of the contraction was carried from party to party.
"""

import math
from typing import Sequence

import numpy as np

from qss.attack import AttackScenario, _abe
from qss.bell import LocalFrame
from qss.errors import InvalidArgument, InvalidDimension, InvalidState
from qss.qsim import (
    ATOL_EXACT,
    EIGENBASIS,
    MAX_STATE_QUBITS,
    DensityMatrix,
    PauliString,
    PureState,
    _FLIP_BIT,
    _SIGN_BIT,
    _apply_one,
    _check_axis,
    reduce_state,
)
from qss.rdm import _ORTHO, _ORTHO_RHS, _rows
from qss.states import _shell_state, make_carrier_branches

PROB_FLOOR = 1e-12


class ZeroProbabilityBranch(Exception):
    """Projection onto a branch whose probability is below the zero threshold."""


def dense_attacked_state(scenario: AttackScenario) -> PureState:
    """|psi>_ABE on 2m+1 qubits: Alice is qubit 0, the Bobs 1..2m-1 and
    Evan's probe 2m."""
    m = scenario.m
    if 2 * m + 1 > MAX_STATE_QUBITS:
        # before the branches and their Kronecker products are allocated
        raise InvalidArgument(
            f"attacked state needs 2m + 1 <= {MAX_STATE_QUBITS} qubits, got m = {m}"
        )
    xi, xibar = make_carrier_branches(scenario.carrier, m)
    return PureState(2 * m + 1, _abe(scenario.phi, xi.amplitudes, xibar.amplitudes))


def dicke_state(c: np.ndarray) -> PureState:
    """The n-qubit symmetric state with amplitude c[w] / sqrt(C(n, w)) on
    every basis state of Hamming weight w, n = len(c) - 1."""
    n = len(c) - 1
    weight = np.array([bin(x).count("1") for x in range(2**n)])
    return PureState(n, c[weight] / np.sqrt([math.comb(n, w) for w in weight]))


def make_basis_state(n: int, bits: str) -> PureState:
    """Computational basis state |bits>, qubit 0 being the most significant bit."""
    if not 1 <= n <= MAX_STATE_QUBITS:
        # before the 2^n amplitudes are allocated
        raise InvalidArgument(f"n must be in [1, {MAX_STATE_QUBITS}], got {n}")
    if len(bits) != n:
        raise InvalidDimension(f"bit string length {len(bits)} != n = {n}")
    if any(b not in "01" for b in bits):
        raise InvalidArgument(f"bits must be over 01, got {bits!r}")
    amps = np.zeros(2**n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(n, amps)


def outcome_probabilities(state: PureState, bases: str) -> np.ndarray:
    """Born distribution of measuring each qubit in its Pauli basis.

    ``bases`` has one letter per qubit over "IXYZ"; "I" qubits are summed
    out.  Entry k is the probability that the measured qubits, most
    significant bit first, give the outcome bits of k (bit 0 for +1).
    """
    n = state.n_qubits
    if len(bases) != n:
        raise InvalidDimension(f"need {n} bases, got {len(bases)}")
    measured = [q for q, ax in enumerate(PauliString(bases).axes) if ax != "I"]
    arr = state.amplitudes.reshape((2,) * n)
    for q in measured:
        # express the state in the measurement eigenbasis of qubit q
        arr = _apply_one(arr, q, EIGENBASIS[bases[q]].conj().T)
    traced = tuple(q for q, ax in enumerate(bases) if ax == "I")
    return (np.abs(arr) ** 2).sum(axis=traced).reshape(-1)


def project(
    state: PureState,
    qubits: Sequence[int],
    basis: str,
    outcomes: Sequence[int],
) -> tuple[float, PureState]:
    """Project the listed qubits onto the given +-1 outcomes of one Pauli axis.

    Returns the branch probability and the renormalized full-register state
    (projected qubits collapse onto the chosen eigenvector).
    """
    _check_axis(basis)
    if len(outcomes) != len(qubits):
        raise InvalidArgument("one outcome is required per projected qubit")
    if any(o not in (1, -1) for o in outcomes):
        raise InvalidArgument(f"outcomes must be +-1, got {list(outcomes)}")
    if len(set(qubits)) != len(qubits):
        raise InvalidArgument("projected qubits must be distinct")
    if any(q < 0 or q >= state.n_qubits for q in qubits):
        raise InvalidArgument("projected qubit index out of range")
    arr = state.amplitudes.reshape((2,) * state.n_qubits)
    for q, oc in zip(qubits, outcomes):
        v = EIGENBASIS[basis][:, 0 if oc == 1 else 1]
        arr = _apply_one(arr, q, np.outer(v, v.conj()))
    flat = arr.reshape(-1)
    prob = float(np.vdot(flat, flat).real)
    if prob <= PROB_FLOOR:
        raise ZeroProbabilityBranch(
            f"branch probability {prob} below threshold {PROB_FLOOR}"
        )
    return prob, PureState(state.n_qubits, flat / np.sqrt(prob))


def density_expectation(rho: DensityMatrix, p: PauliString) -> float:
    """Expectation value of a Pauli string in a density matrix, clamped to
    [-1, 1]: the signed gather sum_x phase(x) rho[x xor flip, x], with the
    checks of ``qsim.expectation``."""
    n = rho.n_qubits
    if p.n_qubits != n:
        raise InvalidDimension(f"Pauli string on {p.n_qubits} qubits, state on {n}")
    x = np.arange(2**n)
    src = x ^ int(p.axes.translate(_FLIP_BIT), 2)
    # popcount parity of src & zmask, folded into bit 0 (n <= 32)
    parity = src & int(p.axes.translate(_SIGN_BIT), 2)
    for shift in (16, 8, 4, 2, 1):
        parity ^= parity >> shift
    phase = (1, 1j, -1, -1j)[p.axes.count("Y") % 4] * (1 - 2 * (parity & 1))
    val = (phase * rho.matrix[src, x]).sum()
    if abs(val.imag) > ATOL_EXACT:
        raise InvalidState(f"expectation {val} has a nonzero imaginary part")
    return float(min(1.0, max(-1.0, val.real)))


def sequential_trace(rho: DensityMatrix, keep) -> np.ndarray:
    """Reference partial trace: one np.trace per traced qubit, the highest
    first, on the full 2^n x 2^n matrix; kept qubits in ascending order."""
    keep_set = sorted(set(keep))
    n = rho.n_qubits
    arr = rho.matrix.reshape((2,) * (2 * n))
    n_cur = n
    for q in sorted(set(range(n)) - set(keep_set), reverse=True):
        arr = np.trace(arr, axis1=q, axis2=n_cur + q)
        n_cur -= 1
    return arr.reshape(2**n_cur, 2**n_cur)


def dense_marginal_set(state: PureState) -> list[np.ndarray]:
    """The n dense reduced states obtained by tracing out each single party,
    indexed by the left-out qubit."""
    n = state.n_qubits
    return [reduce_state(state, [q for q in range(n) if q != j]).matrix for j in range(n)]


def v_states(n: int) -> tuple[PureState, PureState]:
    """The pair (|v_0>, |v_1>) on k = n-1 qubits used by the marginal analysis:
    |v_0> on weights 1 and k (every single excitation plus |1...1>), |v_1> its
    bit flip on weights k-1 and 0. For n = 2 they are |1> and |0>."""
    if n < 2:
        raise InvalidArgument(f"v_states needs n >= 2, got {n}")
    k = n - 1
    return _shell_state(k, (1, k)), _shell_state(k, (k - 1, 0))


def dense_constraint_system(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``rdm._constraint_system`` from the dense amplitudes of v0 and v1: W as
    a Kronecker product, and its support found by scanning all 2^(n-1)
    indices."""
    v0, v1 = v_states(n)
    a0 = v0.amplitudes.real
    a1 = v1.amplitudes.real
    # row 2 z' + b, column 2 c + b holds amplitude z' of v_c; party 0 is the
    # top bit of z: w[0] and w[1] are its two halves
    w = (np.kron(np.column_stack([a0, a1]), np.eye(2)) / np.sqrt(2.0)).reshape(
        2, 2 ** (n - 1), 4
    )
    support = np.flatnonzero(np.abs(w).sum(axis=(0, 2)) + np.abs(a0) + np.abs(a1))
    i, j = np.triu_indices(support.size)
    ys, yps = support[i], support[j]
    # C[pair, a, b] = sum_bit w[bit, y'][a] * w[bit, y][b]
    c = np.einsum("tpa,tpb->pab", w[:, yps], w[:, ys])
    target = 0.5 * (a0[ys] * a0[yps] + a1[ys] * a1[yps])

    a_mat = np.vstack([_rows(c), _rows(_ORTHO)])
    b_vec = np.concatenate([target, np.zeros(ys.size), _ORTHO_RHS, np.zeros(3)])
    nonzero = a_mat.any(axis=1) | (b_vec != 0)
    return a_mat[nonzero], b_vec[nonzero]


def pauli_transform(rho: np.ndarray, n: int, pauli_rows: np.ndarray) -> np.ndarray:
    """The (3,)*n complex Pauli transform of a 2^n x 2^n matrix, one
    np.tensordot per qubit; row a of ``pauli_rows`` is sigma_a.T flattened."""
    # axes (r0, c0, r1, c1, ...), each qubit's pair merged into one axis of 4
    order = [ax for q in range(n) for ax in (q, n + q)]
    arr = rho.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)
    for _ in range(n):
        # the leading axis is always the next qubit; its Pauli axis goes last
        arr = np.tensordot(arr, pauli_rows, axes=([0], [1]))
    return arr


def contract_parties(
    arr: np.ndarray, mats: np.ndarray, skip: int | None = None, done: int = 0
) -> np.ndarray:
    """Contract every party of a (d,)*n array but ``skip`` with its matrix.

    ``mats`` is a batch of per-party matrices, shape (b, n, r, d).  The result
    has shape (b, r^n), or (b, r^skip, d, r^(n-1-skip)) with party ``skip``'s
    axis left in place.  With ``done`` > 0, ``arr`` is a batch whose parties
    0 .. done-1 are contracted already, shape (b, r^done, d, d^(n-1-done)).
    """
    b, n, r, d = mats.shape
    # axes (batch, parties done, next party, parties to come)
    shape = (b, r**done, d, d ** (n - 1 - done))
    arr = np.broadcast_to(arr.reshape((-1,) + shape[1:]), shape)
    for j in range(done, n):
        arr = arr.reshape(b, -1, d, d ** (n - 1 - j))
        if j != skip:
            arr = mats[:, None, j] @ arr
    return arr.reshape(b, -1) if skip is None else arr.reshape(b, r**skip, d, -1)


def _random_frame(n: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    return q[:, :, :2].transpose(0, 2, 1)


#: Restarts searched together by ``dense_maximize_plane_sum``.
_RESTART_BLOCK = 64

#: Sweeps a restart may take, and the per-sweep gain below which it stops.
_MAX_SWEEPS = 200
_CONVERGED_GAIN = 1e-12


def _search_block(t, seed: int, block: range) -> tuple[np.ndarray, np.ndarray]:
    """Final values, shape (len(block),), and frames, (len(block), n, 2, 3),
    of the restarts in ``block``, all stepped together."""
    n = t.n
    axes = np.stack(
        [
            _random_frame(n, np.random.default_rng((seed, r))) if r else LocalFrame.default(n).axes
            for r in block
        ]
    )
    vals = np.full(len(block), -np.inf)
    active = np.arange(len(block))
    for _ in range(_MAX_SWEEPS):
        frames = axes[active]
        b = len(active)
        # the tensor with parties 0 .. i-1 contracted with their new planes,
        # extended by one party a step
        left = np.broadcast_to(t.entries.reshape(1, 1, 3, -1), (b, 1, 3, 3 ** (n - 1)))
        for i in range(n):
            arr = contract_parties(left, frames, skip=i, done=i)
            mat = arr.transpose(0, 2, 1, 3).reshape(b, 3, -1)
            w, v = np.linalg.eigh(mat @ mat.transpose(0, 2, 1))
            frames[:, i, 0] = v[:, :, -1]
            frames[:, i, 1] = v[:, :, -2]
            val = w[:, -1] + w[:, -2]
            left = frames[:, None, i] @ left.reshape(b, -1, 3, 3 ** (n - 1 - i))
        axes[active] = frames
        converged = val - vals[active] < _CONVERGED_GAIN
        vals[active] = val
        active = active[~converged]
        if not active.size:
            break
    return vals, axes


def dense_maximize_plane_sum(t, restarts: int = 64, seed: int = 0) -> tuple[float, LocalFrame]:
    """Frame search on the 3^n tensor by alternating per-party planes.

    For fixed other-party planes the optimal plane of party i is the span of
    the top two eigenvectors of a 3x3 moment matrix, so each sweep is exact
    per party, and the parties' planes may differ.  Restart 0 starts from the
    default frame and restart r from a random frame seeded by (seed, r).  A
    restart sweeps every party in turn until a sweep gains less than 1e-12,
    at most 200 times; the lowest-index restart with the largest value wins.
    Restarts run as one batch per block of ``_RESTART_BLOCK``.
    """
    best_val = -np.inf
    best_axes = LocalFrame.default(t.n).axes
    for start in range(0, restarts, _RESTART_BLOCK):
        vals, axes = _search_block(t, seed, range(start, min(start + _RESTART_BLOCK, restarts)))
        k = int(np.argmax(vals))  # the first of equal maxima
        if vals[k] > best_val:
            best_val, best_axes = float(vals[k]), axes[k]
    return best_val, LocalFrame(best_axes)


def search_block_from_scratch(t, seed: int, block: range) -> tuple[np.ndarray, np.ndarray]:
    """``_search_block`` with every party step contracting the other
    n-1 parties from the tensor itself, not from the carried left part."""
    n = t.n
    axes = np.stack(
        [
            _random_frame(n, np.random.default_rng((seed, r))) if r else LocalFrame.default(n).axes
            for r in block
        ]
    )
    vals = np.full(len(block), -np.inf)
    active = np.arange(len(block))
    for _ in range(_MAX_SWEEPS):
        frames = axes[active]
        for i in range(n):
            arr = contract_parties(t.entries, frames, skip=i)
            mat = arr.transpose(0, 2, 1, 3).reshape(len(active), 3, -1)
            w, v = np.linalg.eigh(mat @ mat.transpose(0, 2, 1))
            frames[:, i, 0] = v[:, :, -1]
            frames[:, i, 1] = v[:, :, -2]
            val = w[:, -1] + w[:, -2]
        axes[active] = frames
        converged = val - vals[active] < _CONVERGED_GAIN
        vals[active] = val
        active = active[~converged]
        if not active.size:
            break
    return vals, axes
