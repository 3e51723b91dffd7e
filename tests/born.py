"""Dense oracles: basis states, projective collapse and Born tables.

``outcome_probabilities`` rotates each measured qubit of a pure state into
its measurement eigenbasis and reads off |amplitude|^2: the exponential
reference that the protocol's outcome laws and ``exact_mutual_info_ab``'s
joint law are checked against.  ``project`` collapses a full register onto
one outcome pattern: the reference for the two-qubit states that ``attack``
reads off the branch span.
"""

from typing import Sequence

import numpy as np

from qss.errors import InvalidArgument, InvalidDimension
from qss.qsim import (
    EIGENBASIS,
    MAX_STATE_QUBITS,
    PauliString,
    PureState,
    _apply_one,
    _check_axis,
)

PROB_FLOOR = 1e-12


class ZeroProbabilityBranch(Exception):
    """Projection onto a branch whose probability is below the zero threshold."""


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
