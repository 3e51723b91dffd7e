"""Dense Born-table oracle for the outcome laws of Pauli-basis measurements.

``outcome_probabilities`` rotates each measured qubit of a pure state into
its measurement eigenbasis and reads off |amplitude|^2: the exponential
reference that the protocol's outcome laws and ``exact_mutual_info_ab``'s
joint law are checked against.
"""

import numpy as np

from qss.errors import InvalidDimension
from qss.qsim import EIGENBASIS, PauliString, PureState, _apply_one


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
