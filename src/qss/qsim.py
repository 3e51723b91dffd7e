"""Dense simulation primitives for small multiqubit registers.

Conventions used throughout the package:

- Qubit 0 is the most significant bit of the amplitude index, so the
  basis state |10> is amplitude index 2.
- Measurement outcomes are written as +-1 eigenvalues, never as bits.
- All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidDimension,
    InvalidState,
)

MAX_STATE_QUBITS = 20
MAX_DENSITY_QUBITS = 12

ATOL_EXACT = 1e-10
PSD_FLOOR = -1e-9

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

#: The three measurement axes; identity is not a measurement.
AXES = ("X", "Y", "Z")

# Columns are the +1 and -1 eigenvectors of the corresponding Pauli.
EIGENBASIS = {
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}

#: Per-qubit measurement results, each entry +1 or -1.
Outcome = tuple[int, ...]


def _check_axis(axis: str) -> None:
    if axis not in AXES:
        raise InvalidArgument(f"measurement axis must be one of {AXES}, got {axis!r}")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_STATE_QUBITS:
            raise InvalidArgument(
                f"n_qubits must be in [1, {MAX_STATE_QUBITS}], got {self.n_qubits}"
            )
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise InvalidDimension(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        if not abs(np.linalg.norm(amps) - 1.0) <= ATOL_EXACT:  # NaN fails the comparison
            raise InvalidState(f"state norm {np.linalg.norm(amps)} is not 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator on ``n_qubits`` qubits."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_DENSITY_QUBITS:
            raise InvalidArgument(
                f"n_qubits must be in [1, {MAX_DENSITY_QUBITS}], got {self.n_qubits}"
            )
        dim = 2**self.n_qubits
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise InvalidDimension(f"expected shape {(dim, dim)}, got {m.shape}")
        # each check is "not <=" or "not >=", which a NaN fails
        if not abs(np.trace(m).real - 1.0) <= ATOL_EXACT:
            raise InvalidState(f"trace {np.trace(m)} is not 1")
        if not np.abs(m - m.conj().T).max() <= ATOL_EXACT:
            raise InvalidState("density matrix is not Hermitian")
        if not np.linalg.eigvalsh(m).min() >= PSD_FLOOR:
            raise InvalidState("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, one letter per qubit.

    ``axes`` is a string over "IXYZ"; "I" marks qubits outside the support.
    """

    axes: str

    def __post_init__(self):
        if not self.axes or any(c not in "IXYZ" for c in self.axes):
            raise InvalidArgument(f"axes must be a nonempty string over IXYZ, got {self.axes!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)

    @classmethod
    def uniform(cls, axis: str, n: int) -> "PauliString":
        _check_axis(axis)
        return cls(axis * n)


State = Union[PureState, DensityMatrix]


def _apply_one(arr: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one tensor axis of a (2,)*k array: one product
    with the C-order copy of the array whose axes 0 and ``axis`` are swapped.
    A swap is its own inverse and, unlike ``np.moveaxis``, needs no axis
    normalization; every entry is the same two-term sum either way."""
    front = arr.swapaxes(0, axis)
    out = np.dot(mat, front.reshape(2, -1)).reshape(front.shape)
    return out.swapaxes(0, axis)


#: Masks of a Pauli string: ``flip`` marks its X and Y qubits, ``zmask`` its Y and Z.
_FLIP_BIT = str.maketrans("IXYZ", "0110")
_SIGN_BIT = str.maketrans("IXYZ", "0011")


def popcounts(k: int) -> np.ndarray:
    """The Hamming weights of 0 .. 2^k - 1; each doubling adds a top bit."""
    table = np.zeros(1, dtype=np.intp)
    for _ in range(k):
        table = np.concatenate([table, table + 1])
    return table


def expectation(state: PureState, p: PauliString) -> float:
    """Expectation value of a Pauli string, clamped to [-1, 1].  As
    P|x> = i^#Y (-1)^popcount(x & zmask) |x xor flip>, it is one signed gather."""
    n = state.n_qubits
    if p.n_qubits != n:
        raise InvalidDimension(f"Pauli string on {p.n_qubits} qubits, state on {n}")
    src = np.arange(2**n) ^ int(p.axes.translate(_FLIP_BIT), 2)
    parity = popcounts(n)[src & int(p.axes.translate(_SIGN_BIT), 2)] & 1
    phase = (1, 1j, -1, -1j)[p.axes.count("Y") % 4] * (1 - 2 * parity)
    val = np.vdot(state.amplitudes, phase * state.amplitudes[src])
    if abs(val.imag) > ATOL_EXACT:
        raise InvalidState(f"expectation {val} has a nonzero imaginary part")
    return float(min(1.0, max(-1.0, val.real)))


def reduce_state(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the sorted qubit subset ``keep``: one einsum of the
    amplitudes psi and psi* (never |psi><psi|) in which a traced qubit's
    column label equals its row label."""
    keep_set = sorted(set(keep))
    n = state.n_qubits
    if not keep_set:
        raise InvalidArgument("keep set must be nonempty")
    if keep_set[0] < 0 or keep_set[-1] >= n:
        raise InvalidArgument(f"keep indices must be in [0, {n}), got {keep_set}")
    rows = list(range(n))
    cols = [n + q if q in keep_set else q for q in rows]
    out = keep_set + [n + q for q in keep_set]
    psi = state.amplitudes.reshape((2,) * n)
    red = np.einsum(psi, rows, psi.conj(), cols, out)
    k = len(keep_set)
    return DensityMatrix(k, red.reshape(2**k, 2**k))
