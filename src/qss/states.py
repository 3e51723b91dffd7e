"""Constructors for the named carrier states and the white-noise admixture.

All constructors use real non-negative amplitudes on their lexicographically
smallest contributing basis state, which makes state equality tests
phase-unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .qsim import MAX_DENSITY_QUBITS, MAX_STATE_QUBITS, DensityMatrix, PureState, make_basis_state

#: Carrier families supported by the protocol.
CARRIERS = ("G", "GHZ")


def _check_qubits(n: int, cap: int = MAX_STATE_QUBITS) -> None:
    """Refuse a register that PureState (or DensityMatrix, with cap =
    MAX_DENSITY_QUBITS) would reject, before allocating it."""
    if n > cap:
        raise InvalidArgument(f"n_qubits must be in [1, {cap}], got {n}")


def _single_one_amps(k: int) -> np.ndarray:
    """Unnormalized sum of all k basis states with exactly one 1."""
    _check_qubits(k)
    amps = np.zeros(2**k, dtype=complex)
    for j in range(k):
        amps[1 << (k - 1 - j)] += 1.0
    return amps


def _single_zero_amps(k: int) -> np.ndarray:
    """Unnormalized sum of all k basis states with exactly one 0: the bit
    flip of ``_single_one_amps``, which reverses the index order."""
    return _single_one_amps(k)[::-1].copy()


def g_state(n: int) -> PureState:
    """The secret-sharing carrier: (|W_n> + |Wbar_n>)/sqrt(2).

    For n = 2 the two-term construction degenerates (W_2 equals Wbar_2), so
    the state is defined directly as the Bell state (|01> + |10>)/sqrt(2).
    """
    if n < 2:
        raise InvalidArgument(f"g_state needs n >= 2, got {n}")
    if n == 2:
        amps = np.zeros(4, dtype=complex)
        amps[1] = amps[2] = 1.0 / np.sqrt(2.0)
        return PureState(2, amps)
    amps = (_single_one_amps(n) + _single_zero_amps(n)) / np.sqrt(2.0 * n)
    return PureState(n, amps)


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise InvalidArgument(f"ghz_state needs n >= 2, got {n}")
    _check_qubits(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


def v_states(n: int) -> tuple[PureState, PureState]:
    """The pair (|v_0>, |v_1>) on n-1 qubits used by the marginal analysis.

    |v_0> collects all single-excitation states plus |1...1>, |v_1> is its
    bit flip; both carry the 1/sqrt(n) prefactor (n terms each).
    """
    if n < 3:
        raise InvalidArgument(f"v_states needs n >= 3, got {n}")
    k = n - 1
    a0 = _single_one_amps(k)
    a0[2**k - 1] += 1.0
    a1 = _single_zero_amps(k)
    a1[0] += 1.0
    return PureState(k, a0 / np.sqrt(n)), PureState(k, a1 / np.sqrt(n))


def carrier_state(carrier: str, n: int) -> PureState:
    """The n-qubit carrier of the chosen family."""
    if carrier not in CARRIERS:
        raise InvalidArgument(f"carrier must be one of {CARRIERS}, got {carrier!r}")
    return g_state(n) if carrier == "G" else ghz_state(n)


def make_carrier_branches(carrier: str, m: int) -> tuple[PureState, PureState]:
    """Alice's collapse branches (|xi>, |xibar>) on the 2m-1 Bob qubits.

    For the G carrier they are ``v_states(2m)``; for the GHZ carrier, the
    all-0 and all-1 product states.
    """
    if carrier not in CARRIERS:
        raise InvalidArgument(f"carrier must be one of {CARRIERS}, got {carrier!r}")
    if m < 1:
        raise InvalidArgument(f"m must be >= 1, got {m}")
    k = 2 * m - 1
    if carrier == "GHZ":
        return make_basis_state(k, "0" * k), make_basis_state(k, "1" * k)
    if m == 1:
        # single-qubit reduction: the two terms coincide
        return make_basis_state(1, "1"), make_basis_state(1, "0")
    return v_states(2 * m)


@dataclass(frozen=True)
class NoisyState:
    """Visibility-p mixture of a pure state with white noise."""

    base: PureState
    visibility: float
    realized: DensityMatrix


def add_white_noise(s: PureState, p: float) -> NoisyState:
    """p |s><s| + (1-p) I / 2^n."""
    if not 0.0 <= p <= 1.0:
        raise InvalidArgument(f"visibility must be in [0, 1], got {p}")
    _check_qubits(s.n_qubits, MAX_DENSITY_QUBITS)
    dim = 2**s.n_qubits
    mat = p * np.outer(s.amplitudes, s.amplitudes.conj()) + (1.0 - p) * np.eye(dim) / dim
    return NoisyState(s, p, DensityMatrix(s.n_qubits, mat))

