"""Carrier and branch states, each a uniform superposition over Hamming-weight
shells, and the white-noise admixture. All amplitudes are real and
non-negative, which makes state equality tests phase-unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .qsim import MAX_DENSITY_QUBITS, MAX_STATE_QUBITS, DensityMatrix, PureState

#: Carrier families supported by the protocol.
CARRIERS = ("G", "GHZ")


def _shell_state(k: int, weights: tuple[int, ...]) -> PureState:
    """The uniform superposition of the k-qubit basis states whose Hamming
    weight is in ``weights``."""
    if k > MAX_STATE_QUBITS:
        # before the 2^k amplitudes are allocated
        raise InvalidArgument(f"n_qubits must be in [1, {MAX_STATE_QUBITS}], got {k}")
    # popcount[x] is the Hamming weight of x; each doubling adds a top bit
    popcount = np.zeros(1, dtype=np.intp)
    for _ in range(k):
        popcount = np.concatenate([popcount, popcount + 1])
    shell = np.zeros(k + 1, dtype=complex)
    shell[list(weights)] = 1.0
    count = sum(math.comb(k, w) for w in set(weights))
    return PureState(k, shell[popcount] / np.sqrt(float(count)))


def g_state(n: int) -> PureState:
    """The secret-sharing carrier (|W_n> + |Wbar_n>)/sqrt(2), on weights 1 and
    n-1. For n = 2 both are weight 1: the Bell state (|01> + |10>)/sqrt(2)."""
    if n < 2:
        raise InvalidArgument(f"g_state needs n >= 2, got {n}")
    return _shell_state(n, (1, n - 1))


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2), on weights 0 and n."""
    if n < 2:
        raise InvalidArgument(f"ghz_state needs n >= 2, got {n}")
    return _shell_state(n, (0, n))


def carrier_state(carrier: str, n: int) -> PureState:
    """The n-qubit carrier of the chosen family."""
    if carrier not in CARRIERS:
        raise InvalidArgument(f"carrier must be one of {CARRIERS}, got {carrier!r}")
    return g_state(n) if carrier == "G" else ghz_state(n)


def branch_weights(carrier: str, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Hamming-weight shells of Alice's collapse branches |xi>, |xibar> on
    the k = 2m-1 Bob qubits: (1, k) and (k-1, 0) for G, (0,) and (k,) for GHZ.
    The two sets are disjoint and hold equally many basis states, so the
    branches are orthonormal."""
    if carrier not in CARRIERS:
        raise InvalidArgument(f"carrier must be one of {CARRIERS}, got {carrier!r}")
    if m < 1:
        raise InvalidArgument(f"m must be >= 1, got {m}")
    k = 2 * m - 1
    return ((1, k), (k - 1, 0)) if carrier == "G" else ((0,), (k,))


def branch_y_sign(carrier: str, m: int) -> int:
    """s such that sigma_y on all k = 2m-1 Bobs acts on span{|xi>, |xibar>} as
    s*Y (and sigma_x as X): Y^k|x> = i^k (-1)^|x| |not x>, and each branch's
    shells share one weight parity, so s = (-1)^m for G, (-1)^(m+1) for GHZ."""
    xi, _ = branch_weights(carrier, m)
    return (-1) ** (m - 1 + xi[0])


def make_carrier_branches(carrier: str, m: int) -> tuple[PureState, PureState]:
    """Alice's collapse branches (|xi>, |xibar>) on the 2m-1 Bob qubits.

    For the G carrier they are the vectors v0, v1 of the marginal analysis at
    n = 2m; for the GHZ carrier, the all-0 and all-1 product states.
    """
    xi, xibar = branch_weights(carrier, m)
    return _shell_state(2 * m - 1, xi), _shell_state(2 * m - 1, xibar)


@dataclass(frozen=True)
class NoisyState:
    """Visibility-p mixture of a pure state with white noise."""

    realized: DensityMatrix


def add_white_noise(s: PureState, p: float) -> NoisyState:
    """p |s><s| + (1-p) I / 2^n."""
    if not 0.0 <= p <= 1.0:
        raise InvalidArgument(f"visibility must be in [0, 1], got {p}")
    if s.n_qubits > MAX_DENSITY_QUBITS:
        # before the 2^n x 2^n matrix is allocated
        raise InvalidArgument(f"n_qubits must be in [1, {MAX_DENSITY_QUBITS}], got {s.n_qubits}")
    dim = 2**s.n_qubits
    mat = p * np.outer(s.amplitudes, s.amplitudes.conj()) + (1.0 - p) * np.eye(dim) / dim
    return NoisyState(DensityMatrix(s.n_qubits, mat))
