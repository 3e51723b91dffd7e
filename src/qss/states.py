"""Carrier and branch states, each a uniform superposition over Hamming-weight
shells, which ``carrier_weights`` alone spells, and the white-noise
admixture. All amplitudes are real and non-negative, which makes state
equality tests phase-unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .qsim import MAX_DENSITY_QUBITS, MAX_STATE_QUBITS, DensityMatrix, PureState, popcounts

#: Carrier families supported by the protocol.
CARRIERS = ("G", "GHZ")


def carrier_weights(carrier: str, n: int) -> tuple[int, int]:
    """The Hamming weights of the n-qubit carrier's shells: 1 and n-1 for G,
    whose multiqubit correlations are weak (one shell, the Bell state, at
    n = 2), and 0 and n for GHZ, whose correlations are strong."""
    if carrier not in CARRIERS:
        raise InvalidArgument(f"carrier must be one of {CARRIERS}, got {carrier!r}")
    if n < 2:
        raise InvalidArgument(f"the carrier needs n >= 2, got {n}")
    return (1, n - 1) if carrier == "G" else (0, n)


def shell_amplitudes(k: int, weights: tuple[int, ...], w: np.ndarray) -> np.ndarray:
    """The amplitudes at Hamming weights ``w`` of the uniform k-qubit
    superposition over the shells ``weights``: 1 over their norm, or 0."""
    shell = np.zeros(k + 1)
    shell[list(weights)] = 1.0 / np.sqrt(float(sum(math.comb(k, v) for v in set(weights))))
    return shell[w]


def _shell_state(k: int, weights: tuple[int, ...]) -> PureState:
    """The uniform superposition of the k-qubit basis states whose Hamming
    weight is in ``weights``."""
    if k > MAX_STATE_QUBITS:
        # before the 2^k amplitudes are allocated
        raise InvalidArgument(f"n_qubits must be in [1, {MAX_STATE_QUBITS}], got {k}")
    return PureState(k, shell_amplitudes(k, weights, popcounts(k)))


def g_state(n: int) -> PureState:
    """The secret-sharing carrier (|W_n> + |Wbar_n>)/sqrt(2)."""
    return carrier_state("G", n)


def carrier_state(carrier: str, n: int) -> PureState:
    """The n-qubit carrier of the chosen family."""
    return _shell_state(n, carrier_weights(carrier, n))


def dicke_vector(carrier: str, n: int) -> np.ndarray:
    """The n-qubit carrier's amplitudes on the normalized Dicke states |D_w>,
    w = 0 .. n the number of 1s: equal on its shells."""
    shells = list(set(carrier_weights(carrier, n)))
    c = np.zeros(n + 1)
    c[shells] = 1.0 / math.sqrt(len(shells))
    return c


def branch_weights(carrier: str, n: int) -> tuple[int, ...]:
    """The shells of Alice's collapse branch |xi> on the other n-1 qubits: the
    carrier's with her qubit read as 0.  Both carriers are flip-invariant, so
    |xibar> = X^(n-1)|xi> sits on the shells n-1-w, disjoint but for G at n = 3."""
    return tuple(w for w in carrier_weights(carrier, n) if w < n)


def branch_y_sign(carrier: str, m: int) -> int:
    """s such that sigma_y on all k = 2m-1 Bobs acts on span{|xi>, |xibar>} as
    s*Y (and sigma_x as X): Y^k|x> = i^k (-1)^|x| |not x>, and each branch's
    shells share one weight parity, so s = (-1)^m for G, (-1)^(m+1) for GHZ."""
    return (-1) ** (m - 1 + branch_weights(carrier, 2 * m)[0])


def carrier_branch(carrier: str, m: int) -> PureState:
    """Alice's collapse branch |xi> on the 2m-1 Bobs (rdm's v0 at n = 2m for G,
    |0...0> for GHZ); |xibar> = X^(2m-1)|xi> is |xi> in reverse index order."""
    return _shell_state(2 * m - 1, branch_weights(carrier, 2 * m))


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
