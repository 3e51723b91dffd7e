"""Local-realism analyzers: Horodecki criterion, correlation tensors,
two-setting sufficiency sums, collapse visibility, and noise thresholds.

Tensor axes are ordered (x, y, z) = (0, 1, 2) per party, parties in register
order, stored dense as a (3,)*n array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import plane_axes, plane_model, refine_block
from .errors import BudgetExceeded, InvalidArgument, InvalidDimension, InvalidState
from .qsim import ATOL_EXACT, AXES, PAULI, DensityMatrix, PureState, State

__all__ = [
    "CorrelationTensor",
    "ThresholdReport",
    "horodecki_m",
    "check_tensor_qubits",
    "correlation_tensor",
    "plane_sum",
    "full_sum",
    "plane_sum_upper_bound",
    "maximize_plane_sum",
    "collapse_visibility",
    "crit_noise_g",
    "crit_noise_ghz",
    "crossover_scan",
    "lr_sufficiency_thresholds",
]

MAX_TENSOR_QUBITS = 8

# Entry [a, 2r + c] is sigma_a[c, r], so contracting a qubit's paired (row,
# column) axis of rho with row a gives the partial trace against sigma_a.
_PAULI_ROWS = np.stack([PAULI[a].T.reshape(4) for a in AXES])


@dataclass(frozen=True)
class CorrelationTensor:
    """Full N-party Pauli correlation tensor T_{x1...xN}."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.array(self.entries, dtype=float)
        if ent.shape != (3,) * self.n:
            raise InvalidDimension(f"expected shape {(3,) * self.n}, got {ent.shape}")
        if not (np.abs(ent) <= 1.0 + 1e-9).all():  # NaN fails the comparison
            raise InvalidArgument("tensor entries must lie in [-1, 1]")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)


def horodecki_m(rho: DensityMatrix) -> float:
    """M(rho): sum of the two largest eigenvalues of T^T T.

    The state violates some CHSH inequality iff M > 1; the maximal CHSH
    value is 2 sqrt(M).
    """
    if rho.n_qubits != 2:
        raise InvalidDimension(f"expected a 2-qubit state, got {rho.n_qubits} qubits")
    t = correlation_tensor(rho).entries
    vals = np.linalg.eigvalsh(t.T @ t)  # ascending
    return float(vals[-1] + vals[-2])


def check_tensor_qubits(n: int) -> None:
    """Refuse a tensor of more than ``MAX_TENSOR_QUBITS`` parties."""
    if n > MAX_TENSOR_QUBITS:
        raise BudgetExceeded(f"correlation tensor capped at n <= {MAX_TENSOR_QUBITS}")


def correlation_tensor(state: State) -> CorrelationTensor:
    """Dense correlation tensor of a pure or mixed n-qubit state, n <= 8.

    One Pauli transform, O(n 4^n): each qubit's (row, column) axis pair of
    rho is contracted once with the three Paulis.
    """
    n = state.n_qubits
    check_tensor_qubits(n)
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    # axes (r0, c0, r1, c1, ...), each qubit's pair merged into one axis of 4
    order = [ax for q in range(n) for ax in (q, n + q)]
    arr = rho.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)
    for j in range(n):
        # axes (parties done, next party, parties to come)
        arr = _PAULI_ROWS @ arr.reshape(-1, 4, 4 ** (n - 1 - j))
    arr = arr.reshape((3,) * n)
    if np.abs(arr.imag).max() > ATOL_EXACT:
        raise InvalidState("correlation tensor has a nonzero imaginary part")
    # + 0.0 turns the -0.0 that roundoff leaves on zero entries into 0.0
    return CorrelationTensor(n, np.clip(arr.real, -1.0, 1.0) + 0.0)


def plane_sum(t: CorrelationTensor) -> float:
    """Sum of squared tensor entries with every index in the protocol's fixed
    sigma_x / sigma_y plane."""
    return float((t.entries[(slice(2),) * t.n] ** 2).sum())


def full_sum(t: CorrelationTensor) -> float:
    """Sum of all 3^n squared entries; invariant under local rotations."""
    return float((t.entries**2).sum())


def plane_sum_upper_bound(t: CorrelationTensor) -> float:
    """Certified upper bound on the plane sum in every local frame.

    Party i's two directions meet the other parties' contraction, a partial
    isometry, applied to its 3 x 3^(n-1) unfolding T_(i); so any frame's
    plane sum is at most the sum of the two largest eigenvalues of
    T_(i) T_(i)^T.  The bound is the least of these over the parties.
    """
    unfold = np.stack([np.moveaxis(t.entries, i, 0).reshape(3, -1) for i in range(t.n)])
    w = np.linalg.eigvalsh(unfold @ unfold.transpose(0, 2, 1))
    return float((w[:, -1] + w[:, -2]).min())


#: Restarts a frame search may ask for: 3,907 blocks, about 90 s at n = 8
#: (about 23 ms a block on a 2-core VM).
MAX_RESTARTS = 10**6

#: Restarts refined together.  A block's arrays hold a few dozen (n+1)-entry
#: vectors per restart, whatever the restart count.
_RESTART_BLOCK = 256


def _check_search_flags(restarts: int, seed: int) -> None:
    """Refuse a frame search's restart count or seed outside its domain."""
    if not 1 <= restarts <= MAX_RESTARTS:
        raise InvalidArgument(f"restarts must be in [1, {MAX_RESTARTS}], got {restarts}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")


def maximize_plane_sum(
    dicke: np.ndarray, visibility: float = 1.0, restarts: int = 64, seed: int = 0
) -> tuple[float, np.ndarray]:
    """Best plane sum over the frames in which every party measures in one
    plane.

    ``dicke`` is a permutation-symmetric state's amplitudes on the Dicke
    states |D_w>, w = 0 .. n the number of 1s; white noise to ``visibility``
    p scales every plane sum by p^2.  Rotating every party alike keeps the
    state symmetric, so the search runs on its rotated n + 1 Dicke
    amplitudes: neither a 2^n density nor the 3^n tensor enters.  A
    shared-plane frame is a frame, so the value is a certified lower bound on
    the maximum over all local frames.

    Restart 0 starts from the z normal, the default sigma_x / sigma_y frame,
    and the others from normals drawn from ``default_rng(seed)``.  Each takes
    trust-region Newton steps on the sphere until the quadratic model
    promises less than 1e-14 max(1, value), at most 100 steps; the first
    restart with the largest value wins.  Restarts are refined together,
    ``_RESTART_BLOCK`` at a time.  The frame, shape (n, 2, 3), is the winning
    plane's e_theta, e_phi for every party.
    """
    _check_search_flags(restarts, seed)
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgument(f"visibility must be in [0, 1], got {visibility}")
    dicke = np.asarray(dicke, dtype=complex)
    if dicke.ndim != 1 or dicke.size < 2:
        raise InvalidDimension(f"expected a Dicke vector of n + 1 >= 2 entries, got {dicke.shape}")
    if not abs(np.linalg.norm(dicke) - 1.0) <= 1e-10:  # NaN fails the comparison
        raise InvalidArgument("Dicke vector must have unit norm")
    model = plane_model(dicke)
    rng = np.random.default_rng(seed)
    best_val, best = -np.inf, (0.0, 0.0)
    for start in range(0, restarts, _RESTART_BLOCK):
        vals, th, ph = refine_block(model, rng, range(start, min(start + _RESTART_BLOCK, restarts)))
        k = int(np.argmax(vals))  # the first of equal maxima
        if vals[k] > best_val:
            best_val, best = float(vals[k]), (float(th[k]), float(ph[k]))
    return visibility**2 * best_val, np.broadcast_to(plane_axes(*best), (dicke.size - 1, 2, 3))


def collapse_visibility(n: int, p: float) -> float:
    """Werner visibility of the two-qubit state left after n-2 parties
    project the noisy n-qubit carrier onto a uniform sigma_z pattern."""
    if n < 4:
        raise InvalidArgument(f"collapse analysis needs n >= 4, got {n}")
    if not 0.0 < p <= 1.0:
        # at p = 0 the pure branch vanishes and the Werner fit degenerates
        raise InvalidArgument(f"visibility must be in (0, 1], got {p}")
    return 1.0 / (1.0 + (1.0 - p) * n / (p * 2 ** (n - 2)))


def crit_noise_g(n: int) -> float:
    """Visibility above which the noisy G carrier has no LR model
    (via the collapsed two-qubit Werner state)."""
    if n < 4:
        raise InvalidArgument(f"threshold defined for n >= 4, got {n}")
    return n / (n + (math.sqrt(2.0) - 1.0) * 2 ** (n - 2))


def crit_noise_ghz(n: int) -> float:
    """Visibility above which the noisy GHZ state violates the full
    two-setting correlation inequalities: 1/sqrt(2^(n-1))."""
    if n < 4:
        raise InvalidArgument(f"threshold defined for n >= 4, got {n}")
    return 1.0 / math.sqrt(2 ** (n - 1))


#: Largest n whose thresholds are computable: 2^(n-1) must fit a double.
_MAX_SCAN_N = 1024


@dataclass(frozen=True)
class ThresholdReport:
    n: int
    p_crit_g: float
    q_crit_ghz: float
    g_more_robust: bool


def crossover_scan(n_min: int, n_max: int) -> list[ThresholdReport]:
    """Critical visibilities over a range of qubit counts.

    ``g_more_robust`` flags p_crit_g < q_crit_ghz, i.e. the G carrier keeps
    its (collapse-based) nonclassicality at lower visibility than the GHZ
    carrier tolerates; the flip happens between n = 12 and n = 13.
    """
    if n_min < 4 or n_max < n_min or n_max > _MAX_SCAN_N:
        raise InvalidArgument(f"need 4 <= n_min <= n_max <= {_MAX_SCAN_N}")
    reports = []
    for n in range(n_min, n_max + 1):
        p = crit_noise_g(n)
        q = crit_noise_ghz(n)
        reports.append(ThresholdReport(n, p, q, p < q))
    return reports


def lr_sufficiency_thresholds() -> tuple[float, float]:
    """The fixed-frame LR-sufficiency bound for the noisy 6-qubit G carrier
    and the violation threshold of the noisy 6-qubit GHZ state."""
    return math.sqrt(3.0 / 16.0), 1.0 / math.sqrt(32.0)


#: Visibility below which the noisy 6-qubit G carrier has an LR model in
#: every local frame (from the full squared-tensor sum 23).
G6_ANY_FRAME_BOUND = 1.0 / math.sqrt(23.0)
