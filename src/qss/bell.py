"""Local-realism analyzers: Horodecki criterion, correlation tensors,
two-setting sufficiency sums, collapse visibility, and noise thresholds.

Tensor axes are ordered (x, y, z) = (0, 1, 2) per party, parties in register
order, stored dense as a (3,)*n array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidArgument, InvalidDimension, InvalidState
from .qsim import ATOL_EXACT, AXES, PAULI, DensityMatrix, PureState, State

__all__ = [
    "CorrelationTensor",
    "LocalFrame",
    "ThresholdReport",
    "horodecki_m",
    "correlation_tensor",
    "plane_sum",
    "full_sum",
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


@dataclass(frozen=True)
class LocalFrame:
    """Per-party orthonormal direction pair spanning the measurement plane.

    ``axes`` has shape (n, 2, 3): axes[i, 0] and axes[i, 1] are party i's two
    unit directions.
    """

    axes: np.ndarray

    def __post_init__(self):
        ax = np.array(self.axes, dtype=float)
        if ax.ndim != 3 or ax.shape[1:] != (2, 3):
            raise InvalidDimension(f"expected shape (n, 2, 3), got {ax.shape}")
        norms = np.linalg.norm(ax, axis=2)
        if not np.abs(norms - 1.0).max() <= 1e-10:  # NaN fails the comparison
            raise InvalidArgument("frame directions must be unit vectors")
        dots = np.einsum("ik,ik->i", ax[:, 0], ax[:, 1])
        if not np.abs(dots).max() <= 1e-10:
            raise InvalidArgument("frame direction pairs must be orthogonal")
        ax.flags.writeable = False
        object.__setattr__(self, "axes", ax)

    @property
    def n(self) -> int:
        return self.axes.shape[0]

    @classmethod
    def default(cls, n: int) -> "LocalFrame":
        """The protocol's fixed sigma_x / sigma_y plane for every party."""
        ax = np.zeros((n, 2, 3))
        ax[:, 0, 0] = 1.0
        ax[:, 1, 1] = 1.0
        return cls(ax)


def horodecki_m(rho: DensityMatrix) -> float:
    """M(rho): sum of the two largest eigenvalues of T^T T.

    The state violates some CHSH inequality iff M > 1; the maximal CHSH
    value is 2 sqrt(M).
    """
    if rho.n_qubits != 2:
        raise InvalidDimension(f"expected a 2-qubit state, got {rho.n_qubits} qubits")
    t = correlation_tensor(rho).entries
    vals = np.sort(np.linalg.eigvalsh(t.T @ t))
    return float(vals[-1] + vals[-2])


def correlation_tensor(state: State) -> CorrelationTensor:
    """Dense correlation tensor of a pure or mixed n-qubit state, n <= 8.

    One Pauli transform, O(n 4^n): each qubit's (row, column) axis pair of
    rho is contracted once with the three Paulis.
    """
    n = state.n_qubits
    if n > MAX_TENSOR_QUBITS:
        raise BudgetExceeded(f"correlation tensor capped at n <= {MAX_TENSOR_QUBITS}")
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    # axes (r0, c0, r1, c1, ...), each qubit's pair merged into one axis of 4
    order = [ax for q in range(n) for ax in (q, n + q)]
    arr = rho.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)
    arr = _contract_parties(arr, np.broadcast_to(_PAULI_ROWS, (1, n, 3, 4))).reshape((3,) * n)
    if np.abs(arr.imag).max() > ATOL_EXACT:
        raise InvalidState("correlation tensor has a nonzero imaginary part")
    # + 0.0 turns the -0.0 that roundoff leaves on zero entries into 0.0
    return CorrelationTensor(n, np.clip(arr.real, -1.0, 1.0) + 0.0)


def _contract_parties(
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


def plane_sum(t: CorrelationTensor, frame: LocalFrame | None = None) -> float:
    """Sum of squared tensor entries with every index in the frame's plane.

    The default frame is the protocol's fixed sigma_x / sigma_y axes.
    """
    if frame is None:
        frame = LocalFrame.default(t.n)
    if frame.n != t.n:
        raise InvalidDimension("frame party count does not match tensor")
    return float((_contract_parties(t.entries, frame.axes[None]) ** 2).sum())


def full_sum(t: CorrelationTensor) -> float:
    """Sum of all 3^n squared entries; invariant under local rotations."""
    return float((t.entries**2).sum())


def _random_frame(n: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    return q[:, :, :2].transpose(0, 2, 1)


#: Restarts a frame search may ask for: 15,625 blocks, about 3 hours at
#: n = 8 (0.64 s a block on a 2-core VM).
MAX_RESTARTS = 10**6

#: Restarts searched together.  One block's working arrays hold at most
#: 2 * 3^(n-1) doubles per restart (35 KB at n = 8), whatever the restart count.
_RESTART_BLOCK = 64

#: Sweeps a restart may take, and the per-sweep gain below which it stops.
_MAX_SWEEPS = 200
_CONVERGED_GAIN = 1e-12


def _search_block(t: CorrelationTensor, seed: int, block: range) -> tuple[np.ndarray, np.ndarray]:
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
            arr = _contract_parties(left, frames, skip=i, done=i)
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


def maximize_plane_sum(
    t: CorrelationTensor, restarts: int = 64, seed: int = 0
) -> tuple[float, LocalFrame]:
    """Heuristic frame search: alternating per-party plane optimization.

    For fixed other-party planes the optimal plane of party i is the span of
    the top two eigenvectors of a 3x3 moment matrix, so each sweep is exact
    per party.  The value returned is a certified lower bound on the true
    maximum over all local frames.

    Restart 0 starts from the default frame and restart r from a random frame
    seeded by (seed, r).  A restart sweeps every party in turn until a sweep
    gains less than 1e-12, at most 200 times; the lowest-index restart with
    the largest value wins.  Restarts run as one batch per block of
    ``_RESTART_BLOCK``.
    """
    if not 1 <= restarts <= MAX_RESTARTS:
        raise InvalidArgument(f"restarts must be in [1, {MAX_RESTARTS}], got {restarts}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    best_val = -np.inf
    best_axes = LocalFrame.default(t.n).axes
    for start in range(0, restarts, _RESTART_BLOCK):
        vals, axes = _search_block(t, seed, range(start, min(start + _RESTART_BLOCK, restarts)))
        k = int(np.argmax(vals))  # the first of equal maxima
        if vals[k] > best_val:
            best_val, best_axes = float(vals[k]), axes[k]
    return best_val, LocalFrame(best_axes)


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
