"""Reduced-density-matrix analysis of the carrier states.

The uniqueness check never represents environment vectors explicitly: any
state whose (n-1)-party marginal on parties {1..n-1} matches the carrier can
be written as a superposition of |v_0> and |v_1> with environment blocks
spanned by four vectors e_00, e_01, e_10, e_11, and every physical
constraint (orthonormality of the environment states plus the {2..n}
marginal equation) is linear in their 4x4 Gram matrix.  Uniqueness of the
carrier therefore reduces to a rank condition on a small linear system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InternalInconsistency, InvalidArgument
from .qsim import MAX_DENSITY_QUBITS, DensityMatrix, State, make_basis_state, reduce_state
from .states import ghz_state, v_states

__all__ = [
    "MarginalSet",
    "GramSolution",
    "marginal_set",
    "marginals_match",
    "trace_distance",
    "ghz_counterexample_check",
    "g_uniqueness_check",
]

_RESIDUAL_TOL = 1e-9
_NULLSPACE_REL_TOL = 1e-8


@dataclass(frozen=True)
class MarginalSet:
    """All n single-party-deleted reduced states, keyed by the left-out qubit."""

    n: int
    marginals: dict[int, DensityMatrix]


@dataclass(frozen=True)
class GramSolution:
    """Result of the marginal-determination check for one qubit count."""

    gram: np.ndarray  # 4x4 Hermitian Gram of (e00, e01, e10, e11)
    residual: float
    forced_product: bool
    nullspace_dim: int


def marginal_set(state: State) -> MarginalSet:
    """The n reduced states obtained by tracing out each single party."""
    n = state.n_qubits
    if n < 3:
        raise InvalidArgument(f"marginal analysis needs n >= 3, got {n}")
    marginals = {
        j: reduce_state(state, [q for q in range(n) if q != j]) for j in range(n)
    }
    return MarginalSet(n, marginals)


def marginals_match(a: MarginalSet, b: MarginalSet, tol: float = 1e-10) -> bool:
    if a.n != b.n:
        return False
    return all(
        np.abs(a.marginals[j].matrix - b.marginals[j].matrix).max() <= tol
        for j in range(a.n)
    )


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) ||a - b||_1."""
    if a.n_qubits != b.n_qubits:
        raise InvalidArgument("states must share a qubit count")
    vals = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(vals).sum())


def ghz_counterexample_check(n: int) -> bool:
    """True iff the classical |0..0>/|1..1> mixture reproduces every
    (n-1)-party marginal of the GHZ state while the full states differ."""
    if n < 3:
        raise InvalidArgument(f"need n >= 3, got {n}")
    ghz = ghz_state(n)
    z0 = make_basis_state(n, "0" * n)
    z1 = make_basis_state(n, "1" * n)
    mixture = DensityMatrix(n, 0.5 * (z0.density().matrix + z1.density().matrix))
    same_marginals = marginals_match(marginal_set(ghz), marginal_set(mixture))
    return same_marginals and trace_distance(ghz.density(), mixture) > 0.4


def _insert_bit(y: int, n: int, pos: int, bit: int) -> int:
    """Insert one bit at qubit ``pos`` (MSB-first) into an (n-1)-bit index."""
    low_width = n - 1 - pos
    high = y >> low_width
    low = y & ((1 << low_width) - 1)
    return (high << (low_width + 1)) | (bit << low_width) | low


def _coefficient_vectors(n: int) -> np.ndarray:
    """W[z] in R^4: the (e00, e01, e10, e11) coefficients of the environment
    block attached to computational basis state z of qubits 1..n."""
    v0, v1 = v_states(n)
    a0 = v0.amplitudes.real
    a1 = v1.amplitudes.real
    w = np.zeros((2**n, 4))
    for z in range(2**n):
        zp, b = z >> 1, z & 1
        if b == 0:
            w[z, 0] = a0[zp]
            w[z, 2] = a1[zp]
        else:
            w[z, 1] = a0[zp]
            w[z, 3] = a1[zp]
    return w / np.sqrt(2.0)


def _hermitian_from_params(theta: np.ndarray) -> np.ndarray:
    """Map 16 real parameters to a 4x4 Hermitian matrix."""
    g = np.zeros((4, 4), dtype=complex)
    k = 0
    for a in range(4):
        g[a, a] = theta[k]
        k += 1
    for a in range(4):
        for b in range(a + 1, 4):
            g[a, b] += theta[k]
            g[b, a] += theta[k]
            k += 1
            g[a, b] += 1j * theta[k]
            g[b, a] += -1j * theta[k]
            k += 1
    return g


def _constraint_system(n: int, traced_party: int) -> tuple[np.ndarray, np.ndarray]:
    """Real linear system A theta = b encoding the marginal equation obtained
    by tracing out ``traced_party`` plus environment orthonormality."""
    v0, v1 = v_states(n)
    a0 = v0.amplitudes.real
    a1 = v1.amplitudes.real
    w = _coefficient_vectors(n)
    half = 2 ** (n - 1)

    ins0 = np.array([_insert_bit(y, n, traced_party, 0) for y in range(half)])
    ins1 = np.array([_insert_bit(y, n, traced_party, 1) for y in range(half)])
    w0 = w[ins0]  # (half, 4)
    w1 = w[ins1]

    ys, yps = np.triu_indices(half)
    # C[pair, a, b] = sum_bit w[(bit, y')][a] * w[(bit, y)][b]
    c = np.einsum("pa,pb->pab", w0[yps], w0[ys]) + np.einsum(
        "pa,pb->pab", w1[yps], w1[ys]
    )
    target = 0.5 * (a0[ys] * a0[yps] + a1[ys] * a1[yps])

    n_pairs = ys.size
    rows_re = np.zeros((n_pairs, 16))
    rows_im = np.zeros((n_pairs, 16))
    k = 0
    for a in range(4):
        rows_re[:, k] = c[:, a, a]
        k += 1
    for a in range(4):
        for b in range(a + 1, 4):
            rows_re[:, k] = c[:, a, b] + c[:, b, a]
            k += 1
            rows_im[:, k] = c[:, a, b] - c[:, b, a]
            k += 1

    # orthonormality of E_0 and E_1 in the same parametrization
    ortho = np.zeros((4, 16))
    ortho_rhs = np.zeros(4)
    diag_idx = {a: a for a in range(4)}
    off_idx = {}
    k = 4
    for a in range(4):
        for b in range(a + 1, 4):
            off_idx[(a, b)] = (k, k + 1)  # (real part, imag part)
            k += 2
    ortho[0, diag_idx[0]] = 1.0
    ortho[0, diag_idx[1]] = 1.0
    ortho_rhs[0] = 1.0  # <E0|E0> = g00 + g11 = 1
    ortho[1, diag_idx[2]] = 1.0
    ortho[1, diag_idx[3]] = 1.0
    ortho_rhs[1] = 1.0  # <E1|E1> = g22 + g33 = 1
    re02, im02 = off_idx[(0, 2)]
    re13, im13 = off_idx[(1, 3)]
    ortho[2, re02] = 1.0
    ortho[2, re13] = 1.0  # Re <E0|E1> = 0
    ortho[3, im02] = 1.0
    ortho[3, im13] = 1.0  # Im <E0|E1> = 0

    a_mat = np.vstack([rows_re, rows_im, ortho])
    b_vec = np.concatenate([target, np.zeros(n_pairs), ortho_rhs])
    return a_mat, b_vec


def _trivial_theta() -> np.ndarray:
    """Parameters of the product-solution Gram: e00 = e11 unit, e01 = e10 = 0."""
    theta = np.zeros(16)
    theta[0] = 1.0  # <e00|e00>
    theta[3] = 1.0  # <e11|e11>
    # real part of the (0, 3) off-diagonal entry
    k = 4
    for a in range(4):
        for b in range(a + 1, 4):
            if (a, b) == (0, 3):
                theta[k] = 1.0
            k += 2
    return theta


def g_uniqueness_check(n: int, traced_parties: tuple[int, ...] = (0,)) -> GramSolution:
    """Does matching every (n-1)-party marginal force the pure carrier?

    Builds the Gram-matrix linear system from the marginal equations for the
    given traced-out parties (party n-1's marginal is already encoded in the
    ansatz itself) and reports the nullspace dimension: zero nullspace means
    the only solution is the product of the carrier with an environment
    state.
    """
    if n < 3:
        raise InvalidArgument(f"uniqueness check needs n >= 3, got {n}")
    if n > MAX_DENSITY_QUBITS:
        # two rows per pair of (n-1)-qubit indices: 8.4M pairs, several GiB, at n = 13
        raise BudgetExceeded(f"uniqueness check capped at n <= {MAX_DENSITY_QUBITS}")
    blocks = [_constraint_system(n, j) for j in traced_parties]
    a_mat = np.vstack([a for a, _ in blocks])
    b_vec = np.concatenate([b for _, b in blocks])

    theta_triv = _trivial_theta()
    residual = float(np.abs(a_mat @ theta_triv - b_vec).max())
    if residual > 1e-6:
        raise InternalInconsistency(
            f"the carrier itself fails its own marginal constraints (residual {residual})"
        )
    svals = np.linalg.svd(a_mat, compute_uv=False)
    tol = _NULLSPACE_REL_TOL * svals[0]
    nullspace_dim = int((svals < tol).sum())
    forced = nullspace_dim == 0 and residual < _RESIDUAL_TOL
    return GramSolution(
        gram=_hermitian_from_params(theta_triv),
        residual=residual,
        forced_product=forced,
        nullspace_dim=nullspace_dim,
    )
