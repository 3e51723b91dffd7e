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
from .states import branch_weights, shell_amplitudes

__all__ = [
    "GramSolution",
    "marginal_set",
    "ghz_counterexample_check",
    "g_uniqueness_check",
]

_RESIDUAL_TOL = 1e-9
_MARGINAL_TOL = 1e-10
_NULLSPACE_REL_TOL = 1e-8

#: Largest n: basis indices of the n-qubit register are carried as uint64.
_MAX_QUBITS = np.iinfo(np.uint64).bits


def _hermitian_basis() -> np.ndarray:
    """Real basis of the 4x4 Hermitian matrices: E_aa, then E_ab + E_ba and
    i(E_ab - E_ba) for each a < b.  A Gram is tensordot(theta, basis, 1)."""
    unit = np.eye(16).reshape(4, 4, 4, 4)  # unit[a, b] = E_ab
    a, b = np.triu_indices(4, 1)
    off = np.stack([unit[a, b] + unit[b, a], 1j * (unit[a, b] - unit[b, a])], axis=1)
    return np.concatenate([unit[range(4), range(4)], off.reshape(12, 4, 4)])


#: (16, 4, 4); orthogonal, with squared norm 1 on the diagonal and 2 off it.
_BASIS = _hermitian_basis()

#: Environment orthonormality as sum_ab C[a, b] G[a, b] = rhs:
#: <E0|E0> = g00 + g11 = 1, <E1|E1> = g22 + g33 = 1, <E0|E1> = g02 + g13 = 0.
_ORTHO = np.zeros((3, 4, 4))
_ORTHO[0, [0, 1], [0, 1]] = 1.0
_ORTHO[1, [2, 3], [2, 3]] = 1.0
_ORTHO[2, [0, 1], [2, 3]] = 1.0
_ORTHO_RHS = np.array([1.0, 1.0, 0.0])

#: Gram of the product solution: e00 = e11 unit, e01 = e10 = 0.
_PRODUCT_GRAM = np.zeros((4, 4))
_PRODUCT_GRAM[np.ix_([0, 3], [0, 3])] = 1.0
_PRODUCT_GRAM.flags.writeable = False

#: The product Gram's coordinates theta on the orthogonal ``_BASIS``.
_PRODUCT_THETA = (
    np.einsum("kab,ab->k", _BASIS.conj(), _PRODUCT_GRAM).real
    / np.einsum("kab,kab->k", _BASIS.conj(), _BASIS).real
)


@dataclass(frozen=True)
class GramSolution:
    """Result of the marginal-determination check for one qubit count."""

    gram: np.ndarray  # 4x4 Hermitian Gram of (e00, e01, e10, e11)
    residual: float
    forced_product: bool
    nullspace_dim: int


def marginal_set(coeffs: np.ndarray, n: int) -> list[np.ndarray]:
    """The n single-party-traced marginals of sum_ab coeffs[a, b] |a..a><b..b|,
    indexed by the left-out qubit, as 2x2 matrices on the other parties'
    span{|0..0>, |1..1>}: tracing out a party keeps only the a = b terms."""
    if n < 3:
        raise InvalidArgument(f"marginal analysis needs n >= 3, got {n}")
    return [coeffs * np.eye(2) for _ in range(n)]


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 of two states written on the same orthonormal span."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def ghz_counterexample_check(n: int) -> bool:
    """True iff the classical |0..0>/|1..1> mixture reproduces every
    (n-1)-party marginal of the GHZ state while the full states differ, both
    given by their 2x2 coefficients on span{|0..0>, |1..1>}."""
    if n < 3:
        raise InvalidArgument(f"need n >= 3, got {n}")
    if n > _MAX_QUBITS:
        # the check is 2x2 at any n; the bound is the one rdm's Gram system has
        raise BudgetExceeded(f"GHZ counterexample check capped at n <= {_MAX_QUBITS}")
    ghz, mixture = np.full((2, 2), 0.5), np.diag([0.5, 0.5])
    same_marginals = all(
        np.abs(x - y).max() <= _MARGINAL_TOL
        for x, y in zip(marginal_set(ghz, n), marginal_set(mixture, n))
    )
    return bool(same_marginals and _trace_distance(ghz, mixture) > 0.4)


def _rows(c: np.ndarray) -> np.ndarray:
    """Real rows of the constraints sum_ab c[p, a, b] G[a, b]: real parts
    first, then imaginary parts, each in the order of p."""
    rows = np.einsum("pab,kab->pk", c, _BASIS)
    return np.vstack([rows.real, rows.imag])


def _constraint_system(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real linear system A theta = b encoding the marginal equation obtained
    by tracing out party 0, plus environment orthonormality.

    One equation per pair y <= y' of (n-1)-qubit indices; only pairs inside
    the joint support of W, v0 and v1 can give anything but 0 = 0, and only
    the rows that are not 0 = 0 are kept.  That support has O(n) indices:
    the shells of v0 and v1 (the G carrier's branches), and the rows 2 z' + b
    that W attaches to them, folded onto party 0's halves.
    """
    k = n - 1
    full = (1 << k) - 1
    singles = [1 << q for q in range(k)]
    shells = np.array(sorted({0, full, *singles, *(full ^ s for s in singles)}), dtype=np.uint64)
    # W[2 z' + b, 2 c + b] = v_c[z'] / sqrt(2); party 0, the top bit of the
    # row, splits it into t * 2^k + p
    rows = (shells[:, None] << np.uint64(1)) | np.arange(2, dtype=np.uint64)
    halves, folded = (rows >> np.uint64(k)).astype(np.intp), rows & np.uint64(full)
    support = np.array(sorted({*shells.tolist(), *folded.ravel().tolist()}), dtype=np.uint64)
    weight = np.array([y.bit_count() for y in support.tolist()])
    v0_weights = branch_weights("G", n)  # v1 = X^k v0: v1 at weight w is v0 at k - w
    a0, a1 = (shell_amplitudes(k, v0_weights, w) for w in (weight, k - weight))
    w = np.zeros((2, support.size, 4))
    cols, at = np.searchsorted(support, folded), np.searchsorted(support, shells)[:, None]
    w[halves, cols, np.arange(2)] = a0[at] / np.sqrt(2.0)
    w[halves, cols, 2 + np.arange(2)] = a1[at] / np.sqrt(2.0)
    i, j = np.triu_indices(support.size)
    # C[pair, a, b] = sum_bit w[bit, y'][a] * w[bit, y][b], with y = support[i]
    # and y' = support[j]
    c = np.einsum("tpa,tpb->pab", w[:, j], w[:, i])
    target = 0.5 * (a0[i] * a0[j] + a1[i] * a1[j])

    a_mat = np.vstack([_rows(c), _rows(_ORTHO)])
    b_vec = np.concatenate([target, np.zeros(i.size), _ORTHO_RHS, np.zeros(3)])
    nonzero = a_mat.any(axis=1) | (b_vec != 0)
    return a_mat[nonzero], b_vec[nonzero]


def g_uniqueness_check(n: int) -> GramSolution:
    """Does matching every (n-1)-party marginal force the pure carrier?

    Builds the Gram-matrix linear system from the marginal equation with
    party 0 traced out (party n-1's marginal is already encoded in the
    ansatz itself) and reports the nullspace dimension: zero nullspace means
    the only solution is the product of the carrier with an environment
    state.
    """
    if n < 3:
        raise InvalidArgument(f"uniqueness check needs n >= 3, got {n}")
    if n > _MAX_QUBITS:
        # before the support indices overflow
        raise BudgetExceeded(f"uniqueness check capped at n <= {_MAX_QUBITS}")
    a_mat, b_vec = _constraint_system(n)
    residual = float(np.abs(a_mat @ _PRODUCT_THETA - b_vec).max())
    if residual > 1e-6:
        raise InternalInconsistency(
            f"the carrier itself fails its own marginal constraints (residual {residual})"
        )
    svals = np.linalg.svd(a_mat, compute_uv=False)
    tol = _NULLSPACE_REL_TOL * svals[0]
    nullspace_dim = int((svals < tol).sum())
    forced = nullspace_dim == 0 and residual < _RESIDUAL_TOL
    return GramSolution(
        gram=_PRODUCT_GRAM,
        residual=residual,
        forced_product=forced,
        nullspace_dim=nullspace_dim,
    )
