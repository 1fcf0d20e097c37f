"""Parity superoperators and the parity-time identity of the generator.

A parity here is a unitary involution on operator space of the product form
``rho -> A rho B``.  Combined with Hermitian adjunction (the anti-unitary
half of the symmetry), a generator is PT-symmetric when its traceless part
L' satisfies

    (L')^dag = - P L' P

which in turn lets the propagator be inverted without inverting a matrix:

    U(-t) = exp(2 gamma_bar t)  P [U(t)]^dag P.

For the boundary-driven XXZ chain the parity conjugates by the site
reversal R combined with the full sigma^z string on the left and by R alone
on the right; the identity above then holds for each of the three ladder
rows of the generator separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotInvolution, NotUnitary, ValidationError
from .liouville import SuperOperator, average_damping, propagator, sector_restrict, traceless_part
from .operators import dagger, product_map, site_reversal, site_operator
from .xxz import XXZParams, row_superoperators

__all__ = [
    "ParitySuperOp",
    "SymmetryReport",
    "parity_from_pair",
    "xxz_parity",
    "check_pt",
    "check_pt_rows",
    "check_inversion",
]


@dataclass(frozen=True)
class ParitySuperOp:
    """Unitary involution ``rho -> A rho B``.

    The (A, B) pair is the source of truth.  The N^2 x N^2 matrix
    ``kron(A, B.T)`` is derived from it lazily, on first access, and so are
    restrictions to invariant sectors.  The PT checks apply the parity through
    A and B; on the full space in its natural order they never read the matrix.
    """

    left_op: np.ndarray
    right_op: np.ndarray
    involution_residual: float
    unitarity_residual: float

    @property
    def hilbert_dim(self) -> int:
        return self.left_op.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        return product_map(self.left_op, self.right_op)

    def as_superoperator(self) -> SuperOperator:
        return SuperOperator(self.matrix, self.hilbert_dim)

    def matrix_on(self, index) -> np.ndarray:
        """Matrix on the invariant flat basis positions ``index``, in their order."""
        return sector_restrict(self.as_superoperator(), index).matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.ndim == 2:
            return self.left_op @ x @ self.right_op
        return self.matrix @ x


def parity_from_pair(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> ParitySuperOp:
    """Build and vet the parity ``rho -> a rho b``.

    ``a`` and ``b`` must be unitary and the map must square to the identity
    (that is, a^2 and b^2 are reciprocal phases).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"operator pair must be square and same shape: {a.shape}, {b.shape}")
    dim = a.shape[0]
    eye = np.eye(dim)
    unit = max(np.linalg.norm(dagger(a) @ a - eye), np.linalg.norm(dagger(b) @ b - eye))
    if unit > tol * dim:
        raise NotUnitary(f"operator pair is not unitary (residual {unit:.3e})")
    invol = _kron_identity_residual(a @ a, (b @ b).T)
    if invol > tol * dim * dim:
        raise NotInvolution(f"parity map does not square to identity (residual {invol:.3e})")
    return ParitySuperOp(a, b, invol, float(unit))


def _kron_identity_residual(x: np.ndarray, y: np.ndarray) -> float:
    """``||kron(x, y) - I||_F`` from the N x N factors, without forming the N^2 x N^2 matrix.

    Block (i, j) of the difference is ``x[i, j] y - delta_ij I``: the off-diagonal
    blocks contribute ``|x[i, j]|^2 ||y||^2`` and the diagonal ones are summed directly.
    """
    off = np.abs(x) ** 2
    np.fill_diagonal(off, 0.0)
    diag_blocks = np.diagonal(x)[:, None, None] * y - np.eye(x.shape[0])
    return float(np.sqrt(off.sum() * np.linalg.norm(y) ** 2 + np.linalg.norm(diag_blocks) ** 2))


def _sandwich(parity: ParitySuperOp, m: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``P m P`` for a matrix ``m`` on the flat positions ``index``, through P's factors.

    With rows and columns split into (j, k) pairs, ``P = kron(a, b.T)`` acts as
    ``a`` on j and ``b.T`` on k, so each side is two N x N matmuls batched over
    the other N^3 indices: O(N^5) on the full space instead of O(N^6).  A block
    on any other positions (a sector or a reordered basis) must be invariant
    under the parity, as ``matrix_on`` checks; it is embedded at its positions
    in the full space, sandwiched there, and gathered back.
    """
    n = parity.hilbert_dim
    n2 = n * n
    if not np.array_equal(index, np.arange(n2)):
        parity.matrix_on(index)
        embedded = np.zeros((n2, n2), dtype=complex)
        embedded[np.ix_(index, index)] = m
        return _sandwich(parity, embedded, np.arange(n2))[np.ix_(index, index)]
    a, bt = parity.left_op, parity.right_op.T
    # left: (P m)[(j, k), c] = sum a[j, j'] bt[k, k'] m[(j', k'), c]
    pm = np.matmul(bt, (a @ m.reshape(n, n * n2)).reshape(n, n, n2))
    # right: (X P)[r, (j, k)] = (a.T X_r bt)[j, k] with X_r row r of X as an N x N matrix
    return np.matmul(a.T, (pm.reshape(n2 * n, n) @ bt).reshape(n2, n, n)).reshape(n2, n2)


def xxz_parity(n_sites: int) -> ParitySuperOp:
    """Parity of the boundary-driven chain: ``rho -> (R prod_j sz_j) rho R``.

    ``R`` reverses the site order.  Applied to the identity it returns the
    full sigma^z string, which is the fastest-decaying mode of the chain.
    """
    r = site_reversal(n_sites)
    z_string = np.eye(2**n_sites, dtype=complex)
    for j in range(1, n_sites + 1):
        z_string = z_string @ site_operator("z", j, n_sites)
    return parity_from_pair(r @ z_string, r)


@dataclass(frozen=True)
class SymmetryReport:
    """Residuals of the PT identity and of the parity's own invariants."""

    pt_residual: float
    involution_residual: float
    unitarity_residual: float
    gamma_bar: float


def check_pt(liou: SuperOperator, parity: ParitySuperOp) -> SymmetryReport:
    """Relative residual of ``(L')^dag = - P L' P`` for the traceless part."""
    lp = traceless_part(liou).matrix
    diff = _sandwich(parity, lp, liou.index)
    # the adjoint goes in by 64-row slabs: one whole-matrix transposed add runs
    # about three times slower at N^2 = 1024, missing the cache on every read
    for i in range(0, lp.shape[0], 64):
        diff[i : i + 64] += dagger(lp[:, i : i + 64])
    return SymmetryReport(
        pt_residual=float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(lp))),
        involution_residual=parity.involution_residual,
        unitarity_residual=parity.unitarity_residual,
        gamma_bar=average_damping(liou),
    )


def check_pt_rows(params: XXZParams) -> list:
    """PT residual of each of the three ladder rows of the XXZ generator.

    Each row is made traceless with its own average damping before the
    check; the identity holds row by row, not just for the sum.
    """
    parity = xxz_parity(params.n_sites)
    return [check_pt(row, parity).pt_residual for row in row_superoperators(params)]


def check_inversion(liou: SuperOperator, parity: ParitySuperOp, t: float) -> float:
    """Relative error of the propagator inversion identity at time ``t``.

    Compares ``U(-t)`` against ``exp(2 gamma_bar t) P [U(t)]^dag P``; small
    only when the generator is PT-symmetric.
    """
    if not np.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    gamma_bar = average_damping(liou)
    u_neg = propagator(liou, -t).matrix
    u_pos = propagator(liou, t).matrix
    rhs = np.exp(2.0 * gamma_bar * t) * _sandwich(parity, dagger(u_pos), liou.index)
    return float(np.linalg.norm(u_neg - rhs) / np.linalg.norm(u_neg))
