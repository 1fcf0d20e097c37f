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
    """Unitary involution ``rho -> A rho B`` with its matrix form.

    The (A, B) pair is the source of truth; the matrix ``kron(A, B.T)`` is
    derived from it, and so are restrictions to invariant sectors.
    """

    left_op: np.ndarray
    right_op: np.ndarray
    matrix: np.ndarray
    involution_residual: float
    unitarity_residual: float

    @property
    def hilbert_dim(self) -> int:
        return self.left_op.shape[0]

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
    matrix = product_map(a, b)
    invol = float(np.linalg.norm(matrix @ matrix - np.eye(dim * dim)))
    if invol > tol * dim * dim:
        raise NotInvolution(f"parity map does not square to identity (residual {invol:.3e})")
    return ParitySuperOp(a, b, matrix, invol, float(unit))


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
    p = parity.matrix_on(liou.index)
    lp = traceless_part(liou).matrix
    res = np.linalg.norm(dagger(lp) + p @ lp @ p) / max(1.0, np.linalg.norm(lp))
    return SymmetryReport(
        pt_residual=float(res),
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
    p = parity.matrix_on(liou.index)
    u_neg = propagator(liou, -t).matrix
    u_pos = propagator(liou, t).matrix
    rhs = np.exp(2.0 * gamma_bar * t) * (p @ dagger(u_pos) @ p)
    return float(np.linalg.norm(u_neg - rhs) / np.linalg.norm(u_neg))
