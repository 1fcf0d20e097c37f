"""Parity superoperators and the parity-time identity of the generator.

A parity here is a unitary involution on operator space of the product form
``rho -> A rho B``.  Combined with Hermitian adjunction (the anti-unitary
half of the symmetry), a generator is PT-symmetric when its traceless part
L' satisfies

    (L')^dag = - P L' P

which in turn lets the propagator be inverted without inverting a matrix:

    U(-t) = exp(2 gamma_bar t)  P [U(t)]^dag P.

No command evaluates that inversion identity; ``tests/conftest.py::check_inversion``
does, through this module's dense ``P X P`` (:func:`_sandwich`).

For the boundary-driven XXZ chain the parity conjugates by the site
reversal R combined with the full sigma^z string on the left and by R alone
on the right.  The identity then holds for each of the three ladder rows of
the generator separately; ``tests/test_symmetry.py::TestCheckPTRows`` checks
that against the two-copy oracle in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvolution, NotUnitary, ValidationError
from .liouville import (
    SuperOperator, _entries, _kept, _nonzeros, _sparse_sum, average_damping,
)
from .operators import dagger, site_reversal, site_operator

__all__ = [
    "ParitySuperOp",
    "SymmetryReport",
    "parity_from_pair",
    "xxz_parity",
    "check_pt",
]


@dataclass(frozen=True)
class ParitySuperOp:
    """Unitary involution ``rho -> A rho B``.

    The (A, B) pair is the whole parity: a block of its N^2 x N^2 matrix
    ``kron(A, B.T)`` on invariant positions is gathered from the entries of A
    and B when a check needs it (:func:`_parity_block`), and no such matrix is kept.
    """

    left_op: np.ndarray
    right_op: np.ndarray
    involution_residual: float
    unitarity_residual: float

    @property
    def hilbert_dim(self) -> int:
        return self.left_op.shape[0]


def _require_same_space(parity: ParitySuperOp, hilbert_dim: int) -> None:
    """Refuse a parity built for another Hilbert space than the superoperator's."""
    if parity.hilbert_dim != hilbert_dim:
        raise ValidationError(
            f"parity acts on Hilbert dimension {parity.hilbert_dim}, "
            f"the superoperator on {hilbert_dim}"
        )


def parity_from_pair(a: np.ndarray, b: np.ndarray) -> ParitySuperOp:
    """Build and vet the parity ``rho -> a rho b``.

    ``a`` and ``b`` must be unitary and the map must square to the identity
    (that is, a^2 and b^2 are reciprocal phases): the Frobenius residuals may
    reach 1e-12 N and 1e-12 N^2.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"operator pair must be square and same shape: {a.shape}, {b.shape}")
    dim = a.shape[0]
    eye = np.eye(dim)
    unit = max(np.linalg.norm(dagger(a) @ a - eye), np.linalg.norm(dagger(b) @ b - eye))
    if unit > 1e-12 * dim:
        raise NotUnitary(f"operator pair is not unitary (residual {unit:.3e})")
    invol = _kron_identity_residual(a @ a, (b @ b).T)
    if invol > 1e-12 * dim * dim:
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


def _parity_block(parity: ParitySuperOp, index):
    """``P`` on the flat positions ``index``, its entries read once, from those of
    ``kron(A, B.T)`` under the one invariance rule (:func:`_kept`, which raises
    :class:`SectorNotInvariant`).  Where every block row holds one of them, +1 or -1, as
    ``xxz_parity``'s rows do, the block is the signed permutation ``(g, inverse, sign)``:
    ``P[r, g(r)] = sign[r]`` and ``inverse`` undoes ``g``.  Any other block is returned
    dense, its entries scattered into zeros."""
    (entries,) = _nonzeros(parity.hilbert_dim, [(1.0, parity.left_op, parity.right_op.T)])
    rows, cols, values = _kept(entries, index)
    sign = np.zeros(np.size(index))
    sign[rows] = values.real
    # as many entries as rows and none left at 0: one per row
    if rows.size != sign.size or np.any(values.imag != 0) or np.any(np.abs(sign) != 1):
        block = np.zeros((sign.size, sign.size), dtype=complex)
        block[rows, cols] = values
        return block
    g, inverse = np.empty_like(rows), np.empty_like(rows)
    g[rows], inverse[cols] = cols, rows
    return g, inverse, sign


def _sandwich(p, m: np.ndarray) -> np.ndarray:
    """``P m P`` for P's block ``p``, as :func:`_parity_block` returns it, and ``m``.

    Where ``p`` is a signed permutation, ``(P m P)[r, c] = s(r) m[g(r), g^-1(c)]
    s(g^-1(c))`` is one gather and two sign flips, exact where a product would round.  A
    dense block is multiplied in.
    """
    if isinstance(p, np.ndarray):
        return p @ m @ p
    g, inverse, sign = p
    out = m[np.ix_(g, inverse)]
    parts = out.view(np.float64).reshape(g.size, g.size, 2)  # real signs flip both parts
    parts *= sign[:, None, None]
    parts *= sign[inverse][None, :, None]
    return out


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


# positions per group of ``_grouped_norm``: the four that OpenBLAS's strided ``ddot``
# adds at once, so a buffer holds no more positions than the groups with an entry
_GROUP = 4


def _grouped_norm(at: np.ndarray, values: np.ndarray, size: int) -> float:
    """``np.linalg.norm`` of the length-``size`` vector that holds ``values`` at the
    ascending distinct positions ``at`` and +0 elsewhere, bit for bit, with no such vector.

    The norm of a complex vector is ``x.real . x.real + x.imag . x.imag``: two BLAS
    ``ddot`` at stride 2, whose OpenBLAS kernel adds its products in aligned groups of four
    positions and the last ``size % 4`` one by one.  A group of zeros adds exactly +0, so
    the aligned groups of ``_GROUP`` (those same four) positions that hold an entry are
    copied, in order, into a small buffer, and the vector's last ``size % _GROUP``
    positions stay a tail of that length, added one by one as before.  At more than one
    BLAS thread OpenBLAS splits a long ``ddot`` by its length, and the last bits may
    differ.
    """
    group = at // _GROUP
    new = np.ones(at.size, dtype=bool)
    new[1:] = group[1:] != group[:-1]
    buffer = np.zeros(np.count_nonzero(new) * _GROUP, dtype=complex)
    buffer[(np.cumsum(new) - 1) * _GROUP + at % _GROUP] = values
    if at.size and group[-1] == size // _GROUP:  # the partial last group
        buffer = buffer[: buffer.size - _GROUP + size % _GROUP]
    return float(np.linalg.norm(buffer))


def check_pt(liou: SuperOperator, parity: ParitySuperOp) -> SymmetryReport:
    """Relative residual of ``(L')^dag = - P L' P`` for the traceless part.

    ``liou`` may also be a generator's nonzero entries (``_generator_entries``).  Where
    P's block is a signed permutation, the sandwich and the adjoint move entries, and the
    two Frobenius norms, whose BLAS sums group the squares by flat position, are taken on
    the groups that hold them (:func:`_grouped_norm`): no dim x dim array is formed.
    """
    _require_same_space(parity, liou.hilbert_dim)
    nz = _entries(liou)
    dim = nz.dim
    gamma_bar = average_damping(nz)
    # L', as traceless_part forms it: nonzero on the matrix's entries and the diagonal
    at, values = _sparse_sum(nz.at, nz.values, np.arange(dim) * (dim + 1), gamma_bar)
    lp_norm = _grouped_norm(at, values, dim * dim)
    p = _parity_block(parity, nz.index)
    if isinstance(p, np.ndarray):
        lp = np.zeros((dim, dim), dtype=complex)
        lp.reshape(-1)[at] = values
        diff = _sandwich(p, lp)
        diff += dagger(lp)
        residual = np.linalg.norm(diff)
    else:
        g, inverse, sign = p
        rows, cols = np.divmod(at, dim)
        adjoint = values.conj()
        parts = values.view(np.float64).reshape(-1, 2)  # (P L' P)[g^-1 r, g c]
        parts *= sign[inverse[rows]][:, None]
        parts *= sign[cols][:, None]
        moved = inverse[rows] * dim + g[cols]
        residual = _grouped_norm(*_sparse_sum(moved, values, cols * dim + rows, adjoint), dim * dim)
    return SymmetryReport(
        pt_residual=float(residual / max(1.0, lp_norm)),
        involution_residual=parity.involution_residual,
        unitarity_residual=parity.unitarity_residual,
        gamma_bar=gamma_bar,
    )

