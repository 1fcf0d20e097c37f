"""First-order behaviour of the spectrum in the coupling strength.

At zero coupling the N population modes (projectors onto energy eigenstates)
all sit at the origin of the shifted spectrum; their first-order motion is
governed by the N x N matrix

    V[j, k] = < d_j, (D + 1) d_k >,      d_j = |psi_j><psi_j|,

computed here directly from this defining inner product.  Its eigenvalues
are the population decay velocities and always include 1 (the steady-state
direction); for parity-time-symmetric models V is real and symmetric, which
is what keeps the population modes on the real axis.

The module also provides diagnostics for degenerate energies and energy gaps
(the situations in which the symmetric phase can terminate at zero coupling).
The eigenvalue velocities ``d lambda / d gamma = <v, D u>`` are checked against
finite differences by ``tests/conftest.py::velocity_check``, which no command calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .liouville import LindbladModel, _nonzeros, _sparse_sum, _terms, _trace
from .operators import is_hermitian
from .spectral import _close_pairs

__all__ = [
    "PerturbationReport",
    "DegeneracyReport",
    "population_matrix",
    "degeneracy_report",
]


@dataclass(frozen=True)
class PerturbationReport:
    """Population decay matrix and its spectrum.

    ``v_matrix`` is the real part of the computed matrix; how far the raw matrix was from
    real and from symmetric is recorded in the two defect fields rather than assumed away.
    ``xi`` are its eigenvalues (the first-order population velocities), by descending real part.
    """

    energies: np.ndarray
    v_matrix: np.ndarray = field(repr=False)
    xi: np.ndarray
    symmetry_defect: float
    reality_defect: float


# columns of D + 1 per product with the projectors (even: see population_matrix)
_COLUMNS = 64


def population_matrix(model: LindbladModel) -> PerturbationReport:
    """Compute V from its defining inner product in the energy eigenbasis, each eigenvector's
    first largest-magnitude component made real positive (reproducible vectors).

    ``D + 1`` is meaningful only when ``Tr D = -N^2``; models whose jump operators are not
    normalised that way (to within ``1e-9 N^2``) are refused.  Its N^2 x N^2 matrix is
    never formed: ``d_vecs^H (D + 1)`` is taken a block of ``_COLUMNS`` columns at a time,
    each scattered from the dissipator's nonzero entries into one reused zeroed block.
    """
    (dis,) = _nonzeros(model.dim, _terms(model)[1])
    n2, tr = dis.dim, _trace(dis)
    if abs(tr + n2) > 1e-9 * n2:
        raise ValidationError(
            f"dissipator trace {tr:.6g} is not -N^2 = {-n2}; rescale the jump operators"
        )
    at, values = _sparse_sum(dis.at, dis.values, np.arange(n2) * (n2 + 1), 1.0)
    rows, cols = np.divmod(at, n2)
    order = np.argsort(cols)
    rows, cols, values = rows[order], cols[order], values[order]
    energies, psi = np.linalg.eigh(model.hamiltonian)
    n = model.dim
    top = psi[np.argmax(np.abs(psi), axis=0), np.arange(n)]
    # np.hypot rounds as abs() of one complex scalar does; np.abs of an array may not
    psi *= np.conj(top) / np.hypot(top.real, top.imag)
    d_vecs = (psi[:, None, :] * psi.conj()).reshape(n * n, n)  # column j: vec(|psi_j><psi_j|)
    left = np.conjugate(d_vecs, out=d_vecs).T  # d_vecs^H, in d_vecs' memory: one copy of it
    # V keeps its bits: each product still sums over all N^2 rows, and as OpenBLAS's
    # zgemm takes columns in pairs, every block but the last is _COLUMNS (even) wide, so
    # each column meets the kernel that it meets in one product.  A last single column
    # joins the block before it, where numpy would take it through a matrix-vector product
    edges = list(range(0, n2, _COLUMNS)) + [n2]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    bounds = np.searchsorted(cols, edges)
    block = np.zeros((n2, _COLUMNS + 1), dtype=complex)
    product = np.empty((n, n2), dtype=complex)
    for start, stop, lo, hi in zip(edges[:-1], edges[1:], bounds[:-1], bounds[1:]):
        r, c = rows[lo:hi], cols[lo:hi] - start
        block[r, c] = values[lo:hi]
        np.matmul(left, block[:, : stop - start], out=product[:, start:stop])
        block[r, c] = 0.0
    del block
    v_raw = product @ np.conjugate(left, out=left).T  # d_vecs again, bit for bit
    reality = float(np.abs(v_raw.imag).max(initial=0.0))
    symmetry = float(np.abs(v_raw - v_raw.T).max(initial=0.0))
    # eig, not eigvals: from dimension 75 on, LAPACK finds values without vectors by another path
    xi = np.linalg.eig(v_raw).eigenvalues
    return PerturbationReport(
        energies=energies,
        v_matrix=v_raw.real,
        xi=xi[np.argsort(-xi.real)],
        symmetry_defect=symmetry,
        reality_defect=reality,
    )


@dataclass(frozen=True)
class DegeneracyReport:
    """Degenerate energies and degenerate energy gaps of a Hamiltonian.

    ``degenerate_pairs`` lists index pairs (j, k), j < k, with equal
    energies; ``degenerate_gap_pairs`` lists pairs of distinct index pairs
    whose gaps coincide.  Either kind signals that the symmetric spectral
    phase may terminate at arbitrarily small coupling.
    """

    energies: np.ndarray
    degenerate_pairs: tuple
    degenerate_gap_pairs: tuple
    tol: float


def degeneracy_report(hamiltonian: np.ndarray) -> DegeneracyReport:
    """List energy pairs and gap pairs that agree within ``tol = 1e-9 max(1, |H|_F)``.

    Energies are sorted ascending.  Pairs come in row-major order of their
    indices; at most the first 500 gap pairs are listed.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if not is_hermitian(h):
        raise ValidationError("Hamiltonian is not Hermitian")
    energies = np.linalg.eigh(h)[0]
    tol = 1e-9 * max(1.0, float(np.linalg.norm(h)))
    j, k = np.triu_indices(energies.size, 1)
    gaps = energies[k] - energies[j]
    ends = list(zip(j.tolist(), k.tolist()))
    gap_pairs = itertools.islice(itertools.chain.from_iterable(_close_pairs(gaps, tol)), 500)
    return DegeneracyReport(
        energies=energies,
        degenerate_pairs=tuple(ends[i] for i in np.flatnonzero(np.abs(gaps) <= tol)),
        degenerate_gap_pairs=tuple((ends[x], ends[y]) for x, y in gap_pairs),
        tol=tol,
    )
