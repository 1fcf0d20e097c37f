"""Boundary-driven XXZ chain: model, spin current, sectors, ladder form.

The chain Hamiltonian is

    H = sum_j 2 s+_j s-_{j+1} + 2 s-_j s+_{j+1} + delta sz_j sz_{j+1}

with four jump operators pumping spin in at site 1 and out at site n (and
the reverse, weighted by the driving bias ``mu``):

    L1 = 1/2 sqrt(1+mu) s+_1      L2 = 1/2 sqrt(1-mu) s-_1
    L3 = 1/2 sqrt(1-mu) s+_n      L4 = 1/2 sqrt(1+mu) s-_n

All four operators are always kept, so the model shape is independent of
``mu`` (two of them vanish at mu = +-1).  This normalisation makes the
dissipator trace exactly -4^n, hence the average damping equals gamma.

Besides the support-based Kronecker assembly of ``liouville``, the generator
is also built in a second, independent way: the operator space B(H) is
identified with the two-copy product space H (x) H through

    |psi><phi|   <->   |psi> (x) S |phi|,    S = global spin flip,

under which the generator becomes a local operator on the two copies (one
boundary-field row, two jump rows, and a constant shift).  Both routes must
agree entrywise; the test suite pins this down because the spin-flip
bookkeeping is the error-prone step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .liouville import LindbladModel, SuperOperator
from .operators import global_spin_flip, site_operator

__all__ = [
    "XXZParams",
    "xxz_model",
    "spin_current",
    "sector_basis",
    "ladder_matrix",
    "ladder_liouvillian",
    "row_superoperators",
]


@dataclass(frozen=True)
class XXZParams:
    """Chain length, anisotropy, driving bias, and coupling strength."""

    n_sites: int
    delta: float
    mu: float
    gamma: float

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValidationError(f"need at least 2 sites, got {self.n_sites}")
        if not np.isfinite(self.delta):
            raise ValidationError("anisotropy delta must be finite")
        if not -1.0 <= self.mu <= 1.0:
            raise ValidationError(f"driving mu must lie in [-1, 1], got {self.mu}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValidationError(f"coupling gamma must be non-negative, got {self.gamma}")

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n_sites

    def with_gamma(self, gamma: float) -> "XXZParams":
        return XXZParams(self.n_sites, self.delta, self.mu, gamma)


def _hamiltonian(n: int, delta: float) -> np.ndarray:
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n):
        h += 2.0 * site_operator("+", j, n) @ site_operator("-", j + 1, n)
        h += 2.0 * site_operator("-", j, n) @ site_operator("+", j + 1, n)
        h += delta * site_operator("z", j, n) @ site_operator("z", j + 1, n)
    return h


def _jump_operators(n: int, mu: float) -> tuple:
    return (
        0.5 * np.sqrt(1.0 + mu) * site_operator("+", 1, n),
        0.5 * np.sqrt(1.0 - mu) * site_operator("-", 1, n),
        0.5 * np.sqrt(1.0 - mu) * site_operator("+", n, n),
        0.5 * np.sqrt(1.0 + mu) * site_operator("-", n, n),
    )


def xxz_model(params: XXZParams) -> LindbladModel:
    """The boundary-driven chain as a four-channel Lindblad model."""
    n = params.n_sites
    return LindbladModel(_hamiltonian(n, params.delta), _jump_operators(n, params.mu), params.gamma)


def spin_current(n_sites: int) -> np.ndarray:
    """Total spin current ``i sum_j (s+_j s-_{j+1} - s-_j s+_{j+1})``.

    Hermitian, traceless, commutes with the total magnetization, and has
    vanishing diagonal matrix elements in the energy eigenbasis.
    """
    if n_sites < 2:
        raise ValidationError(f"need at least 2 sites, got {n_sites}")
    j_op = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for j in range(1, n_sites):
        j_op += 1j * site_operator("+", j, n_sites) @ site_operator("-", j + 1, n_sites)
        j_op -= 1j * site_operator("-", j, n_sites) @ site_operator("+", j + 1, n_sites)
    return j_op


def sector_basis(n_sites: int, dmz: int = 0) -> np.ndarray:
    """Ascending int64 positions ``j*N + k`` of ``|j><k|`` whose magnetizations differ by ``dmz``.

    ``dmz = 0`` is the block containing the identity, all energy-eigenbasis
    populations, the steady state, and the spin current.
    """
    if abs(dmz) > 2 * n_sites:
        raise ValidationError(f"|dmz| = {abs(dmz)} exceeds 2n = {2 * n_sites}")
    states = np.arange(2**n_sites)
    down = sum((states >> site) & 1 for site in range(n_sites))
    mags = n_sites - 2 * down
    return np.flatnonzero(mags[:, None] - mags == dmz)


def _ladder_reorder(n_sites: int) -> tuple:
    """``I (x) S`` as a row and column reordering: ``pi @ m @ pi == m[_ladder_reorder(n)]``."""
    flip = np.argmax(global_spin_flip(n_sites).real, axis=1)  # S[k, flip[k]] = 1
    order = (np.arange(flip.size)[:, None] * flip.size + flip).reshape(-1)
    return np.ix_(order, order)


def _ladder_rows(params: XXZParams) -> tuple:
    """The three rows of the two-copy form of the generator, as matrices on H (x) H."""
    n = params.n_sites
    dim = params.hilbert_dim
    one = np.eye(dim, dtype=complex)
    h = _hamiltonian(n, params.delta)
    bias = (params.gamma * params.mu / 4.0) * (
        site_operator("z", 1, n) - site_operator("z", n, n)
    )
    x = 1j * h - bias
    row1 = np.kron(one, x) - np.kron(x, one)
    row2 = (params.gamma * (1.0 + params.mu) / 2.0) * (
        np.kron(site_operator("+", 1, n), site_operator("-", 1, n))
        + np.kron(site_operator("-", n, n), site_operator("+", n, n))
    )
    row3 = (params.gamma * (1.0 - params.mu) / 2.0) * (
        np.kron(site_operator("-", 1, n), site_operator("+", 1, n))
        + np.kron(site_operator("+", n, n), site_operator("-", n, n))
    ) - params.gamma * np.kron(one, one)
    return row1, row2, row3


def ladder_matrix(params: XXZParams) -> np.ndarray:
    """Generator in the two-copy basis (sum of the three ladder rows)."""
    row1, row2, row3 = _ladder_rows(params)
    return row1 + row2 + row3


def ladder_liouvillian(params: XXZParams) -> SuperOperator:
    """Generator built through the two-copy route, in the row-major convention.

    Must agree entrywise with ``build_superoperator(xxz_model(params))``;
    kept as a permanently-enabled cross-check of the spin-flip bookkeeping.
    """
    matrix = ladder_matrix(params)[_ladder_reorder(params.n_sites)]
    return SuperOperator(matrix, params.hilbert_dim)


def row_superoperators(params: XXZParams) -> tuple:
    """The three ladder rows converted to the row-major convention.

    Row 1 is the coherent part plus the boundary-field term, rows 2 and 3
    are the two groups of jump terms (row 3 carries the constant shift).
    Their sum is the full generator exactly.
    """
    ix = _ladder_reorder(params.n_sites)
    return tuple(SuperOperator(row[ix], params.hilbert_dim) for row in _ladder_rows(params))
