"""Boundary-driven XXZ chain: model, spin current, sectors.

The chain Hamiltonian is

    H = sum_j 2 s+_j s-_{j+1} + 2 s-_j s+_{j+1} + delta sz_j sz_{j+1}

with four jump operators pumping spin in at site 1 and out at site n (and
the reverse, weighted by the driving bias ``mu``):

    L1 = 1/2 sqrt(1+mu) s+_1      L2 = 1/2 sqrt(1-mu) s-_1
    L3 = 1/2 sqrt(1-mu) s+_n      L4 = 1/2 sqrt(1+mu) s-_n

All four operators are always kept, so the model shape is independent of
``mu`` (two of them vanish at mu = +-1).  This normalisation makes the
dissipator trace exactly -4^n, hence the average damping equals gamma.

The two-copy (ladder) form of the generator, each of whose rows is
PT-symmetric on its own, is a test oracle in ``tests/conftest.py``;
``tests/test_symmetry.py`` checks the identity row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .liouville import LindbladModel
from .operators import _refuse_large_parts, _refuse_long_chain, _require_integer, site_operator

__all__ = [
    "XXZParams",
    "xxz_model",
    "spin_current",
    "SECTORS",
    "sector_basis",
    "sector_positions",
]

SECTORS = ("full", "dmz0")


@dataclass(frozen=True)
class XXZParams:
    """Chain length, anisotropy, driving bias, and coupling strength."""

    n_sites: int
    delta: float
    mu: float
    gamma: float

    def __post_init__(self):
        _require_integer(self.n_sites)
        if self.n_sites < 2:
            raise ValidationError(f"need at least 2 sites, got {self.n_sites}")
        _refuse_long_chain(self.n_sites)
        if not np.isfinite(self.delta):
            raise ValidationError("anisotropy delta must be finite")
        if not -1.0 <= self.mu <= 1.0:
            raise ValidationError(f"driving mu must lie in [-1, 1], got {self.mu}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValidationError(f"coupling gamma must be non-negative, got {self.gamma}")

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n_sites


def _hamiltonian(n: int, delta: float) -> np.ndarray:
    """H from the bits of the basis states (site j is bit n - j, 1 = down): 2 between two
    states that differ by a swap across a bond, and on the diagonal ``+-delta`` per bond
    (+ where its two spins agree), added bond by bond from site 1."""
    states = np.arange(2**n)
    h = np.zeros((2**n, 2**n), dtype=complex)
    diagonal = np.zeros(2**n)
    for shift in range(n - 2, -1, -1):  # bond j joins bits n - j and n - j - 1
        flipped = ((states >> shift) ^ (states >> (shift + 1))) & 1 == 1
        h[states[flipped] ^ (3 << shift), states[flipped]] = 2.0
        diagonal += delta * np.where(flipped, -1.0, 1.0)
    h[states, states] = diagonal
    return h


def _jump_operators(n: int, mu: float) -> tuple:
    return (
        0.5 * np.sqrt(1.0 + mu) * site_operator("+", 1, n),
        0.5 * np.sqrt(1.0 - mu) * site_operator("-", 1, n),
        0.5 * np.sqrt(1.0 - mu) * site_operator("+", n, n),
        0.5 * np.sqrt(1.0 + mu) * site_operator("-", n, n),
    )


def _largest_parts(params: XXZParams) -> tuple:
    """The magnitude rule's inputs, read from the parameters: a bound on H's largest real
    or imaginary part (the hopping's 2, or (n - 1)|delta| on its diagonal once delta
    outweighs it) and each jump's own."""
    plus, minus = 0.5 * np.sqrt(1.0 + params.mu), 0.5 * np.sqrt(1.0 - params.mu)
    return max(2.0, (params.n_sites - 1) * abs(params.delta)), (plus, minus, minus, plus)


def xxz_model(params: XXZParams) -> LindbladModel:
    """The boundary-driven chain as a four-channel Lindblad model.

    H is held to the magnitude rule (:func:`_largest_parts`) before it is summed, where
    a huge delta would overflow.  The jumps, with |mu| <= 1, stay far below it.
    """
    n = params.n_sites
    _refuse_large_parts(2**n, _largest_parts(params)[0], ())
    return LindbladModel(_hamiltonian(n, params.delta), _jump_operators(n, params.mu), params.gamma)


def spin_current(n_sites: int) -> np.ndarray:
    """Total spin current ``i sum_j (s+_j s-_{j+1} - s-_j s+_{j+1})``.

    Hermitian, traceless, commutes with the total magnetization, and has
    vanishing diagonal matrix elements in the energy eigenbasis.
    """
    _require_integer(n_sites)
    if n_sites < 2:
        raise ValidationError(f"need at least 2 sites, got {n_sites}")
    _refuse_long_chain(n_sites)
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
    _require_integer(n_sites)
    _require_integer(dmz, "dmz")
    if n_sites < 1:
        raise ValidationError(f"need at least 1 site, got {n_sites}")
    _refuse_long_chain(n_sites)
    if abs(dmz) > 2 * n_sites:
        raise ValidationError(f"|dmz| = {abs(dmz)} exceeds 2n = {2 * n_sites}")
    states = np.arange(2**n_sites)
    down = sum((states >> site) & 1 for site in range(n_sites))
    mags = n_sites - 2 * down
    return np.flatnonzero(mags[:, None] - mags == dmz)


def sector_positions(n_sites: int, sector: str) -> np.ndarray | None:
    """Flat positions of a sector named in ``SECTORS``: ``sector_basis(n_sites, 0)`` for
    ``"dmz0"``, None for ``"full"``.  Any other name is refused."""
    _require_integer(n_sites)
    if sector not in SECTORS:
        raise ValidationError(f"unknown sector {sector!r}; use {' or '.join(map(repr, SECTORS))}")
    return sector_basis(n_sites, 0) if sector == "dmz0" else None
