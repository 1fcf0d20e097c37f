"""Assembly of Lindblad superoperators, propagators, and sector restriction.

The generator acts as ``d rho/dt = -i[H, rho] + gamma * D rho`` with the
dissipator ``D rho = sum_m 2 L_m rho L_m^dag - L_m^dag L_m rho
- rho L_m^dag L_m``.  In the row-major operator basis this is assembled as

    -i (kron(H, I) - kron(I, H.T))
    + gamma * sum_m [2 kron(L_m, conj(L_m)) - kron(L_m^dag L_m, I)
                     - kron(I, (L_m^dag L_m).T)]

No Kronecker product is formed: each term is scattered on the nonzeros of its
two factors over the full space (``_assemble``), or summed on the entries they
touch (``_nonzeros``), from which ``_block`` gathers every sector block.  Every
set of positions is an ascending int64 array (``_distinct``), never a mask.

For jump operators normalised so that ``Tr D = -N^2`` (the boundary-driven
XXZ family is), the average damping rate ``-Tr L / N^2`` equals ``gamma``
and ``D + 1`` is the traceless part of the dissipator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SectorNotInvariant, ValidationError
from .operators import _expm, _refuse_large_parts, dagger, is_hermitian
from .tolerances import SECTOR_REL

__all__ = [
    "LindbladModel",
    "SuperOperator",
    "build_superoperator",
    "average_damping",
    "propagator",
    "hermiticity_residual",
    "sector_restrict",
]


@dataclass(frozen=True)
class LindbladModel:
    """A Hamiltonian, a set of jump operators, and a coupling strength."""

    hamiltonian: np.ndarray
    lindblads: tuple
    gamma: float

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValidationError(f"Hamiltonian must be square, got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValidationError("Hamiltonian has non-finite entries")
        ls = tuple(np.asarray(L, dtype=complex) for L in self.lindblads)
        for m, L in enumerate(ls):
            if L.shape != h.shape:
                raise ValidationError(f"lindblads[{m}] has shape {L.shape}, expected {h.shape}")
            if not np.all(np.isfinite(L)):
                raise ValidationError(f"lindblads[{m}] has non-finite entries")
        _refuse_large(h, ls)  # before any norm is taken
        if not is_hermitian(h):
            raise ValidationError("Hamiltonian is not Hermitian")
        n = h.shape[0]
        if len(ls) > n * n - 1:
            raise ValidationError(f"{len(ls)} jump operators exceed the limit {n * n - 1}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValidationError(f"coupling gamma must be non-negative, got {self.gamma}")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblads", ls)
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class SuperOperator:
    """A matrix acting on vectorised operators, plus its basis bookkeeping.

    ``index`` (int64) holds, for each row/column in order, the distinct flat row-major
    positions ``j*N + k`` in ``0..N^2 - 1`` of the operator-basis elements ``|j><k|`` they
    span (:class:`ValidationError` otherwise).  Omitted, it is the full space ``arange(N^2)``.
    """

    matrix: np.ndarray
    hilbert_dim: int
    index: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"superoperator matrix must be square, got {m.shape}")
        index = np.arange(self.hilbert_dim**2) if self.index is None else self.index
        index = _check_positions(index, self.hilbert_dim)
        index.flags.writeable = False
        if index.shape != (m.shape[0],):
            raise ValidationError(f"matrix dim {m.shape[0]} does not match {index.size} positions")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "index", index)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace_vector(self) -> np.ndarray:
        """Vector t with t[i] = 1 on diagonal elements |j><j|, so t . x = tr(unvec(x))."""
        j, k = np.divmod(self.index, self.hilbert_dim)
        return (j == k).astype(float)


@dataclass(frozen=True)
class _Nonzeros:
    """A superoperator as the entries of its matrix that may be nonzero.

    ``at`` holds their ascending (row-major) flat positions ``row * dim + col`` in the
    ``dim x dim`` matrix on the basis ``index`` (as :class:`SuperOperator`'s), and
    ``values`` their values; every other entry is +0.
    """

    at: np.ndarray
    values: np.ndarray
    hilbert_dim: int
    index: np.ndarray

    @property
    def dim(self) -> int:
        return self.index.size

    trace_vector = SuperOperator.trace_vector


def _entries(sup) -> _Nonzeros:
    """``sup`` itself, or a dense :class:`SuperOperator` read through its nonzero entries."""
    if isinstance(sup, _Nonzeros):
        return sup
    m = sup.matrix
    if not m.flags.c_contiguous:  # a column-major block: no row-major copy of it
        rows, cols = np.nonzero(m)
        return _Nonzeros(rows * m.shape[1] + cols, m[rows, cols], sup.hilbert_dim, sup.index)
    m = m.reshape(-1)
    at = np.flatnonzero(m)
    return _Nonzeros(at, m[at], sup.hilbert_dim, sup.index)


def _check_positions(keep, hilbert_dim: int) -> np.ndarray:
    """Non-empty ``keep`` as int64 distinct flat positions ``j*N + k`` in ``0..N^2 - 1``."""
    keep = np.asarray(keep)
    if keep.ndim != 1 or keep.size == 0 or keep.dtype.kind not in "iu":
        raise ValidationError("sector positions must be a non-empty 1-D integer array of j*N + k")
    keep = keep.astype(np.int64)
    n2 = hilbert_dim**2
    if np.any((keep < 0) | (keep >= n2)) or _distinct([keep]).size < keep.size:
        raise ValidationError(f"sector positions must be distinct and lie in 0..{n2 - 1}")
    return keep


def _kept(nz: _Nonzeros, keep) -> tuple:
    """``(rows, cols, values)`` of the entries of ``nz`` between the distinct flat
    positions ``keep``, in block rows and columns (their order in ``keep``), under the one
    invariance rule of every block: :class:`SectorNotInvariant` if the largest entry that
    couples a kept position to a dropped one exceeds ``SECTOR_REL`` times the largest
    kept entry, that coupling, and 1."""
    keep = _check_positions(keep, nz.hilbert_dim)
    absent = _positions(nz.index, nz.hilbert_dim)[keep] < 0
    if np.any(absent):
        raise ValidationError(f"positions not in this superoperator: {keep[absent][:4].tolist()}")
    where = _positions(keep, nz.hilbert_dim)[nz.index]  # each row's block row; -1 if dropped
    rows, cols = where[nz.at // nz.dim], where[nz.at % nz.dim]
    kept = (rows >= 0) & (cols >= 0)
    coupling = float(np.abs(nz.values[(rows >= 0) != (cols >= 0)]).max(initial=0.0))
    scale = max(1.0, float(np.abs(nz.values[kept]).max(initial=0.0)), coupling)
    if coupling > SECTOR_REL * scale:
        raise SectorNotInvariant(
            f"cross-sector coupling {coupling:.3e} exceeds {SECTOR_REL:.1e} * {scale:.3e}"
        )
    return rows[kept], cols[kept], nz.values[kept]


def _block(nz: _Nonzeros, keep) -> np.ndarray:
    """The block of ``nz`` on the distinct flat positions ``keep``, in their order: every
    sector block is scattered here from :func:`_kept`'s entries, under its rule.  It is
    column-major, as LAPACK takes it, so an eigensolve can work on it in place."""
    rows, cols, values = _kept(nz, keep)
    block = np.zeros((np.size(keep),) * 2, dtype=complex, order="F")
    block[rows, cols] = values
    return block


# products per chunk: a term with more is split between the nonzeros of its left factor
_CHUNK = 1 << 12


def _supports(terms):
    """Each term ``c * kron(A, B)`` on ``nonzero(A) x nonzero(B)``, as ``(j, k, j', k', v)``.

    ``v`` holds ``c A[j, j'] B[k, k']``, the entry at row ``j*N + k`` and column
    ``j'*N + k'``; the four index arrays broadcast to its shape.  A term's positions are
    distinct, and it comes in chunks of at most ``_CHUNK`` products (or of one nonzero of
    A).  Skipped products are zeros, and a sum that starts at +0 never becomes -0, so
    adding the terms in order is bit-equal to the dense loop ``out += c * kron(A, B)``.
    """
    for c, a, b in terms:
        ja, jb = np.nonzero(a)
        ka, kb = np.nonzero(b)
        step = max(1, _CHUNK // max(1, ka.size))
        for s in range(0, ja.size, step):
            j, j2 = ja[s : s + step, None], jb[s : s + step, None]
            # both operands 2-D: numpy rounds a (1, 1) * (1,) complex product without
            # the fused multiply-add that np.kron's loop uses
            v = a[j, j2] * b[ka, kb][None, :]
            v *= c
            yield j, ka, j2, kb, v


def _distinct(chunks) -> np.ndarray:
    """The distinct positions of a stream of int64 arrays, ascending.  The chunks gather
    behind the result so far and are merged into it once they hold as many positions as
    it does, so a merge reads at most twice the result and a chunk."""
    parts, held = [np.empty(0, dtype=np.int64)], 0
    for chunk in chunks:
        parts.append(chunk.reshape(-1))
        held += chunk.size
        if held >= parts[0].size:
            parts, held = [_merged(parts)], 0
    return _merged(parts) if held else parts[0]


def _merged(parts: list) -> np.ndarray:
    """The distinct positions of ``parts``, ascending; ``parts`` is emptied to free them."""
    merged = np.concatenate(parts)
    parts.clear()
    merged.sort()
    new = np.ones(merged.size, dtype=bool)
    new[1:] = merged[1:] != merged[:-1]
    return merged[new]


def _sparse_sum(at_a: np.ndarray, a, at_b: np.ndarray, b) -> tuple:
    """``(at, values)``: the distinct positions of ``at_a`` and ``at_b``, ascending, and
    the values that a zero vector holds there after ``x[at_a] = a`` and then
    ``x[at_b] += b``, computed as those assignments compute them."""
    at = _distinct([at_a, at_b])
    values = np.zeros(at.size, dtype=complex)
    values[np.searchsorted(at, at_a)] = a
    values[np.searchsorted(at, at_b)] += b
    return at, values


def _nonzeros(hilbert_dim: int, *term_lists) -> tuple:
    """Each of ``term_lists`` as a full-space :class:`_Nonzeros`: its sums on the entries
    that the terms of any of the lists touch, which all of them share.

    Each sum runs from +0 term by term in order, as :func:`_assemble` adds entry by
    entry.  The products are formed twice, once for their positions (:func:`_distinct`)
    and once to add them, so that no more than a chunk of them is held at once.
    """
    shape = (hilbert_dim,) * 4
    supports = itertools.chain.from_iterable(map(_supports, term_lists))
    at = _distinct(np.ravel_multi_index((j, k, j2, k2), shape) for j, k, j2, k2, _ in supports)
    sums = []
    for terms in term_lists:
        values = np.zeros(at.size, dtype=complex)
        for j, k, j2, k2, v in _supports(terms):
            here = np.ravel_multi_index((j, k, j2, k2), shape)
            values[np.searchsorted(at, here)] += v  # a term's positions are distinct
        sums.append(values)
    return tuple(_Nonzeros(at, v, hilbert_dim, np.arange(hilbert_dim**2)) for v in sums)


def _assemble(terms, hilbert_dim: int) -> np.ndarray:
    """``sum c * kron(A, B)`` over ``terms`` of ``(c, A, B)``, N^2 x N^2, written through
    an ``(N, N, N, N)`` view."""
    n = hilbert_dim
    out = np.zeros((n * n, n * n), dtype=complex)
    for j, k, j2, k2, v in _supports(terms):
        # unbuffered: ``+=`` would first gather a copy of every touched entry
        np.add.at(out.reshape(n, n, n, n), (j, k, j2, k2), v)
    return out


def _terms(model: LindbladModel) -> tuple:
    """The (c, A, B) terms of ``-i ad H`` and of ``D``, in assembly order."""
    h = model.hamiltonian
    eye = np.eye(model.dim, dtype=complex)
    dissipator = []
    for L in model.lindblads:
        ldl = dagger(L) @ L
        dissipator += [(2.0, L, L.conj()), (-1.0, ldl, eye), (-1.0, eye, ldl.T)]
    return ((-1j, h, eye), (1j, eye, h.T)), dissipator


def _split(model: LindbladModel, index=None) -> tuple:
    """``-i ad H`` and ``D`` on the flat positions ``index`` (default: all); each part's
    block must be invariant on its own, as ``a + gamma * d`` at any gamma needs."""
    if index is None:
        return tuple(_assemble(terms, model.dim) for terms in _terms(model))
    return tuple(_block(part, index) for part in _nonzeros(model.dim, *_terms(model)))


def _largest_part(a: np.ndarray) -> float:
    """The largest real or imaginary part of ``a`` in magnitude, read through a float view
    of either memory layout (no temporary, and no warning where ``|z|`` itself would
    overflow)."""
    parts = np.asarray(a, dtype=complex).ravel(order="K").view(np.float64)
    return float(max(parts.max(initial=0.0), -parts.min(initial=0.0)))


def _overflows(d: np.ndarray, gamma: float) -> bool:
    """Whether ``gamma * d`` overflows.

    It stays finite exactly while gamma times the largest real or imaginary part of
    ``d`` does; the product of two Python floats overflows to inf without a warning.
    """
    return not math.isfinite(float(gamma) * _largest_part(d))


def _refuse_large(hamiltonian: np.ndarray, lindblads, gamma: float | None = None) -> None:
    """The magnitude rule: refuse a model whose generator norms could overflow.

    The Frobenius norms are bounded from the largest real or imaginary part ``h`` of
    ``H`` and ``l_m`` of each jump, in Python floats (which overflow to inf without a
    warning): ``|-i ad H| <= 2 sqrt(2) N^1.5 h`` and ``|D| <= sum_m (4 + 4 sqrt(N)) N^2
    l_m^2``, since ``|kron(A, B)| = |A| |B|``.  Without ``gamma`` each term must stay
    below ``operators._NORM_LIMIT`` on its own; with it, ``-i ad H + gamma D`` must.
    """
    parts = [_largest_part(L) for L in lindblads]
    _refuse_large_parts(hamiltonian.shape[0], _largest_part(hamiltonian), parts, gamma)


def _at_coupling(a: np.ndarray, d: np.ndarray, gamma: float, out=None) -> np.ndarray:
    """The generator ``a + gamma * d`` at one coupling, bit-equal to that expression.

    A coupling whose ``gamma * d`` overflows is refused before any arithmetic.
    ``out=d`` forms the product and the sum in place of ``d``.
    """
    if _overflows(d, gamma):
        raise ValidationError(f"coupling gamma = {gamma} overflows gamma * D")
    out = np.multiply(d, gamma, out=out)
    out += a
    return out


def build_superoperator(model: LindbladModel, index=None) -> SuperOperator:
    """Generator ``-i ad H + gamma D``, N^2 x N^2 or only its block on the flat positions
    ``index``, which must be invariant (:class:`SectorNotInvariant` otherwise)."""
    if index is None:
        a, d = _split(model)
        return SuperOperator(_at_coupling(a, d, model.gamma, out=d), model.dim)
    return SuperOperator(_block(_generator_entries(model), index), model.dim, index)


def _generator_entries(model: LindbladModel) -> _Nonzeros:
    """The full generator ``-i ad H + gamma D`` as its nonzero entries: bit-equal to
    :func:`build_superoperator`'s matrix, with no N^2 x N^2 array.  An entry that one
    part lacks is +0 there, as in the dense parts."""
    a, d = _nonzeros(model.dim, *_terms(model))
    return replace(d, values=_at_coupling(a.values, d.values, model.gamma, out=d.values))


def average_damping(sup: SuperOperator) -> float:
    """Mean decay rate ``-Tr(matrix) / dim``; equals gamma for trace-normalised models."""
    return float(-_trace(sup).real / sup.dim)


def _trace(sup) -> complex:
    """``Tr(matrix)`` of a :class:`SuperOperator` or of its nonzero entries, summed as
    ``np.trace`` sums it: pairwise over the diagonal vector, zeros included.  A dense
    matrix gives a contiguous copy of its diagonal and nothing else is read."""
    if isinstance(sup, _Nonzeros):
        diagonal = np.zeros(sup.dim, dtype=complex)
        on = sup.at % (sup.dim + 1) == 0
        diagonal[sup.at[on] // (sup.dim + 1)] = sup.values[on]
    else:
        diagonal = np.diagonal(sup.matrix).copy()
    return diagonal.sum()


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


def propagator(sup, t: float) -> SuperOperator:
    """Time-t propagator ``exp(t * matrix)`` of a :class:`SuperOperator`, or of a
    generator's nonzero entries (``_generator_entries``), which give the same words.

    Computed by scaling-and-squaring rather than eigendecomposition so it
    stays valid at exceptional (defective) spectral points.  ``t * matrix`` is written
    into the exponential's own workspace, so a propagator holds 6 matrices of the
    generator's size at most beside the generator, where ``scipy.linalg.expm(t * matrix)``
    held 9; its bits are scipy's.  From the entries, no dense generator is held at all.
    """
    if not np.isfinite(t):
        raise ValidationError(f"propagation time must be finite, got {t}")
    dense = isinstance(sup, SuperOperator)
    if _overflows(sup.matrix if dense else sup.values, t):
        raise ValidationError(f"propagation time t = {t} overflows t * matrix")
    return SuperOperator(_expm(sup.matrix if dense else sup, t), sup.hilbert_dim, sup.index)


def _positions(index: np.ndarray, hilbert_dim: int) -> np.ndarray:
    """Row holding each flat position ``j*N + k`` of ``index``; -1 where absent."""
    pos = np.full(hilbert_dim**2, -1, dtype=np.int64)
    pos[index] = np.arange(index.size)
    return pos


def _conjugate_rows(index: np.ndarray, hilbert_dim: int) -> np.ndarray:
    """Row holding ``|k><j|`` for each row ``|j><k|`` of ``index``; a basis that lacks
    one is refused."""
    j, k = np.divmod(index, hilbert_dim)
    rows = _positions(index, hilbert_dim)[k * hilbert_dim + j]
    if np.any(rows < 0):
        raise ValidationError("basis is not closed under |j><k| -> |k><j|")
    return rows


def hermiticity_residual(sup: SuperOperator) -> float:
    """How badly the map fails to send Hermitian operators to Hermitian ones.

    Returns the maximum over operator-basis elements of the 2-norm of
    ``L(rho^dag) - (L rho)^dag``, i.e. the largest column norm of
    ``SwapConj(matrix) - matrix``, where ``SwapConj`` conjugates the matrix by
    the antilinear map rho -> rho^dag.  Zero (to rounding) for any
    Lindblad-built superoperator; of order 1 for maps like ``rho -> i rho``.
    ``sup`` may also be a generator's nonzero entries (``_generator_entries``).
    """
    nz = _entries(sup)
    dim = nz.dim
    mirror = _conjugate_rows(nz.index, nz.hilbert_dim)
    # entry (r, c) of the difference is conj(m[mirror r, mirror c]) - m[r, c], so it can
    # be nonzero only on the entries and on the mirror images that they lack
    images = (_mirrored(nz.at[s : s + _CHUNK], mirror) for s in range(0, nz.at.size, _CHUNK))
    at = _distinct(itertools.chain([nz.at], (i[~_lookup(nz, i)[1]] for i in images)))
    # each column's squares are added in row order, as np.linalg.norm(axis=0) adds the
    # rows of the dense C-ordered difference
    columns = np.zeros(dim)
    for s in range(0, at.size, _CHUNK):
        here = at[s : s + _CHUNK]
        diff = np.conjugate(_lookup(nz, _mirrored(here, mirror))[0])
        diff -= _lookup(nz, here)[0]
        np.add.at(columns, here % dim, (diff.conj() * diff).real)
    return float(np.sqrt(columns).max())


def _mirrored(at: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """Flat positions ``(mirror r, mirror c)`` of the flat positions ``(r, c)``."""
    rows, cols = np.divmod(at, mirror.size)
    return mirror[rows] * mirror.size + mirror[cols]


def _lookup(nz: _Nonzeros, where: np.ndarray) -> tuple:
    """The entries of ``nz`` at the flat positions ``where`` (+0 where it has none), and
    whether it has them."""
    slot = np.minimum(np.searchsorted(nz.at, where), nz.at.size - 1)
    found = nz.at[slot] == where
    return np.where(found, nz.values[slot], 0.0), found


def sector_restrict(sup: SuperOperator, keep) -> SuperOperator:
    """Principal submatrix on the distinct flat positions ``keep`` (``j*N + k``), in order.

    ``sup`` itself is returned when ``keep`` equals ``sup.index``.  Otherwise the block
    is gathered from the nonzero entries of ``sup.matrix`` under the invariance rule of
    every sector block (:func:`_block`), or :class:`SectorNotInvariant` is raised.
    Extraction keeps the exact generator of the block, with no projector sandwiching.
    """
    keep = _check_positions(keep, sup.hilbert_dim)
    if np.array_equal(keep, sup.index):
        return sup
    return SuperOperator(_block(_entries(sup), keep), sup.hilbert_dim, keep)
