"""Assembly of Lindblad superoperators, propagators, and sector restriction.

The generator acts as ``d rho/dt = -i[H, rho] + gamma * D rho`` with the
dissipator ``D rho = sum_m 2 L_m rho L_m^dag - L_m^dag L_m rho
- rho L_m^dag L_m``.  In the row-major operator basis this is assembled as

    -i (kron(H, I) - kron(I, H.T))
    + gamma * sum_m [2 kron(L_m, conj(L_m)) - kron(L_m^dag L_m, I)
                     - kron(I, (L_m^dag L_m).T)]

For jump operators normalised so that ``Tr D = -N^2`` (the boundary-driven
XXZ family is), the average damping rate ``-Tr L / N^2`` equals ``gamma``
and ``D + 1`` is the traceless part of the dissipator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SectorNotInvariant, ValidationError
from .operators import dagger, mat_exp, vec

__all__ = [
    "LindbladModel",
    "SuperOperator",
    "build_superoperator",
    "dissipator_superoperator",
    "traceless_dissipator",
    "average_damping",
    "traceless_part",
    "propagator",
    "hermiticity_residual",
    "sector_restrict",
    "left_identity_residual",
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
        hnorm = np.linalg.norm(h)
        if np.linalg.norm(h - h.conj().T) > 1e-12 * max(1.0, hnorm):
            raise ValidationError("Hamiltonian is not Hermitian")
        ls = tuple(np.asarray(L, dtype=complex) for L in self.lindblads)
        for m, L in enumerate(ls):
            if L.shape != h.shape:
                raise ValidationError(f"lindblads[{m}] has shape {L.shape}, expected {h.shape}")
            if not np.all(np.isfinite(L)):
                raise ValidationError(f"lindblads[{m}] has non-finite entries")
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

    ``index`` (int64) holds, for each row/column in order, the flat row-major
    position ``j*N + k`` of the operator-basis element ``|j><k|`` it spans.
    Omitted, it is the full space ``arange(N^2)``.
    """

    matrix: np.ndarray
    hilbert_dim: int
    index: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"superoperator matrix must be square, got {m.shape}")
        index = np.arange(self.hilbert_dim**2) if self.index is None else self.index
        index = np.array(index, dtype=np.int64)
        index.flags.writeable = False
        if index.shape != (m.shape[0],):
            raise ValidationError(f"matrix dim {m.shape[0]} does not match {index.size} positions")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "index", index)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_full_space(self) -> bool:
        return self.dim == self.hilbert_dim**2

    def trace_vector(self) -> np.ndarray:
        """Vector t with t[i] = 1 on diagonal elements |j><j|, so t . x = tr(unvec(x))."""
        j, k = np.divmod(self.index, self.hilbert_dim)
        return (j == k).astype(float)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply to an operator (full space) or a state vectorised in ``index`` order."""
        x = np.asarray(rho, dtype=complex)
        if x.ndim == 2:
            if not self.is_full_space:
                raise ValidationError("matrix-valued apply needs a full-space superoperator")
            out = np.empty(self.dim, dtype=complex)
            out[self.index] = self.matrix @ vec(x)[self.index]
            return out.reshape(x.shape)
        return self.matrix @ x

    def replace_matrix(self, matrix: np.ndarray) -> "SuperOperator":
        return SuperOperator(matrix, self.hilbert_dim, self.index)


def _dissipator_matrix(model: LindbladModel) -> np.ndarray:
    n = model.dim
    eye = np.eye(n, dtype=complex)
    out = np.zeros((n * n, n * n), dtype=complex)
    for L in model.lindblads:
        ldl = dagger(L) @ L
        out += 2.0 * np.kron(L, L.conj())
        out -= np.kron(ldl, eye)
        out -= np.kron(eye, ldl.T)
    return out


def _hamiltonian_matrix(h: np.ndarray) -> np.ndarray:
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def build_superoperator(model: LindbladModel) -> SuperOperator:
    """Full generator ``-i ad H + gamma D`` as an N^2 x N^2 matrix."""
    matrix = _hamiltonian_matrix(model.hamiltonian) + model.gamma * _dissipator_matrix(model)
    return SuperOperator(matrix, model.dim)


def dissipator_superoperator(model: LindbladModel) -> SuperOperator:
    """The dissipator ``D`` alone (independent of gamma)."""
    return SuperOperator(_dissipator_matrix(model), model.dim)


def traceless_dissipator(model: LindbladModel, tol: float = 1e-9) -> SuperOperator:
    """``D + 1`` for a trace-normalised dissipator.

    The shift by the identity is only meaningful when ``Tr D = -N^2``; models
    whose jump operators are not normalised that way are refused.
    """
    dis = _dissipator_matrix(model)
    n2 = model.dim**2
    tr = np.trace(dis)
    if abs(tr + n2) > tol * n2:
        raise ValidationError(
            f"dissipator trace {tr:.6g} is not -N^2 = {-n2}; rescale the jump operators"
        )
    return SuperOperator(dis + np.eye(n2), model.dim)


def average_damping(sup: SuperOperator) -> float:
    """Mean decay rate ``-Tr(matrix) / dim``; equals gamma for trace-normalised models."""
    return float(-np.trace(sup.matrix).real / sup.dim)


def traceless_part(sup: SuperOperator) -> SuperOperator:
    """Shift by the average damping so the result is traceless."""
    gamma_bar = average_damping(sup)
    return sup.replace_matrix(sup.matrix + gamma_bar * np.eye(sup.dim))


def propagator(sup: SuperOperator, t: float) -> SuperOperator:
    """Time-t propagator ``exp(t * matrix)``.

    Computed by scaling-and-squaring rather than eigendecomposition so it
    stays valid at exceptional (defective) spectral points.
    """
    if not np.isfinite(t):
        raise ValidationError(f"propagation time must be finite, got {t}")
    return sup.replace_matrix(mat_exp(t * sup.matrix))


def _positions(index: np.ndarray, hilbert_dim: int) -> np.ndarray:
    """Row holding each flat position ``j*N + k`` of ``index``; -1 where absent."""
    pos = np.full(hilbert_dim**2, -1, dtype=np.int64)
    pos[index] = np.arange(index.size)
    return pos


def _conjugate_rows(index: np.ndarray, hilbert_dim: int) -> np.ndarray:
    """Row holding ``|k><j|`` for each row ``|j><k|`` of ``index``; -1 where absent."""
    j, k = np.divmod(index, hilbert_dim)
    return _positions(index, hilbert_dim)[k * hilbert_dim + j]


def _swap_conjugate(sup: SuperOperator) -> np.ndarray:
    """Conjugation of the superoperator by the antilinear map rho -> rho^dag."""
    perm = _conjugate_rows(sup.index, sup.hilbert_dim)
    if np.any(perm < 0):
        raise ValidationError(
            "basis is not closed under |j><k| -> |k><j|; "
            "hermiticity conjugation is undefined on this sector"
        )
    conj = sup.matrix.conj()
    return conj[np.ix_(perm, perm)]


def hermiticity_residual(sup: SuperOperator) -> float:
    """How badly the map fails to send Hermitian operators to Hermitian ones.

    Returns the maximum over operator-basis elements of the 2-norm of
    ``L(rho^dag) - (L rho)^dag``, i.e. the largest column norm of
    ``matrix - SwapConj(matrix)``.  Zero (to rounding) for any Lindblad-built
    superoperator; of order 1 for maps like ``rho -> i rho``.
    """
    diff = sup.matrix - _swap_conjugate(sup)
    return float(np.linalg.norm(diff, axis=0).max())


def sector_restrict(sup: SuperOperator, keep, tol: float = 1e-12) -> SuperOperator:
    """Principal submatrix on the distinct flat positions ``keep`` (``j*N + k``), in order.

    ``sup`` itself is returned when ``keep`` equals ``sup.index``.  The kept
    positions must form an invariant block: any coupling between kept and
    dropped positions above ``tol`` (relative to the largest matrix entry)
    raises :class:`SectorNotInvariant`.  Extraction keeps the exact generator
    of the block, with no projector sandwiching.
    """
    keep = np.asarray(keep)
    if keep.ndim != 1 or (keep.size and keep.dtype.kind not in "iu"):
        raise ValidationError("sector positions must be a 1-D integer array of j*N + k")
    keep = keep.astype(np.int64)
    n2 = sup.hilbert_dim**2
    if np.any((keep < 0) | (keep >= n2)) or np.unique(keep).size != keep.size:
        raise ValidationError(f"sector positions must be distinct and lie in 0..{n2 - 1}")
    idx = _positions(sup.index, sup.hilbert_dim)[keep]
    if np.any(idx < 0):
        raise ValidationError(f"positions not in this superoperator: {keep[idx < 0][:4].tolist()}")
    if np.array_equal(idx, np.arange(sup.dim)):
        return sup
    dropped = np.setdiff1d(np.arange(sup.dim), idx)
    scale = max(1.0, np.abs(sup.matrix).max(initial=0.0))
    coupling = max(
        np.abs(sup.matrix[np.ix_(idx, dropped)]).max(initial=0.0),
        np.abs(sup.matrix[np.ix_(dropped, idx)]).max(initial=0.0),
    )
    if coupling > tol * scale:
        raise SectorNotInvariant(
            f"cross-sector coupling {coupling:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    return SuperOperator(sup.matrix[np.ix_(idx, idx)], sup.hilbert_dim, keep)


def left_identity_residual(sup: SuperOperator) -> float:
    """Norm of ``vec(I)^T matrix``; zero for trace-preserving generators."""
    t = sup.trace_vector()
    return float(np.linalg.norm(t @ sup.matrix))
