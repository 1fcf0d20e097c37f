"""Non-Hermitian eigendecomposition and the dihedral symmetry of the spectrum.

The generator is diagonalised with bi-orthonormal right/left eigenvector
pairs (dense QR/Schur-based LAPACK solve; robust near the eigenvalue
collisions that mark the symmetry-breaking point).  On top of the raw
decomposition this module provides

* the steady state (right null vector, trace-normalised),
* classification of eigenvalues onto the cross formed by the real axis and
  the vertical line Re = -gamma_bar,
* verification that the spectrum is symmetric under reflection across both
  lines, with greedy one-to-one pairing.

Degenerate eigenvalues (within 1e-8 of the spectral radius) are clustered;
clustered members are exempt from bi-orthonormalisation, and reported as such.
The eigenvector partner relations behind the two reflections are checked by
``tests/conftest.py::pt_partner_check``, which no command calls.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import ConvergenceFailure, NoZeroMode, ValidationError
from .liouville import SuperOperator, _largest_part

__all__ = [
    "SpectralDecomposition",
    "CrossClassification",
    "D2Report",
    "eig_biortho",
    "steady_state",
    "classify_cross",
    "verify_d2",
]

# Per unit spectral radius: distance to a symmetry line, and degeneracy gap.
DEFAULT_TAU_REL = 1e-8
DEGENERACY_REL_TOL = 1e-8
_CLUSTER_ROWS = 128


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with bi-orthonormal right (u) and left (v) eigenvectors.

    Sorted by (Re descending, Im ascending).  ``right_vectors[:, k]`` and
    ``left_vectors[:, k]`` belong to ``eigenvalues[k]`` and satisfy
    ``<u_j, v_k> = delta_jk`` whenever both indices are outside degenerate
    clusters; ``clusters`` lists the index groups that were too close to
    separate, and ``residuals[k]`` is ``|L u_k - lambda_k u_k|`` with
    ``|u_k| = 1``.  ``index`` holds the flat basis positions ``j*N + k`` of
    the vector entries, as in :class:`SuperOperator`.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    clusters: tuple
    matrix_norm: float
    hilbert_dim: int
    index: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def _close_pairs(x: np.ndarray, tol: float):
    """The pairs (i, j), i < j, with ``|x_i - x_j| <= tol`` in row-major order, an (m, 2)
    array per ``_CLUSTER_ROWS`` rows: no n x n matrix is held, and a caller can stop early."""
    for start in range(0, x.size, _CLUSTER_ROWS):
        near = np.abs(x[start:start + _CLUSTER_ROWS, None] - x[start:]) <= tol
        yield np.argwhere(np.triu(near, 1)) + start


def _cluster_close_eigenvalues(w: np.ndarray, tol: float) -> tuple:
    """Connected components of eigenvalues closer than ``tol`` to each other.

    scipy labels the components of the graph of :func:`_close_pairs`.  Components
    of two or more come back as ascending index tuples, ordered by their smallest index.
    """
    from scipy.sparse import coo_array  # here: at module level, +22 ms on every CLI start
    from scipy.sparse.csgraph import connected_components

    if w.size == 0:
        return ()
    edges = np.concatenate(list(_close_pairs(w, tol)))
    graph = coo_array((np.ones(len(edges)), edges.T), shape=(w.size, w.size))
    labels = connected_components(graph, directed=False)[1]
    _, first, counts = np.unique(labels, return_index=True, return_counts=True)
    return tuple(
        tuple(np.flatnonzero(labels == labels[i]).tolist()) for i in np.sort(first[counts > 1])
    )


def _order(w: np.ndarray) -> np.ndarray:
    """Positions that sort ``w`` by (Re descending, Im ascending)."""
    return np.lexsort((w.imag, -w.real))


def _eig(m: np.ndarray, left: bool = True) -> tuple:
    """Eigenvalues, left and right eigenvectors, sorted by (Re descending, Im ascending).

    With ``left=False`` the left vectors are not computed and come back as None.
    LAPACK's ``zgeev`` runs the same Schur path and the same back-substitution for
    the right vectors whenever any eigenvectors are requested, so the eigenvalues and
    the right vectors are bit-equal with or without the left ones (tested on the
    n = 4 and n = 5 ``dmz0`` blocks and the n = 4 full space).  The last bits of the
    eigenvalues depend on two things: the Schur job (full Schur form, or eigenvalues
    only) and the workspace, from which the multishift QR with aggressive early
    deflation that ``zgeev`` uses from dimension 75 on picks its deflation window.
    Its eigenvalues-only job (``scipy.linalg.eigvals``) changes both, which moves bits
    from dimension 75 on.  :func:`_eigenvalues` takes that job only below 75, keeps
    both from 75 on, and skips the vectors.
    """
    if not np.all(np.isfinite(m)):
        raise ValidationError("superoperator matrix has non-finite entries")
    try:
        out = scipy.linalg.eig(m, left=left, right=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"dense eigensolver failed on dim {m.shape[0]}: {exc}") from exc
    w, vl, vr = out if left else (out[0], None, out[1])
    order = _order(w)
    return w[order], None if vl is None else vl[:, order], vr[:, order]


# zgeev scales a matrix first when its largest |entry| lies outside this range.
_UNSCALED_LOW = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_UNSCALED_HIGH = 1.0 / _UNSCALED_LOW


def _unscaled(m: np.ndarray) -> bool:
    """Whether LAPACK leaves ``m`` unscaled, read from its largest real or imaginary
    part ``p`` (``p <= |entry| <= sqrt(2) p``, and False for a non-finite ``m``)."""
    return _UNSCALED_LOW <= _largest_part(m) <= _UNSCALED_HIGH / 2


# iparmq's NMIN: zhseqr hands a Hessenberg matrix this small to zlahqr, which does the
# same arithmetic on the active window with or without the Schur form.
_SMALL_QR_DIM = 75


def _eigenvalues(build) -> np.ndarray:
    """``_eig(m, left=False)[0]`` bit for bit for ``m = build()``, without computing any
    eigenvector.

    Below dimension ``_SMALL_QR_DIM`` it is ``zgeev``'s eigenvalues-only job: its QR
    (``zlahqr``) does the Schur job's arithmetic on every entry of the active window.
    From 75 on, where the QR picks its deflation window from the job and the workspace,
    it runs ``zgeev``'s steps for the right vectors, less the vectors: balance (permute
    and scale), then the full Schur form with no Schur vectors.  Both take ``zgeev``'s
    workspace for right vectors.  A matrix that ``zgeev`` would scale first (its
    largest entry far from 1), from 75 on one that ``zgees`` would (the balanced one's),
    and a non-complex, empty or non-finite one go to :func:`_eig`, which also refuses
    non-finite entries.

    ``build`` is called with no argument and returns a matrix that this solve owns: a
    column-major one (as :func:`liouville._block` scatters) is balanced and reduced in
    place, with no copy, and holds no longer what it held.  So ``build`` runs a second
    time, and only then, when the balanced matrix fails ``zgees``' range guard and
    :func:`_eig` needs the original.
    """
    m = np.asarray(build())
    if m.dtype != np.complex128 or not _unscaled(m):
        return _eig(m, left=False)[0]
    n = m.shape[0]
    lwork = int(lapack.zgeev_lwork(n, compute_vl=0, compute_vr=1)[0].real)
    if n < _SMALL_QR_DIM:
        w, _, _, info = lapack.zgeev(m, compute_vl=0, compute_vr=0, lwork=lwork, overwrite_a=1)
    else:
        balanced = lapack.zgebal(m, permute=1, scale=1, overwrite_a=1)[0]
        if not _unscaled(balanced):
            m = balanced = None  # drop the overwritten matrix before the rebuild
            return _eig(build(), left=False)[0]
        # the selector is never called: sort_t=0 reorders nothing
        _, _, w, _, _, info = lapack.zgees(
            lambda _: 0, balanced, compute_v=0, sort_t=0, lwork=lwork, overwrite_a=1
        )
    if info != 0:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"dense eigensolver failed on dim {n}: LAPACK info {info}")
    return w[_order(w)]


def _read_only(value):
    """``value``, with every array in it or in its dataclass fields made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _read_only(getattr(value, f.name))
    return value


class _LastSolve:
    """A memo with one slot: the value computed for the last key, made read-only.

    A call with a new key drops the kept value before it computes the next one, and
    the lock lets one computation run at a time, so at most one value is alive.  A
    computation that raises leaves the slot empty.
    """

    def __init__(self):
        self.entries: dict = {}  # at most one: key -> value
        self.lock = threading.Lock()

    def __call__(self, key, compute):
        with self.lock:
            if key not in self.entries:
                self.entries.clear()
                self.entries[key] = _read_only(compute())
            return self.entries[key]


def _unit_columns(vr: np.ndarray) -> None:
    """Scale each nonzero column of ``vr`` to unit 2-norm, in place.

    Norms go column by column: ``norm(vr, axis=0)`` rounds the last bit differently,
    and that reaches the steady state.
    """
    nrm = np.array([np.linalg.norm(vr[:, k]) for k in range(vr.shape[1])])
    vr /= np.where(nrm > 0, nrm, 1.0)


def eig_biortho(sup: SuperOperator) -> SpectralDecomposition:
    """Full spectrum with bi-orthonormal right/left eigenvector pairs."""
    m = sup.matrix
    w, vl, vr = _eig(m)

    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    clusters = _cluster_close_eigenvalues(w, DEGENERACY_REL_TOL * scale)
    simple = ~np.isin(np.arange(w.size), [i for g in clusters for i in g])

    # LAPACK returns left vectors x with x^H m = lambda x^H, i.e. m^dag x = conj(lambda) x.
    # Rescale v so that <u, v> = 1 for every simple pair; pairs with |<u, v>| < 1e-14
    # are numerically defective and stay unnormalised.
    _unit_columns(vr)
    d = np.einsum("ij,ij->j", vr.conj(), vl)
    vl /= np.where(simple & (np.abs(d) >= 1e-14), d, 1.0)
    mv = m @ vr
    # column by column: on the residual, norm(axis=0) holds two n x n temporaries
    residuals = np.array([np.linalg.norm(mv[:, k] - w[k] * vr[:, k]) for k in range(w.size)])

    return SpectralDecomposition(
        eigenvalues=w,
        right_vectors=vr,
        left_vectors=vl,
        residuals=residuals,
        clusters=clusters,
        matrix_norm=float(np.linalg.norm(m)),
        hilbert_dim=sup.hilbert_dim,
        index=sup.index,
    )


def _zero_index(eigenvalues: np.ndarray, matrix_norm: float) -> int:
    """Position of the smallest ``|eigenvalue|``, refused with :class:`NoZeroMode`
    unless it lies within ``1e-9 * max(1, matrix_norm)`` of zero and the second
    smallest does not (a degenerate zero mode has no one steady state)."""
    mod = np.abs(eigenvalues)
    k = int(np.argmin(mod))
    tol = 1e-9 * max(1.0, matrix_norm)
    if mod[k] > tol:
        raise NoZeroMode(
            f"smallest |eigenvalue| is {mod[k]:.3e}, above 1.0e-09 * {matrix_norm:.3e}"
        )
    second = np.partition(mod, 1)[1] if mod.size > 1 else np.inf
    if second <= tol:
        raise NoZeroMode(
            f"zero mode is degenerate: the two smallest |eigenvalue|s {mod[k]:.3e} and "
            f"{second:.3e} are both within 1.0e-09 * {matrix_norm:.3e}"
        )
    return k


def _zero_mode(
    eigenvalues: np.ndarray, right_vectors: np.ndarray, index: np.ndarray,
    hilbert_dim: int, matrix_norm: float,
) -> tuple:
    """Position of the zero mode (:func:`_zero_index`) and its right vector at unit trace.

    The arithmetic of :func:`steady_state`, on the arrays of a right-vector solve.
    """
    k = _zero_index(eigenvalues, matrix_norm)
    u = right_vectors[:, k]
    j, kk = np.divmod(index, hilbert_dim)
    trace = sum(u[j == kk])
    if abs(trace) < 1e-300:
        raise NoZeroMode("zero mode has vanishing trace; cannot normalise to a state")
    return k, u / trace


def steady_state(dec: SpectralDecomposition) -> np.ndarray:
    """Right null vector rescaled to unit trace.

    Raises :class:`NoZeroMode` unless an eigenvalue within
    ``1e-9 * max(1, matrix_norm)`` of zero exists.
    """
    return _zero_mode(
        dec.eigenvalues, dec.right_vectors, dec.index, dec.hilbert_dim, dec.matrix_norm
    )[1]


@dataclass(frozen=True)
class CrossClassification:
    """Partition of eigenvalue indices onto the two symmetry lines.

    ``on_h``: within ``tau`` of the real axis (eigenvalues near both lines
    count as ``on_h`` -- populations take precedence, and both the origin
    and -2 gamma_bar live there).  ``on_v``: within ``tau`` of the vertical
    line Re = -gamma_bar.  ``off_cross``: the rest.  ``distances[k]`` is the
    distance of eigenvalue k to the nearest line.
    """

    on_h: tuple
    on_v: tuple
    off_cross: tuple
    tau: float
    gamma_bar: float
    distances: np.ndarray = field(repr=False)


def _require_positive(name: str, value: float) -> None:
    """Refuse a tolerance that is not a positive, finite number."""
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


def classify_cross(
    eigenvalues: np.ndarray, gamma_bar: float, tau_rel: float = DEFAULT_TAU_REL
) -> CrossClassification:
    """Assign every eigenvalue to the horizontal line, the vertical line, or neither."""
    w = np.asarray(eigenvalues, dtype=complex)
    _require_positive("tau_rel", tau_rel)
    tau = tau_rel * max(1.0, float(np.abs(w).max(initial=0.0)))
    dist_h = np.abs(w.imag)
    dist_v = np.abs(w.real + gamma_bar)
    on_h = dist_h <= tau
    on_v = ~on_h & (dist_v <= tau)
    off = ~on_h & ~on_v
    return CrossClassification(
        on_h=tuple(np.where(on_h)[0]),
        on_v=tuple(np.where(on_v)[0]),
        off_cross=tuple(np.where(off)[0]),
        tau=float(tau),
        gamma_bar=float(gamma_bar),
        distances=np.minimum(dist_h, dist_v),
    )


def _greedy_pairing(w: np.ndarray, targets: np.ndarray) -> tuple:
    """One-to-one nearest-neighbour matching of each target into the spectrum.

    Indices are consumed in decomposition order, each at most once; returns
    (pairing array, per-index distances).
    """
    used = np.zeros(w.size, dtype=bool)
    pairing = np.full(w.size, -1, dtype=int)
    dists = np.zeros(w.size)
    for k in range(w.size):
        d = np.abs(w - targets[k])
        d[used] = np.inf
        j = int(np.argmin(d))
        pairing[k] = j
        dists[k] = d[j]
        used[j] = True
    return pairing, dists


@dataclass(frozen=True)
class D2Report:
    """Worst-case distances of the spectrum from its two mirror images."""

    max_v_error: float
    max_h_error: float
    v_pairing: np.ndarray = field(repr=False)
    h_pairing: np.ndarray = field(repr=False)


def verify_d2(eigenvalues: np.ndarray, gamma_bar: float) -> D2Report:
    """Check mirror symmetry of the spectrum across the vertical line and the real axis.

    For each eigenvalue, the reflection across the vertical line is
    ``-conj(lambda + gamma_bar) - gamma_bar`` and across the real axis is
    ``conj(lambda)``; each reflected value must be matched by a spectrum
    member (greedy one-to-one, in the order given).  The maxima of the
    matching distances are reported rather than a boolean.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    v_targets = -np.conj(w + gamma_bar) - gamma_bar
    h_targets = np.conj(w)
    v_pairing, v_dists = _greedy_pairing(w, v_targets)
    h_pairing, h_dists = _greedy_pairing(w, h_targets)
    return D2Report(
        max_v_error=float(v_dists.max(initial=0.0)),
        max_h_error=float(h_dists.max(initial=0.0)),
        v_pairing=v_pairing,
        h_pairing=h_pairing,
    )
