"""Non-Hermitian eigendecomposition and the dihedral symmetry of the spectrum.

The generator is diagonalised with bi-orthonormal right/left eigenvector
pairs (dense QR/Schur-based LAPACK solve; robust near the eigenvalue
collisions that mark the symmetry-breaking point).  On top of the raw
decomposition this module provides

* the steady state (right null vector, trace-normalised),
* classification of eigenvalues onto the cross formed by the real axis and
  the vertical line Re = -gamma_bar,
* verification that the spectrum is symmetric under reflection across both
  lines, with greedy one-to-one pairing, and
* the eigenvector partner relations that accompany those reflections.

Degenerate eigenvalues (within 1e-8 of the spectral radius by default) are
clustered; clustered members are exempt from bi-orthonormalisation and
partner checks, and reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, NoZeroMode, ValidationError
from .liouville import SuperOperator, _conjugate_rows

__all__ = [
    "SpectralDecomposition",
    "CrossClassification",
    "D2Report",
    "PartnerReport",
    "eig_biortho",
    "steady_state",
    "classify_cross",
    "verify_d2",
    "pt_partner_check",
    "collinearity_error",
    "left_steady_vector",
]

# Per unit spectral radius: distance to a symmetry line, and degeneracy gap.
DEFAULT_TAU_REL = 1e-8
DEGENERACY_REL_TOL = 1e-8
_CLUSTER_ROWS = 128


def collinearity_error(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the principal angle between two vectors (0 = parallel up to phase).

    Computed as the norm of the component of ``a`` orthogonal to ``b``, which
    stays accurate down to machine precision (unlike 1 - |<a,b>|^2).
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    a = a / na
    b = b / nb
    return float(np.linalg.norm(a - np.vdot(b, a) * b))


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

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    @property
    def clustered_indices(self) -> frozenset:
        return frozenset(i for group in self.clusters for i in group)

    def is_simple(self, k: int) -> bool:
        return k not in self.clustered_indices


def _cluster_close_eigenvalues(w: np.ndarray, tol: float) -> tuple:
    """Connected components of eigenvalues closer than ``tol`` to each other.

    The pairs (i, j) with ``|w_i - w_j| <= tol`` are collected a block of
    rows at a time, which keeps the n x n distance matrix out of memory.
    Each eigenvalue then takes the smallest label among its neighbours until
    nothing changes; every component ends up labelled by its smallest index.
    """
    if w.size == 0:
        return ()
    edges = np.concatenate([
        np.argwhere(np.abs(w[start:start + _CLUSTER_ROWS, None] - w) <= tol) + (start, 0)
        for start in range(0, w.size, _CLUSTER_ROWS)
    ])
    labels = np.arange(w.size)
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, edges[:, 0], labels[edges[:, 1]])
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    roots, counts = np.unique(labels, return_counts=True)
    return tuple(tuple(np.flatnonzero(labels == r).tolist()) for r in roots[counts > 1])


def _eig(m: np.ndarray, left: bool = True) -> tuple:
    """Eigenvalues, left and right eigenvectors, sorted by (Re descending, Im ascending).

    With ``left=False`` the left vectors are not computed and come back as None.
    Callers that need only the eigenvalues take that route and discard the right
    vectors: LAPACK runs the same Schur path whenever any eigenvectors are
    requested, so the eigenvalues are bit-equal with or without the left ones.
    Its eigenvalues-only route (``scipy.linalg.eigvals``) rounds the last bits
    differently on blocks of dimension 75 and up, which moves reported
    off-cross distances.
    """
    if not np.all(np.isfinite(m)):
        raise ValidationError("superoperator matrix has non-finite entries")
    try:
        out = scipy.linalg.eig(m, left=left, right=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"dense eigensolver failed on dim {m.shape[0]}: {exc}") from exc
    w, vl, vr = out if left else (out[0], None, out[1])
    order = np.lexsort((w.imag, -w.real))
    return w[order], None if vl is None else vl[:, order], vr[:, order]


def eig_biortho(sup: SuperOperator, cluster_rel: float = DEGENERACY_REL_TOL) -> SpectralDecomposition:
    """Full spectrum with bi-orthonormal right/left eigenvector pairs."""
    m = sup.matrix
    w, vl, vr = _eig(m)

    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    clusters = _cluster_close_eigenvalues(w, cluster_rel * scale)
    simple = ~np.isin(np.arange(w.size), [i for g in clusters for i in g])

    # LAPACK returns left vectors x with x^H m = lambda x^H, i.e. m^dag x = conj(lambda) x.
    # Rescale v so that <u, v> = 1 for every simple pair; pairs with |<u, v>| < 1e-14
    # are numerically defective and stay unnormalised.
    # Norms go column by column: norm(vr, axis=0) rounds the last bit differently (it
    # reaches the steady state), and on the residual it holds two n x n temporaries.
    nrm = np.array([np.linalg.norm(vr[:, k]) for k in range(w.size)])
    vr /= np.where(nrm > 0, nrm, 1.0)
    d = np.einsum("ij,ij->j", vr.conj(), vl)
    vl /= np.where(simple & (np.abs(d) >= 1e-14), d, 1.0)
    mv = m @ vr
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


def steady_state(dec: SpectralDecomposition, tol_rel: float = 1e-9) -> np.ndarray:
    """Right null vector rescaled to unit trace.

    Raises :class:`NoZeroMode` unless an eigenvalue within
    ``tol_rel * matrix_norm`` of zero exists.
    """
    k = int(np.argmin(np.abs(dec.eigenvalues)))
    if abs(dec.eigenvalues[k]) > tol_rel * max(1.0, dec.matrix_norm):
        raise NoZeroMode(
            f"smallest |eigenvalue| is {abs(dec.eigenvalues[k]):.3e}, "
            f"above {tol_rel:.1e} * {dec.matrix_norm:.3e}"
        )
    u = dec.right_vectors[:, k]
    j, kk = np.divmod(dec.index, dec.hilbert_dim)
    trace = sum(u[j == kk])
    if abs(trace) < 1e-300:
        raise NoZeroMode("zero mode has vanishing trace; cannot normalise to a state")
    return u / trace


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


def classify_cross(
    dec: SpectralDecomposition, gamma_bar: float, tau_rel: float = DEFAULT_TAU_REL
) -> CrossClassification:
    """Assign every eigenvalue to the horizontal line, the vertical line, or neither."""
    return _classify(dec.eigenvalues, gamma_bar, tau_rel)


def _classify(w: np.ndarray, gamma_bar: float, tau_rel: float) -> CrossClassification:
    if tau_rel <= 0:
        raise ValidationError(f"tau_rel must be positive, got {tau_rel}")
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


def verify_d2(dec: SpectralDecomposition, gamma_bar: float) -> D2Report:
    """Check mirror symmetry across the vertical line and the real axis.

    For each eigenvalue, the reflection across the vertical line is
    ``-conj(lambda + gamma_bar) - gamma_bar`` and across the real axis is
    ``conj(lambda)``; each reflected value must be matched by a spectrum
    member (greedy one-to-one).  The maxima of the matching distances are
    reported rather than a boolean.
    """
    w = dec.eigenvalues
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


@dataclass(frozen=True)
class PartnerReport:
    """Eigenvector partner relations under the two spectral reflections.

    For each simple eigenvalue the right eigenvector of the vertical-mirror
    partner must be parallel to P v, the left one to P u, and the
    real-axis-mirror partner's right eigenvector to u^dag.  The worst sine
    of principal angle over all checks is reported; members of degenerate
    clusters are skipped and counted.
    """

    max_vector_error: float
    n_checked: int
    n_skipped_degenerate: int
    max_eigenvalue_mismatch: float


def pt_partner_check(
    dec: SpectralDecomposition,
    parity,
    gamma_bar: float,
    match_rel: float = 1e-6,
) -> PartnerReport:
    """Verify the eigenvector relations behind the two spectral reflections."""
    w = dec.eigenvalues
    p = parity.matrix_on(dec.index)
    conj = _conjugate_rows(dec.index, dec.hilbert_dim)
    if np.any(conj < 0):
        raise ValidationError("basis is not closed under conjugation |j><k| -> |k><j|")
    scale = max(1.0, dec.spectral_radius)
    worst = 0.0
    worst_match = 0.0
    checked = 0
    skipped = 0
    for k in range(dec.dim):
        if not dec.is_simple(k):
            skipped += 1
            continue
        # vertical mirror: lambda_beta = -conj(lambda_k + g) - g
        target = -np.conj(w[k] + gamma_bar) - gamma_bar
        beta = int(np.argmin(np.abs(w - target)))
        # real-axis mirror: lambda_eta = conj(lambda_k)
        eta = int(np.argmin(np.abs(w - np.conj(w[k]))))
        match = max(abs(w[beta] - target), abs(w[eta] - np.conj(w[k])))
        worst_match = max(worst_match, match)
        if match > match_rel * scale:
            continue  # reflections unmatched; shows up in max_eigenvalue_mismatch
        checked += 1
        if dec.is_simple(beta):
            worst = max(worst, collinearity_error(dec.right_vectors[:, beta], p @ dec.left_vectors[:, k]))
            worst = max(worst, collinearity_error(dec.left_vectors[:, beta], p @ dec.right_vectors[:, k]))
        if dec.is_simple(eta):
            u_dag = dec.right_vectors[conj, k].conj()
            worst = max(worst, collinearity_error(dec.right_vectors[:, eta], u_dag))
    return PartnerReport(
        max_vector_error=float(worst),
        n_checked=checked,
        n_skipped_degenerate=skipped,
        max_eigenvalue_mismatch=float(worst_match),
    )


def left_steady_vector(dec: SpectralDecomposition) -> np.ndarray:
    """Left eigenvector of the zero mode (the identity, for trace-preserving maps)."""
    k = int(np.argmin(np.abs(dec.eigenvalues)))
    return dec.left_vectors[:, k]
