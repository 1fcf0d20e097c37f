"""First-order behaviour of the spectrum in the coupling strength.

At zero coupling the N population modes (projectors onto energy eigenstates)
all sit at the origin of the shifted spectrum; their first-order motion is
governed by the N x N matrix

    V[j, k] = < d_j, (D + 1) d_k >,      d_j = |psi_j><psi_j|,

computed here directly from this defining inner product.  Its eigenvalues
are the population decay velocities and always include 1 (the steady-state
direction); for parity-time-symmetric models V is real and symmetric, which
is what keeps the population modes on the real axis.

The module also provides finite-difference validation of eigenvalue
velocities ``d lambda / d gamma = <v, D u>``, diagnostics for degenerate
energies and energy gaps (the situations in which the symmetric phase can
terminate at zero coupling), and the order-of-magnitude estimate of the
breaking threshold from the dissipator norm and the density of states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAtEvaluationPoint, ValidationError
from .liouville import (
    LindbladModel,
    SuperOperator,
    build_superoperator,
    dissipator_superoperator,
    sector_restrict,
    traceless_dissipator,
)
from .operators import vec
from .spectral import DEFAULT_TAU_REL, DEGENERACY_REL_TOL, eig_biortho

__all__ = [
    "PerturbationReport",
    "VelocityReport",
    "DegeneracyReport",
    "population_matrix",
    "velocity_check",
    "degeneracy_report",
    "heuristic_gamma_pt",
]


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component real positive (reproducible vectors)."""
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) == 0.0:
        return v
    return v * (np.conj(v[k]) / abs(v[k]))


@dataclass(frozen=True)
class PerturbationReport:
    """Population decay matrix and its spectrum.

    ``v_matrix`` is the real part of the computed matrix; how far the raw
    matrix was from real and from symmetric is recorded in the two defect
    fields rather than assumed away.  ``xi`` are its eigenvalues (the
    first-order population velocities), ``hybridization[:, a]`` the
    corresponding eigenvector in the energy-projector basis.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    v_matrix: np.ndarray = field(repr=False)
    xi: np.ndarray
    hybridization: np.ndarray = field(repr=False)
    symmetry_defect: float
    reality_defect: float


def population_matrix(model: LindbladModel) -> PerturbationReport:
    """Compute V from its defining inner product in the energy eigenbasis."""
    energies, psi = np.linalg.eigh(model.hamiltonian)
    n = model.dim
    psi = psi.copy()
    for j in range(n):
        psi[:, j] = _fix_phase(psi[:, j])
    dp = traceless_dissipator(model).matrix
    d_vecs = np.column_stack([vec(np.outer(psi[:, j], psi[:, j].conj())) for j in range(n)])
    v_raw = d_vecs.conj().T @ dp @ d_vecs
    reality = float(np.abs(v_raw.imag).max(initial=0.0))
    symmetry = float(np.abs(v_raw - v_raw.T).max(initial=0.0))
    xi, hyb = np.linalg.eig(v_raw)
    order = np.argsort(-xi.real)
    xi = xi[order]
    hyb = hyb[:, order]
    for a in range(n):
        hyb[:, a] = _fix_phase(hyb[:, a])
    return PerturbationReport(
        energies=energies,
        eigenvectors=psi,
        v_matrix=v_raw.real,
        xi=xi,
        hybridization=hyb,
        symmetry_defect=symmetry,
        reality_defect=reality,
    )


@dataclass(frozen=True)
class VelocityReport:
    """Analytic eigenvalue velocities versus finite differences.

    ``entries`` holds (index, eigenvalue, analytic velocity, fd velocity)
    for every simple eigenvalue; the two confinement maxima cover the
    simple eigenvalues lying on each symmetry line (None when that set is
    empty, as happens when every line member is degenerate).
    """

    entries: tuple
    max_fd_discrepancy: float
    max_h_im_velocity: float | None
    max_v_re_velocity: float | None
    n_on_h: int
    n_on_v: int
    n_skipped_degenerate: int


def velocity_check(
    model: LindbladModel,
    dgamma: float = 1e-5,
    sector: np.ndarray | None = None,
    line_tol_rel: float = DEFAULT_TAU_REL,
    cluster_rel: float = DEGENERACY_REL_TOL,
) -> VelocityReport:
    """Compare ``<v, D u>`` with centred finite differences of the spectrum.

    Eigenvalues at ``gamma +- dgamma`` are tracked by nearest match.  Also
    checks line confinement: a simple eigenvalue on the real axis must have
    a real velocity, and one on the vertical line must have a purely
    imaginary shifted velocity ``<v, (D + 1) u>``.
    """
    if dgamma <= 0:
        raise ValidationError(f"dgamma must be positive, got {dgamma}")
    gamma = model.gamma
    if gamma - dgamma < 0:
        raise ValidationError("gamma - dgamma is negative; pick a smaller step")

    def sector_sup(g: float) -> SuperOperator:
        sup = build_superoperator(LindbladModel(model.hamiltonian, model.lindblads, g))
        return sup if sector is None else sector_restrict(sup, sector)

    dis = dissipator_superoperator(model)
    dis_m = dis.matrix if sector is None else sector_restrict(dis, sector).matrix

    dec = eig_biortho(sector_sup(gamma), cluster_rel=cluster_rel)
    w = dec.eigenvalues
    w_plus = eig_biortho(sector_sup(gamma + dgamma)).eigenvalues
    w_minus = eig_biortho(sector_sup(gamma - dgamma)).eigenvalues

    scale = max(1.0, dec.spectral_radius)
    entries = []
    conf_h: list = []
    conf_v: list = []
    skipped = 0
    for k in range(dec.dim):
        if not dec.is_simple(k):
            skipped += 1
            continue
        u = dec.right_vectors[:, k]
        v = dec.left_vectors[:, k]
        denom = np.vdot(u, v)
        if abs(denom) < 1e-12:
            skipped += 1
            continue
        analytic = np.vdot(v, dis_m @ u) / np.conj(denom)
        lam_p = w_plus[np.argmin(np.abs(w_plus - w[k]))]
        lam_m = w_minus[np.argmin(np.abs(w_minus - w[k]))]
        fd = (lam_p - lam_m) / (2.0 * dgamma)
        entries.append((k, w[k], analytic, fd))
        if abs(w[k].imag) <= line_tol_rel * scale:
            conf_h.append(abs(analytic.imag))
        elif abs(w[k].real + gamma) <= line_tol_rel * scale:
            conf_v.append(abs((analytic + 1.0).real))
    if not entries:
        raise DegenerateAtEvaluationPoint(
            "no simple eigenvalues at this coupling; velocities are undefined"
        )
    return VelocityReport(
        entries=tuple(entries),
        max_fd_discrepancy=float(max(abs(a - f) for _, _, a, f in entries)),
        max_h_im_velocity=max(conf_h) if conf_h else None,
        max_v_re_velocity=max(conf_v) if conf_v else None,
        n_on_h=len(conf_h),
        n_on_v=len(conf_v),
        n_skipped_degenerate=skipped,
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


def degeneracy_report(
    hamiltonian: np.ndarray,
    tol: float | None = None,
    blocks=None,
    max_listed: int = 500,
) -> DegeneracyReport:
    """List degenerate energy pairs and degenerate gap pairs.

    ``blocks``, when given, assigns a conserved quantum number to each
    eigenstate (after sorting energies ascending); pairs and gaps are then
    only compared within equal block labels.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if np.linalg.norm(h - h.conj().T) > 1e-12 * max(1.0, np.linalg.norm(h)):
        raise ValidationError("Hamiltonian is not Hermitian")
    energies = np.linalg.eigh(h)[0]
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.linalg.norm(h)))
    n = energies.size
    if blocks is not None and len(blocks) != n:
        raise ValidationError(f"blocks has length {len(blocks)}, expected {n}")

    def same_block(j, k):
        return blocks is None or blocks[j] == blocks[k]

    pairs = [
        (j, k)
        for j in range(n)
        for k in range(j + 1, n)
        if same_block(j, k) and abs(energies[j] - energies[k]) <= tol
    ]
    gaps = [
        (j, k, energies[k] - energies[j])
        for j in range(n)
        for k in range(j + 1, n)
        if same_block(j, k)
    ]
    gap_pairs = []
    for a in range(len(gaps)):
        ja, ka, ga = gaps[a]
        for b in range(a + 1, len(gaps)):
            jb, kb, gb = gaps[b]
            if abs(ga - gb) <= tol:
                gap_pairs.append(((ja, ka), (jb, kb)))
                if len(gap_pairs) >= max_listed:
                    break
        if len(gap_pairs) >= max_listed:
            break
    return DegeneracyReport(
        energies=energies,
        degenerate_pairs=tuple(pairs),
        degenerate_gap_pairs=tuple(gap_pairs),
        tol=float(tol),
    )


def heuristic_gamma_pt(dissipator: SuperOperator, hamiltonian: np.ndarray) -> float:
    """Order-of-magnitude estimate of the symmetry-breaking coupling.

    Computes ``1 / (|D + 1|_2 * d^2)`` with the mean level density
    ``d = (N - 1) / (E_max - E_min)``.  ``dissipator`` must be the
    trace-normalised dissipator (trace -N^2), to which the identity shift
    is applied internally.  Output is an order of magnitude only; the mean
    density is a documented convention, the spectrum being the sole input.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    n = h.shape[0]
    if dissipator.dim != n * n:
        raise ValidationError(
            f"dissipator dim {dissipator.dim} does not match Hamiltonian dim {n}"
        )
    tr = np.trace(dissipator.matrix)
    if abs(tr + n * n) > 1e-9 * n * n:
        raise ValidationError(f"dissipator trace {tr:.6g} is not -N^2 = {-n * n}")
    energies = np.linalg.eigh(h)[0]
    span = float(energies[-1] - energies[0])
    if span <= 0.0:
        raise ValidationError("energy spectrum has zero span; density of states undefined")
    density = (n - 1) / span
    dp_norm = float(np.linalg.norm(dissipator.matrix + np.eye(n * n), 2))
    return 1.0 / (dp_norm * density * density)
