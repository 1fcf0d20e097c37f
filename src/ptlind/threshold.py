"""Locating the symmetry-breaking coupling and measuring the uniform rate.

The breaking point is defined operationally: a coupling is "unbroken" when
no eigenvalue of the (sector-restricted) generator lies off the cross at
relative tolerance ``tau_rel``, and the threshold is found by bisecting
that boolean between a known-unbroken and a known-broken coupling.  The
predicate is not assumed monotone; every evaluation is retained so a
re-entrant window would be visible in the result.

Small chains are pathological in both directions: the two-site chain never
leaves the cross (verified far beyond any physical coupling), and chains
with degenerate energy gaps leave it at arbitrarily small coupling.  The
bracket validation surfaces both cases as :class:`BracketInvalid` instead
of inventing a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketInvalid, ValidationError
from .liouville import (
    build_superoperator,
    dissipator_superoperator,
    hamiltonian_superoperator,
    propagator,
    sector_restrict,
)
from .operators import dagger, unvec, vec
from .spectral import (
    DEFAULT_TAU_REL,
    CrossClassification,
    _classify,
    _eig,
    eig_biortho,
    steady_state,
)
from .xxz import XXZParams, sector_basis, xxz_model

__all__ = [
    "ThresholdResult",
    "ScalingResult",
    "DecayResult",
    "is_unbroken",
    "find_gamma_pt",
    "scaling_study",
    "observable_decay",
    "coherence_probe_state",
]


def _parts(params: XXZParams, sector: str) -> tuple:
    """The gamma-independent terms ``-i ad H`` and ``D`` of the generator, on ``sector``.

    The generator is affine in gamma, so every coupling's block is ``a + gamma * d``,
    bit-equal to restricting the generator built at that coupling.  Each term must
    leave the sector invariant on its own; then so does every such sum.
    """
    if sector not in ("full", "dmz0"):
        raise ValidationError(f"unknown sector {sector!r}; use 'full' or 'dmz0'")
    model = xxz_model(params)
    terms = (hamiltonian_superoperator(model), dissipator_superoperator(model))
    if sector == "dmz0":
        keep = sector_basis(params.n_sites, 0)
        terms = tuple(sector_restrict(term, keep) for term in terms)
    return tuple(term.matrix for term in terms)


def _overflows(d: np.ndarray, gamma: float) -> bool:
    """Whether ``gamma * d`` overflows.

    It stays finite exactly while gamma times the largest real or imaginary part of
    ``d`` does; the product of two Python floats overflows to inf without a warning.
    """
    d_max = float(max(np.abs(d.real).max(initial=0.0), np.abs(d.imag).max(initial=0.0)))
    return not math.isfinite(float(gamma) * d_max)


def _probe(a: np.ndarray, d: np.ndarray, gamma: float, tau_rel: float) -> tuple:
    if _overflows(d, gamma):
        raise ValidationError(f"coupling gamma = {gamma} overflows gamma * D")
    w, _, _ = _eig(a + gamma * d, left=False)
    cls = _classify(w, gamma, tau_rel)
    return len(cls.off_cross) == 0, cls


def is_unbroken(
    params: XXZParams, sector: str = "dmz0", tau_rel: float = DEFAULT_TAU_REL
) -> tuple[bool, CrossClassification]:
    """Whether the whole (sector) spectrum lies on the cross at this coupling."""
    return _probe(*_parts(params, sector), params.gamma, tau_rel)


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection outcome with its full audit trail.

    ``evaluations`` holds every (gamma, off-cross count, smallest off-cross
    distance) probed, in evaluation order; ``bracket`` is the final
    (unbroken, broken) pair and ``gamma_pt`` its geometric midpoint.
    """

    gamma_pt: float
    bracket: tuple
    evaluations: tuple
    tau_rel: float
    sector: str


def find_gamma_pt(
    n_sites: int,
    delta: float,
    mu: float,
    gamma_min: float,
    gamma_max: float,
    sector: str = "dmz0",
    rel_precision: float = 1e-3,
    tau_rel: float = DEFAULT_TAU_REL,
    max_expand: int = 6,
) -> ThresholdResult:
    """Bisect the off-cross-empty predicate between the two couplings.

    ``gamma_min`` must be unbroken and ``gamma_max`` broken; if not, the
    bracket is expanded by decades up to ``max_expand`` times per side
    before :class:`BracketInvalid` is raised.  Both ends must be finite, and
    upward expansion stops before ``gamma * D`` would overflow.  Bisection is
    geometric (the threshold is a scale) and stops at the requested relative
    precision.
    """
    for name, value in (("gamma_min", gamma_min), ("gamma_max", gamma_max)):
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if not 0 < gamma_min < gamma_max:
        raise ValidationError(f"need 0 < gamma_min < gamma_max, got ({gamma_min}, {gamma_max})")
    if rel_precision <= 0:
        raise ValidationError(f"rel_precision must be positive, got {rel_precision}")
    a, d = _parts(XXZParams(n_sites, delta, mu, gamma_min), sector)
    if _overflows(d, gamma_max):
        raise ValidationError(f"gamma_max = {gamma_max} overflows gamma * D")
    evaluations = []

    def probe(g: float) -> bool:
        ok, cls = _probe(a, d, g, tau_rel)
        off = len(cls.off_cross)
        min_dist = float(min(cls.distances[list(cls.off_cross)])) if off else 0.0
        evaluations.append((g, off, min_dist))
        return ok

    lo, hi = float(gamma_min), float(gamma_max)
    lo_ok = probe(lo)
    for _ in range(max_expand):
        if lo_ok:
            break
        lo /= 10.0
        lo_ok = probe(lo)
    if not lo_ok:
        raise BracketInvalid(
            f"no unbroken coupling found down to gamma = {lo:.3e}; "
            "the spectrum is off the cross at arbitrarily small coupling "
            "(degenerate energy gaps break the symmetric phase at zero)"
        )
    hi_ok = probe(hi)
    for _ in range(max_expand):
        if not hi_ok or _overflows(d, hi * 10.0):
            break
        hi *= 10.0
        hi_ok = probe(hi)
    if hi_ok:
        raise BracketInvalid(
            f"no broken coupling found up to gamma = {hi:.3e}; "
            "the spectrum stays on the cross over the whole range"
        )
    while (hi - lo) / hi > rel_precision:
        mid = float(np.sqrt(lo * hi))
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        gamma_pt=float(np.sqrt(lo * hi)),
        bracket=(lo, hi),
        evaluations=tuple(evaluations),
        tau_rel=tau_rel,
        sector=sector,
    )


@dataclass(frozen=True)
class ScalingResult:
    """Per-length thresholds and the log-linear fit of their decay."""

    entries: tuple
    slope: float
    intercept: float


def scaling_study(
    n_list,
    delta: float,
    mu: float,
    rel_precision: float = 1e-3,
    gamma_min: float = 1e-3,
    gamma_max: float = 20.0,
    sector: str = "dmz0",
    tau_rel: float = DEFAULT_TAU_REL,
) -> ScalingResult:
    """Threshold per chain length plus the slope of ln(threshold) vs length.

    Bracketing failures propagate: a chain that never breaks, or that is
    broken at arbitrarily small coupling, has no threshold to fit.
    """
    n_list = [int(n) for n in n_list]
    if any(n < 2 or n > 5 for n in n_list):
        raise ValidationError(f"chain lengths must lie in 2..5 (desk scale), got {n_list}")
    entries = []
    for n in n_list:
        result = find_gamma_pt(
            n, delta, mu, gamma_min, gamma_max,
            sector=sector, rel_precision=rel_precision, tau_rel=tau_rel,
        )
        entries.append((n, result.gamma_pt))
    if len(entries) < 2:
        return ScalingResult(entries=tuple(entries), slope=float("nan"), intercept=float("nan"))
    ns = np.array([e[0] for e in entries], dtype=float)
    logs = np.log([e[1] for e in entries])
    slope, intercept = np.polyfit(ns, logs, 1)
    return ScalingResult(entries=tuple(entries), slope=float(slope), intercept=float(intercept))


@dataclass(frozen=True)
class DecayResult:
    """Deviation time series of one observable and its fitted decay rate.

    The rate comes from linear regression of ``log |deviation|`` against
    time over the points where the deviation exceeds ``floor``, skipping
    the first 5% of the grid (transients from population-sector
    admixture); ``nan`` when fewer than two points survive.
    """

    times: np.ndarray
    deviations: np.ndarray
    fitted_rate: float
    n_fit_points: int


def observable_decay(
    params: XXZParams,
    observable: np.ndarray,
    rho0: np.ndarray | None = None,
    t_grid=None,
    floor: float = 1e-10,
) -> DecayResult:
    """Evolve a state and fit the decay rate of ``tr[(rho(t) - rho_inf) obs]``.

    The default initial state is ``(I + obs / (2 |obs|_2)) / N``, which is
    positive for any Hermitian observable; the default grid is 200 uniform
    points on [0.5, 50].  Repeated grid spacings reuse one step propagator.
    """
    obs = np.asarray(observable, dtype=complex)
    dim = params.hilbert_dim
    if obs.shape != (dim, dim):
        raise ValidationError(f"observable shape {obs.shape} does not match dim {dim}")
    if np.linalg.norm(obs - dagger(obs)) > 1e-12 * max(1.0, np.linalg.norm(obs)):
        raise ValidationError("observable must be Hermitian")
    if rho0 is None:
        rho0 = (np.eye(dim) + obs / (2.0 * np.linalg.norm(obs, 2))) / dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValidationError(f"rho0 shape {rho0.shape} does not match dim {dim}")
    if abs(np.trace(rho0) - 1.0) > 1e-9:
        raise ValidationError(f"rho0 must have unit trace, got {np.trace(rho0):.6g}")
    if t_grid is None:
        t_grid = np.linspace(0.5, 50.0, 200)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValidationError("t_grid must be a non-empty strictly increasing array of times >= 0")

    sup = build_superoperator(xxz_model(params))
    rho_inf = unvec(steady_state(eig_biortho(sup)))

    steps = np.diff(np.concatenate(([0.0], t_grid)))
    step_props: dict = {}
    x = vec(rho0)
    deviations = np.empty(t_grid.size)
    for i, dt in enumerate(steps):
        key = round(float(dt), 15)
        if key not in step_props:
            step_props[key] = propagator(sup, float(dt)).matrix
        x = step_props[key] @ x
        deviations[i] = np.trace((unvec(x) - rho_inf) @ obs).real

    mask = np.abs(deviations) > floor
    mask[: int(0.05 * t_grid.size)] = False
    rate = float("nan")
    if int(mask.sum()) >= 2:
        coeffs = np.polyfit(t_grid[mask], np.log(np.abs(deviations[mask])), 1)
        rate = float(-coeffs[0])
    return DecayResult(
        times=t_grid,
        deviations=deviations,
        fitted_rate=rate,
        n_fit_points=int(mask.sum()),
    )


def coherence_probe_state(
    params: XXZParams, observable: np.ndarray, weight: float = 0.05
) -> tuple[np.ndarray, float]:
    """Steady state plus the single decay mode that couples most to ``observable``.

    Returns the probe state and the mode's oscillation frequency |Im lambda|.
    Seeding exactly one coherence mode (rather than the observable itself)
    gives a deviation with a single frequency, so the log-linear rate fit is
    free of the slow beats that a multi-mode deviation produces; sampling at
    multiples of the half-period pi/frequency removes the oscillation from
    the fit entirely.  ``weight`` must be small enough to keep the state
    positive; it is checked.
    """
    obs = np.asarray(observable, dtype=complex)
    sup = build_superoperator(xxz_model(params))
    dec = eig_biortho(sup)
    rho_inf = unvec(steady_state(dec))
    k0 = int(np.argmin(np.abs(dec.eigenvalues)))
    best, best_overlap = None, 0.0
    for k in range(dec.dim):
        if k == k0 or abs(dec.eigenvalues[k].imag) < 1e-12:
            continue
        overlap = abs(np.trace(unvec(dec.right_vectors[:, k]) @ obs))
        if overlap > best_overlap:
            best, best_overlap = k, overlap
    if best is None:
        raise ValidationError("no oscillating mode couples to this observable")
    u = unvec(dec.right_vectors[:, best])
    pert = u + dagger(u)
    pert = pert / np.linalg.norm(pert, 2)
    rho0 = rho_inf + weight * pert
    rho0 = (rho0 + dagger(rho0)) / 2.0
    if np.linalg.eigvalsh(rho0).min() < -1e-12:
        raise ValidationError(f"probe weight {weight} makes the state non-positive; reduce it")
    return rho0, float(abs(dec.eigenvalues[best].imag))
