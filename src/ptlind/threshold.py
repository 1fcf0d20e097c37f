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

from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketInvalid, NumericalError, ValidationError
from .liouville import (
    _Nonzeros,
    _at_coupling,
    _block,
    _generator_entries,
    _grouped_norm,
    _overflows,
    _refuse_large,
    _split,
    propagator,
)
from .operators import _numerical_errors, _require_integer, dagger, is_hermitian, unvec, vec
from .spectral import (
    CrossClassification,
    _LastSolve,
    _eig,
    _eigenvalues,
    _require_positive,
    _unit_columns,
    _zero_mode,
    classify_cross,
)
from .tolerances import (
    FIT_FLOOR, PROBE_FREQUENCY, PROBE_POSITIVITY, RHO0_TRACE, STEP_DRIFT, TAU_REL,
)
from .xxz import XXZParams, sector_positions, xxz_model

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
    bit-equal to restricting the generator built at that coupling.  Each term's block
    is gathered from its own entries and must be invariant on its own; then so is
    every such sum.
    """
    keep = sector_positions(params.n_sites, sector)
    return _split(xxz_model(params), keep)


def _probe(a: np.ndarray, d: np.ndarray, gamma: float, tau_rel: float) -> tuple:
    cls = classify_cross(_eigenvalues(lambda: _at_coupling(a, d, gamma)), gamma, tau_rel)
    return len(cls.off_cross) == 0, cls


def is_unbroken(
    params: XXZParams, sector: str = "dmz0", tau_rel: float = TAU_REL
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
    sector: str


def find_gamma_pt(
    n_sites: int,
    delta: float,
    mu: float,
    gamma_min: float,
    gamma_max: float,
    sector: str = "dmz0",
    rel_precision: float = 1e-3,
    tau_rel: float = TAU_REL,
) -> ThresholdResult:
    """Bisect the off-cross-empty predicate between the two couplings.

    ``gamma_min`` must be unbroken and ``gamma_max`` broken; if not, the
    bracket is widened a decade at a time, at most six decades per side,
    before :class:`BracketInvalid` is raised.  Both ends must be finite,
    downward expansion stops before gamma would underflow to 0, and upward
    expansion stops before ``gamma * D`` would overflow.  Bisection is
    geometric (the threshold is a scale) and stops at the requested relative
    precision; a bracket whose geometric midpoint is not strictly inside it raises
    :class:`NumericalError`.
    """
    for name, value in (("gamma_min", gamma_min), ("gamma_max", gamma_max)):
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if not 0 < gamma_min < gamma_max:
        raise ValidationError(f"need 0 < gamma_min < gamma_max, got ({gamma_min}, {gamma_max})")
    _require_positive("rel_precision", rel_precision)
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
    for _ in range(6):
        if lo_ok or lo / 10.0 == 0.0:  # a subnormal gamma_min would reach 0
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
    for _ in range(6):
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
        if not lo < mid < hi:  # lo * hi underflows, or no float lies between them
            raise NumericalError(
                f"cannot split the bracket ({lo!r}, {hi!r}) to rel_precision = {rel_precision}: "
                f"its geometric midpoint {mid!r} is not strictly inside it"
            )
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        gamma_pt=float(np.sqrt(lo * hi)),
        bracket=(lo, hi),
        evaluations=tuple(evaluations),
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
    tau_rel: float = TAU_REL,
) -> ScalingResult:
    """Threshold per chain length plus the slope of ln(threshold) vs length.

    Every length must be an integer (as :class:`XXZParams` requires) in 2..5, with no
    repeats, before any bisection.  Bracketing failures propagate: a chain that never
    breaks, or that is broken at arbitrarily small coupling, has no threshold to fit.
    """
    n_list = list(n_list)
    for n in n_list:
        _require_integer(n)
    if not n_list or len(set(n_list)) != len(n_list):
        raise ValidationError(f"chain lengths must be non-empty and distinct, got {n_list}")
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
    time over the points where the deviation exceeds ``FIT_FLOOR``, skipping
    the first 5% of the grid (transients from population-sector
    admixture); ``nan`` when fewer than two points survive.
    """

    times: np.ndarray
    deviations: np.ndarray
    fitted_rate: float
    n_fit_points: int


@dataclass(frozen=True)
class _Relaxation:
    """The full-space generator of one ``XXZParams``, as its nonzero entries, and its
    right-vector spectrum.

    ``right_vectors`` have unit columns, or are None once :func:`observable_decay` has
    released them; ``zero_mode`` is the position of the steady state ``rho_inf`` among
    the ``eigenvalues``.  Every array is read-only.
    """

    generator: _Nonzeros
    eigenvalues: np.ndarray
    right_vectors: np.ndarray | None
    zero_mode: int
    rho_inf: np.ndarray


_RELAXATION = _LastSolve()


def _solve_relaxation(params: XXZParams) -> _Relaxation:
    """The full-space right-vector solve of ``params``.

    The generator's entries are scattered once into a column-major matrix that ``zgeev``
    overwrites in place and that is freed before the vectors are sorted; its norm is
    taken from the entries, bit-equal to the dense matrix's.
    """
    model = xxz_model(params)
    _refuse_large(model.hamiltonian, model.lindblads, model.gamma)
    nz = _generator_entries(model)
    w, _, vr = _eig(_block(nz, nz.index), left=False, overwrite=True)
    _unit_columns(vr)
    norm = _grouped_norm(nz.at, nz.values, nz.dim**2)
    k0, u = _zero_mode(w, vr, nz.index, nz.hilbert_dim, norm)
    return _Relaxation(nz, w, vr, k0, unvec(u))


def _relaxation(params: XXZParams, vectors: bool = True) -> _Relaxation:
    """The one full-space solve that :func:`coherence_probe_state` and
    :func:`observable_decay` share, kept in a one-slot memo for the last params.

    The key is the exact parameter values (``float.hex``, so 0.0 and -0.0 differ).  With
    ``vectors=False`` the slot keeps the solve without its right vectors from then on,
    and a later call that needs them solves again.
    """
    key = (int(params.n_sites), *(float(v).hex() for v in (params.delta, params.mu, params.gamma)))

    def solve() -> _Relaxation:
        return _solve_relaxation(params)

    if vectors:
        return _RELAXATION(key, solve, reuse=lambda relax: relax.right_vectors is not None)
    return _RELAXATION(key, solve, keep=lambda relax: replace(relax, right_vectors=None))


def _observable(params: XXZParams, observable: np.ndarray) -> np.ndarray:
    """``observable`` as a complex matrix; refused unless Hermitian on the chain's space."""
    obs = np.asarray(observable, dtype=complex)
    dim = params.hilbert_dim
    if obs.shape != (dim, dim):
        raise ValidationError(f"observable shape {obs.shape} does not match dim {dim}")
    if not is_hermitian(obs):
        raise ValidationError("observable must be Hermitian")
    return obs


def _pack(u: np.ndarray) -> tuple:
    """A square complex matrix as the flat positions and values of its nonzero entries
    and the packed sign bits of all its real and imaginary parts; :func:`_unpack`
    restores every word.  The sign bits keep the -0 parts that a step propagator's
    Pade solve leaves where no squaring follows."""
    flat = u.reshape(-1)
    at = np.flatnonzero(flat)
    return u.shape[0], at, flat[at], np.packbits(np.signbit(flat.view(np.float64)))


def _unpack(packed: tuple) -> np.ndarray:
    """The C-ordered matrix that :func:`_pack` packed, word for word."""
    n, at, values, signs = packed
    out = np.zeros((n, n), dtype=complex)
    flat = out.reshape(-1)
    flat.view(np.float64)[np.unpackbits(signs, count=2 * n * n).view(bool)] = -0.0
    flat[at] = values
    return out


def observable_decay(
    params: XXZParams,
    observable: np.ndarray,
    rho0: np.ndarray | None = None,
    t_grid=None,
) -> DecayResult:
    """Evolve a state and fit the decay rate of ``tr[(rho(t) - rho_inf) obs]``.

    The default initial state is ``(I + obs / (2 |obs|_2)) / N``, which is
    positive for any nonzero Hermitian observable; the default grid is 200 uniform
    points on [0.5, 50].  Repeated grid spacings reuse one step propagator, which is
    kept from its first step to its last and dropped after it.  Only the propagator of
    the step being taken is dense: one that a later step reads again is packed
    (:func:`_pack`) when the grid moves to another spacing and unpacked word for word
    when it returns, so the products, and the deviations' bits, are those of keeping it
    dense.  An overflow or invalid value while stepping raises :class:`NumericalError`,
    and so does a step propagator ``U`` that does not preserve the trace:
    ``max |vec(I)^T U - vec(I)^T| > STEP_DRIFT``, as scipy's ``expm`` returns at huge steps.
    The propagators are made from the generator's entries, and the shared solve's right
    vectors are released before the first step: a :func:`coherence_probe_state` before
    this call shares its solve, one after it on the same params solves again.
    """
    obs = _observable(params, observable)
    dim = params.hilbert_dim
    if rho0 is None:
        scale = np.linalg.norm(obs, 2)
        if scale == 0:
            raise ValidationError("observable is zero: the default initial state needs rho0")
        rho0 = (np.eye(dim) + obs / (2.0 * scale)) / dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValidationError(f"rho0 shape {rho0.shape} does not match dim {dim}")
    if not np.all(np.isfinite(rho0)):
        raise ValidationError("rho0 must be finite")
    if not is_hermitian(rho0):
        raise ValidationError("rho0 must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > RHO0_TRACE:
        raise ValidationError(f"rho0 must have unit trace, got {np.trace(rho0):.6g}")
    if t_grid is None:
        t_grid = np.linspace(0.5, 50.0, 200)
    t_grid = np.asarray(t_grid, dtype=float)
    finite = t_grid.ndim == 1 and t_grid.size > 0 and np.isfinite(t_grid).all()
    if not finite or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValidationError("t_grid must be a non-empty strictly increasing array of times >= 0")

    # stepping reads the generator and the steady state only: the memo drops the vectors
    relax = _relaxation(params, vectors=False)
    sup, rho_inf = relax.generator, relax.rho_inf

    steps = np.diff(np.concatenate(([0.0], t_grid)))
    keys = [round(float(dt), 15) for dt in steps]
    last_step = {key: i for i, key in enumerate(keys)}
    packed: dict = {}
    u, u_key = None, None
    x = vec(rho0)
    trace = sup.trace_vector()
    deviations = np.empty(t_grid.size)
    with _numerical_errors("time evolution"):
        for i, (dt, key) in enumerate(zip(steps, keys)):
            if key != u_key:
                if last_step.get(u_key, -1) > i and u_key not in packed:
                    packed[u_key] = _pack(u)
                # the dense propagator is released before the next one is made or unpacked
                u, u_key = None, key
                if key in packed:
                    u = _unpack(packed[key])
                else:
                    u = propagator(sup, float(dt)).matrix
                    drift = float(np.abs(trace @ u - trace).max())
                    if not drift <= STEP_DRIFT:
                        raise NumericalError(
                            f"time evolution failed: the step propagator at dt = {dt:.3e} "
                            f"drifts {drift:.3e} off the trace, above {STEP_DRIFT:.1e}"
                        )
            x = u @ x
            if last_step[key] == i:
                packed.pop(key, None)
            deviations[i] = np.trace((unvec(x) - rho_inf) @ obs).real

    mask = np.abs(deviations) > FIT_FLOOR
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


# The probe's weight on the seeded mode: small enough to keep the state positive.
_PROBE_WEIGHT = 0.05


def coherence_probe_state(params: XXZParams, observable: np.ndarray) -> tuple[np.ndarray, float]:
    """Steady state plus the single decay mode that couples most to ``observable``.

    Returns the probe state and the mode's oscillation frequency |Im lambda|.
    Seeding exactly one coherence mode (rather than the observable itself)
    gives a deviation with a single frequency, so the log-linear rate fit is
    free of the slow beats that a multi-mode deviation produces; sampling at
    multiples of the half-period pi/frequency removes the oscillation from
    the fit entirely.  The mode enters with weight ``_PROBE_WEIGHT``; a state that this
    leaves non-positive is refused.  The solve is shared with a later
    :func:`observable_decay` on the same params, which releases its right vectors.
    """
    obs = _observable(params, observable)
    relax = _relaxation(params)
    w, vr = relax.eigenvalues, relax.right_vectors
    best, best_overlap = None, 0.0
    for k in range(w.size):
        if k == relax.zero_mode or abs(w[k].imag) < PROBE_FREQUENCY:
            continue
        overlap = abs(np.trace(unvec(vr[:, k]) @ obs))
        if overlap > best_overlap:
            best, best_overlap = k, overlap
    if best is None:
        raise ValidationError("no oscillating mode couples to this observable")
    u = unvec(vr[:, best])
    pert = u + dagger(u)
    pert = pert / np.linalg.norm(pert, 2)
    rho0 = relax.rho_inf + _PROBE_WEIGHT * pert
    rho0 = (rho0 + dagger(rho0)) / 2.0
    if np.linalg.eigvalsh(rho0).min() < -PROBE_POSITIVITY:
        raise ValidationError(f"probe weight {_PROBE_WEIGHT} makes the state non-positive")
    return rho0, float(abs(w[best].imag))
