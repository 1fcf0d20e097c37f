import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlind import (
    BracketInvalid,
    LindbladModel,
    ValidationError,
    average_damping,
    build_superoperator,
    classify_cross,
    coherence_probe_state,
    dissipator_superoperator,
    eig_biortho,
    find_gamma_pt,
    hamiltonian_superoperator,
    is_unbroken,
    observable_decay,
    scaling_study,
    sector_restrict,
)
from ptlind.threshold import _parts
from ptlind.xxz import XXZParams, sector_basis, spin_current, xxz_model


def full_build(params, sector):
    """The generator at ``params.gamma``, built whole and then restricted."""
    sup = build_superoperator(xxz_model(params))
    return sup if sector == "full" else sector_restrict(sup, sector_basis(params.n_sites, 0))


class TestIsUnbroken:
    @pytest.mark.parametrize("gamma,expected", [(0.02, True), (0.2, False), (2.0, False)])
    def test_reference_panels(self, gamma, expected):
        ok, cls = is_unbroken(XXZParams(4, 0.5, 1.0, gamma))
        assert ok is expected
        assert (len(cls.off_cross) == 0) is expected

    def test_rejects_unknown_sector(self):
        with pytest.raises(ValidationError):
            is_unbroken(XXZParams(2, 0.5, 0.5, 0.1), sector="dmz1")


class TestFindGammaPt:
    def test_reference_chain_threshold(self):
        result = find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2)
        assert 0.02 < result.gamma_pt < 0.2
        lo, hi = result.bracket
        assert lo < result.gamma_pt <= hi
        assert (hi - lo) / hi <= 1e-3
        by_gamma = {g: off for g, off, _ in result.evaluations}
        assert by_gamma[lo] == 0
        assert by_gamma[hi] > 0

    def test_reproducible_evaluations(self):
        a = find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, rel_precision=0.01)
        b = find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, rel_precision=0.01)
        assert a.evaluations == b.evaluations
        assert a.gamma_pt == b.gamma_pt

    def test_two_site_chain_never_breaks(self):
        # the six-dimensional block has a single conjugate coherence pair,
        # which the mirror symmetry pins to the vertical line at any coupling
        with pytest.raises(BracketInvalid, match="stays on the cross"):
            find_gamma_pt(2, 0.5, 1.0, 0.01, 10.0, max_expand=3)

    def test_three_site_chain_breaks_at_zero(self):
        # mirror magnetization blocks share every gap, and a boundary jump
        # couples them at first order: off the cross at any coupling
        with pytest.raises(BracketInvalid, match="arbitrarily small"):
            find_gamma_pt(3, 0.5, 1.0, 0.01, 1.0, max_expand=2)

    @pytest.mark.xfail(
        strict=True,
        reason="stated comparison is not attainable: the two-site chain never "
        "leaves the cross (checked to gamma = 1e4), so it has no finite "
        "threshold to compare against the four-site one; see README",
    )
    def test_two_site_threshold_exceeds_four_site(self):
        g2 = find_gamma_pt(2, 0.5, 1.0, 0.01, 10.0).gamma_pt
        g4 = find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2).gamma_pt
        assert g2 > g4

    def test_degenerate_gap_toy_model_breaks_immediately(self, rng):
        # equispaced levels give a degenerate gap spectrum; a generic jump
        # operator pushes the paired coherences off the cross at once
        L = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / np.sqrt(6)
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        for gamma in (1e-5, 1e-4, 1e-3):
            sup = build_superoperator(LindbladModel(h, (L,), gamma))
            cls = classify_cross(eig_biortho(sup), average_damping(sup))
            assert len(cls.off_cross) > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            find_gamma_pt(4, 0.5, 1.0, 0.2, 0.02)
        with pytest.raises(ValidationError):
            find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, rel_precision=0.0)


class TestBracketOverflow:
    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize(
        "gamma_min,gamma_max,name",
        [
            (0.01, float("inf"), "gamma_max"),
            (0.01, float("nan"), "gamma_max"),
            (float("nan"), 1.0, "gamma_min"),
            (float("-inf"), 1.0, "gamma_min"),
        ],
    )
    def test_non_finite_end_rejected(self, gamma_min, gamma_max, name):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            find_gamma_pt(2, 0.5, 1.0, gamma_min, gamma_max)

    def test_upward_expansion_stops_before_overflow(self):
        # the two-site chain never breaks, so the upper end grows by decades
        # until the next one would overflow gamma * D
        with pytest.raises(BracketInvalid, match="no broken coupling found up to gamma = 1.000e[+]307"):
            find_gamma_pt(2, 0.5, 1.0, 0.01, 1e305)

    def test_overflowing_upper_end_rejected(self):
        with pytest.raises(ValidationError, match="gamma_max"):
            find_gamma_pt(2, 0.5, 1.0, 0.01, 1e308)

    @pytest.mark.parametrize("sector", ["dmz0", "full"])
    def test_overflowing_coupling_rejected_by_is_unbroken(self, sector):
        with pytest.raises(ValidationError, match="gamma = 1e[+]308 overflows"):
            is_unbroken(XXZParams(2, 0.5, 1.0, 1e308), sector=sector)


def reference_evaluation(params, sector):
    """One bisection probe recomputed from the full build and the bi-orthonormal solve."""
    cls = classify_cross(eig_biortho(full_build(params, sector)), gamma_bar=params.gamma)
    off = len(cls.off_cross)
    return params.gamma, off, float(min(cls.distances[list(cls.off_cross)])) if off else 0.0


class TestSplitGeneratorIsBitExact:
    """The split probe reproduces the full-build trail to the last bit.

    An eigenvalues-only LAPACK solve fails these on the 252- and 256-dim
    blocks: its off-cross distances differ in the last bits.
    """

    @pytest.mark.parametrize("sector", ["dmz0", "full"])
    def test_evaluation_trail(self, sector):
        result = find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, sector=sector, rel_precision=0.01)
        base = XXZParams(4, 0.5, 1.0, 0.02)
        expected = tuple(reference_evaluation(base.with_gamma(g), sector) for g, _, _ in result.evaluations)
        assert result.evaluations == expected

    @pytest.mark.parametrize("gamma", [1e-7, 3e-7, 0.02])
    def test_is_unbroken_on_five_sites(self, gamma):
        params = XXZParams(5, 0.5, 1.0, gamma)
        ok, cls = is_unbroken(params)
        ref = classify_cross(eig_biortho(full_build(params, "dmz0")), gamma_bar=gamma)
        assert ok is (len(ref.off_cross) == 0)
        assert (cls.on_h, cls.on_v, cls.off_cross, cls.tau) == (ref.on_h, ref.on_v, ref.off_cross, ref.tau)
        assert np.array_equal(cls.distances, ref.distances)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 4),
        delta=st.floats(0.1, 2.0),
        mu=st.floats(-1.0, 1.0),
        gamma=st.floats(0.0, 5.0),
        sector=st.sampled_from(["full", "dmz0"]),
    )
    def test_affine_split_equals_full_build(self, n, delta, mu, gamma, sector):
        params = XXZParams(n, delta, mu, gamma)
        a, d = _parts(params, sector)
        assert np.array_equal(a + gamma * d, full_build(params, sector).matrix)
        model = xxz_model(params)
        split = hamiltonian_superoperator(model).matrix + gamma * dissipator_superoperator(model).matrix
        assert np.array_equal(split, build_superoperator(model).matrix)


class TestScalingStudy:
    def test_single_length_entry(self):
        result = scaling_study([4], 0.5, 1.0, rel_precision=0.05, gamma_min=0.02, gamma_max=0.2)
        assert len(result.entries) == 1
        n, g = result.entries[0]
        assert n == 4 and 0.02 < g < 0.2
        assert np.isnan(result.slope)

    def test_bracket_failure_propagates(self):
        with pytest.raises(BracketInvalid):
            scaling_study([2, 3, 4], 0.5, 1.0, gamma_min=1e-3, gamma_max=20.0)

    def test_desk_scale_guard(self):
        with pytest.raises(ValidationError):
            scaling_study([4, 6], 0.5, 1.0)


class TestObservableDecay:
    def test_identity_observable_has_no_deviation(self, rng):
        params = XXZParams(2, 0.5, 1.0, 0.1)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0)
        result = observable_decay(
            params, np.eye(4, dtype=complex), rho0=rho0, t_grid=np.linspace(0.5, 5.0, 20)
        )
        assert np.abs(result.deviations).max() <= 1e-12
        assert result.n_fit_points == 0
        assert np.isnan(result.fitted_rate)

    def test_probe_state_recovers_uniform_rate(self):
        # two-site chain: single coherence pair, never broken; sampling at
        # half-period multiples removes the oscillation from the fit
        params = XXZParams(2, 0.5, 1.0, 0.1)
        rho0, omega = coherence_probe_state(params, spin_current(2))
        assert np.trace(rho0) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho0).min() >= -1e-12
        step = np.pi / omega
        t_grid = np.arange(step, 40 * step, step)
        result = observable_decay(params, spin_current(2), rho0=rho0, t_grid=t_grid)
        assert abs(result.fitted_rate - 0.1) / 0.1 <= 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="with the default mixed initial state the deviation carries "
        "several nearby mode frequencies whose beats bias the log-linear fit "
        "to ~4% on this window; the single-mode probe state satisfies the "
        "2% statement (see README)",
    )
    def test_default_state_fit_within_two_percent(self):
        params = XXZParams(4, 0.5, 1.0, 0.02)
        result = observable_decay(params, spin_current(4))
        assert abs(result.fitted_rate - 0.02) / 0.02 <= 0.02

    def test_broken_phase_still_reports_a_rate(self):
        # above the breaking point the fit is a report, not a claim about gamma
        params = XXZParams(4, 0.5, 1.0, 0.2)
        result = observable_decay(params, spin_current(4), t_grid=np.linspace(0.5, 20.0, 40))
        assert np.isfinite(result.fitted_rate)
        assert result.n_fit_points > 0

    def test_input_validation(self):
        params = XXZParams(2, 0.5, 1.0, 0.1)
        with pytest.raises(ValidationError):
            observable_decay(params, np.diag([1.0, 2.0, 3.0, 4.0]) * 1j)  # not Hermitian
        with pytest.raises(ValidationError):
            observable_decay(params, np.eye(4), rho0=2.0 * np.eye(4) / 4.0)
        with pytest.raises(ValidationError):
            observable_decay(params, np.eye(4), t_grid=np.array([1.0, 0.5]))
