import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

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
    eig_biortho,
    find_gamma_pt,
    is_unbroken,
    observable_decay,
    scaling_study,
)
from ptlind import threshold
from ptlind.liouville import _split
from ptlind.threshold import _parts, _relaxation
from ptlind.xxz import XXZParams, spin_current, xxz_model

from conftest import biortho_deviations, biortho_probe_state, bits, count_calls, full_build


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

    def test_every_probe_classifies_through_the_public_function(self, monkeypatch):
        calls = count_calls(monkeypatch, "ptlind.threshold.classify_cross")
        result = find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, rel_precision=0.01)
        assert len(calls) == len(result.evaluations)

    def test_two_site_chain_never_breaks(self):
        # the six-dimensional block has a single conjugate coherence pair,
        # which the mirror symmetry pins to the vertical line at any coupling
        # (checked over the fixed walk of six decades, up to gamma = 1e7)
        with pytest.raises(BracketInvalid, match=r"up to gamma = 1\.000e\+07; .* stays on the cross"):
            find_gamma_pt(2, 0.5, 1.0, 0.01, 10.0)

    def test_three_site_chain_breaks_at_zero(self):
        # mirror magnetization blocks share every gap, and a boundary jump
        # couples them at first order: off the cross at any coupling
        with pytest.raises(BracketInvalid, match=r"down to gamma = 1\.000e-06; .* arbitrarily small"):
            find_gamma_pt(3, 0.5, 1.0, 1.0, 10.0)

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
            cls = classify_cross(eig_biortho(sup).eigenvalues, average_damping(sup))
            assert len(cls.off_cross) > 0

    @pytest.mark.parametrize("gamma_min", [5e-324, 1e-322])
    def test_downward_expansion_stops_above_zero(self, monkeypatch, gamma_min):
        # a subnormal gamma_min used to be divided down to 0.0 and probed there, up to
        # six times, outside the rule 0 < gamma_min
        probes = count_calls(monkeypatch, "ptlind.threshold.classify_cross")
        with pytest.raises(BracketInvalid, match="arbitrarily small") as err:
            find_gamma_pt(3, 0.5, 1.0, gamma_min, 1.0, tau_rel=1e-17)
        gammas = [args[1] for args in probes]
        assert gammas[0] == gamma_min
        assert min(gammas) > 0.0
        assert len(set(gammas)) == len(gammas)
        assert gammas[-1] / 10.0 == 0.0
        assert f"down to gamma = {gammas[-1]:.3e};" in str(err.value)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            find_gamma_pt(4, 0.5, 1.0, 0.2, 0.02)
        with pytest.raises(ValidationError):
            find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, rel_precision=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerances_refused(self, monkeypatch, value):
        # a nan rel_precision used to stop the bisection before its first step and
        # report the midpoint of the unbisected bracket
        probes = count_calls(monkeypatch, "ptlind.threshold.classify_cross")
        with pytest.raises(ValidationError, match=f"^rel_precision must be finite, got {value}$"):
            find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, rel_precision=value)
        assert probes == []
        with pytest.raises(ValidationError, match=f"^tau_rel must be finite, got {value}$"):
            find_gamma_pt(4, 0.5, 1.0, 0.02, 0.2, tau_rel=value)


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


class TestUnsplittableBracket:
    """A bracket whose geometric midpoint is not strictly inside it used to be bisected
    forever.  Each call runs in a subprocess with a timeout, so that a regression fails
    instead of hanging the suite."""

    @pytest.mark.parametrize(
        "bounds,rel_precision,bracket",
        [
            # 5e-324 * 0.2 underflows to 0, so the midpoint is 0
            ((5e-324, 0.2), 1e-3, "(5e-324, 0.2)"),
            # the bracket closes to two adjacent floats before reaching 1e-17
            ((0.02, 0.2), 1e-17, "(0.023741000483228886, 0.02374100048322889)"),
        ],
    )
    def test_refused_as_numerical(self, bounds, rel_precision, bracket):
        code = (
            "from ptlind import NumericalError, find_gamma_pt\n"
            "try:\n"
            f"    find_gamma_pt(4, 0.5, 1.0, *{bounds!r}, rel_precision={rel_precision!r})\n"
            "except NumericalError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(
            f"NumericalError cannot split the bracket {bracket} "
            f"to rel_precision = {rel_precision}: its geometric midpoint"
        )


def reference_evaluation(params, sector):
    """One bisection probe recomputed from the full build and the bi-orthonormal solve."""
    dec = eig_biortho(full_build(params, sector))
    cls = classify_cross(dec.eigenvalues, gamma_bar=params.gamma)
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
        expected = tuple(
            reference_evaluation(replace(base, gamma=g), sector) for g, _, _ in result.evaluations
        )
        assert result.evaluations == expected

    @pytest.mark.parametrize("gamma", [1e-7, 3e-7, 0.02])
    def test_is_unbroken_on_five_sites(self, gamma):
        params = XXZParams(5, 0.5, 1.0, gamma)
        ok, cls = is_unbroken(params)
        ref = classify_cross(eig_biortho(full_build(params, "dmz0")).eigenvalues, gamma_bar=gamma)
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
        a, d = _split(model)
        assert np.array_equal(a + gamma * d, build_superoperator(model).matrix)


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

    @pytest.mark.parametrize(
        "n_list,shown", [([], "[]"), ([4, 4], "[4, 4]"), ((3, 4, 3), "[3, 4, 3]")]
    )
    def test_empty_or_repeated_lengths_refused(self, monkeypatch, n_list, shown):
        # an empty list used to give a null fit, a repeated one a fit through one point
        probes = count_calls(monkeypatch, "ptlind.threshold.find_gamma_pt")
        with pytest.raises(ValidationError) as err:
            scaling_study(n_list, 0.5, 1.0)
        assert str(err.value) == f"chain lengths must be non-empty and distinct, got {shown}"
        assert probes == []

    @pytest.mark.parametrize(
        "n_list,message",
        [
            ([4.9], "n_sites must be an integer, got 4.9"),
            (["4"], "n_sites must be an integer, got '4'"),
            ([True, 3], "chain lengths must lie in 2..5 (desk scale), got [True, 3]"),
        ],
        ids=["float", "string", "bool"],
    )
    def test_non_integer_lengths_refused(self, monkeypatch, n_list, message):
        # int() used to turn 4.9 and "4" into n = 4 and bisect it, and True into 1
        probes = count_calls(monkeypatch, "ptlind.threshold.find_gamma_pt")
        with pytest.raises(ValidationError) as err:
            scaling_study(n_list, 0.5, 1.0)
        assert str(err.value) == message
        assert probes == []

    @pytest.mark.parametrize("name", ["rel_precision", "tau_rel"])
    def test_non_finite_tolerance_refused(self, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite, got nan$"):
            scaling_study([4], 0.5, 1.0, gamma_min=0.02, gamma_max=0.2, **{name: float("nan")})


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
        with pytest.raises(ValidationError, match=r"^rho0 shape \(2, 2\) does not match dim 4$"):
            observable_decay(params, np.eye(4), rho0=np.eye(2) / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_refused_before_the_solve(self, monkeypatch, bad):
        # used to pass the grid check and fail in propagator after the full-space solve
        solves = count_calls(monkeypatch, "ptlind.threshold._relaxation")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^t_grid must be"):
                observable_decay(XXZParams(2, 0.5, 1.0, 0.1), spin_current(2), t_grid=[0.5, bad])
        assert solves == []

    def test_non_finite_observable_rejected(self):
        # refused as input, not left to end in the solver's untyped LinAlgError
        with pytest.raises(ValidationError, match="observable must be Hermitian"):
            observable_decay(XXZParams(2, 0.5, 1.0, 0.1), np.diag([np.nan, 1.0, 1.0, 1.0]))

    def test_zero_observable_refused_without_a_state(self):
        # its default state divided by |obs|_2 = 0, and the call ended in "rho0 must be
        # finite" although no rho0 was passed
        with pytest.raises(ValidationError, match="^observable is zero: the default initial"):
            observable_decay(XXZParams(2, 0.5, 1.0, 0.1), np.zeros((4, 4)))

    def test_non_finite_state_rejected(self):
        # its trace is still 1, and every deviation and the rate used to come back nan
        rho0 = np.eye(4, dtype=complex) / 4.0
        rho0[0, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="rho0 must be finite"):
                observable_decay(XXZParams(2, 0.5, 1.0, 0.1), spin_current(2), rho0=rho0)

    def test_probe_state_checks_its_observable_the_same_way(self):
        params = XXZParams(2, 0.5, 1.0, 0.1)
        ket_bra = np.zeros((4, 4), dtype=complex)
        ket_bra[0, 1] = 1.0  # |0><1|, not Hermitian
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad, message in ((np.eye(3), "does not match dim 4"), (ket_bra, "Hermitian")):
                for recipe in (coherence_probe_state, observable_decay):
                    with pytest.raises(ValidationError, match=message):
                        recipe(params, bad)


class TestSharedRelaxationSolve:
    """``coherence_probe_state`` and ``observable_decay`` share one right-vector solve."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        threshold._RELAXATION.entries.clear()

    @pytest.mark.parametrize("params", [
        XXZParams(4, 0.5, 1.0, 0.05),
        XXZParams(4, 0.41, 0.63, 0.087),
        XXZParams(3, 0.5, 1.0, 0.05),
    ])
    def test_bit_equal_to_the_biorthonormal_recipe(self, params):
        current = spin_current(params.n_sites)
        rho0, omega = coherence_probe_state(params, current)
        ref_rho0, ref_omega = biortho_probe_state(params, current)
        assert np.array_equal(bits(rho0), bits(ref_rho0))
        assert float.hex(omega) == float.hex(ref_omega)
        for t_grid, start in ((np.arange(0.5, 50.0, np.pi / omega), rho0), (np.linspace(0.5, 50.0, 200), None)):
            result = observable_decay(params, current, rho0=start, t_grid=t_grid)
            if start is None:
                dim = params.hilbert_dim
                start = (np.eye(dim) + current / (2.0 * np.linalg.norm(current, 2))) / dim
            expected = biortho_deviations(params, current, np.asarray(start, dtype=complex), t_grid)
            assert np.array_equal(bits(result.deviations), bits(expected))

    def test_one_solve_per_recipe_and_a_fresh_one_per_params(self, monkeypatch):
        # each solve records its size and how many entries were alive when it started
        solves, eig = [], threshold._eig

        def counted(m, left=True):
            solves.append((m.shape[0], left, len(threshold._RELAXATION.entries)))
            return eig(m, left)

        monkeypatch.setattr(threshold, "_eig", counted)
        builds = count_calls(monkeypatch, "ptlind.threshold.build_superoperator")
        params = XXZParams(4, 0.5, 1.0, 0.05)
        current = spin_current(4)
        rho0, omega = coherence_probe_state(params, current)
        observable_decay(params, current, rho0=rho0, t_grid=np.arange(0.5, 50.0, np.pi / omega))
        assert solves == [(256, False, 0)] and len(builds) == 1
        observable_decay(replace(params, gamma=0.06), current, t_grid=np.linspace(0.5, 5.0, 10))
        assert solves == [(256, False, 0)] * 2 and len(builds) == 2
        assert len(threshold._RELAXATION.entries) == 1

    def test_returned_state_is_the_callers(self):
        params = XXZParams(3, 0.5, 1.0, 0.05)
        rho0, _ = coherence_probe_state(params, spin_current(3))
        before = rho0.copy()
        rho0 += 1.0
        again, _ = coherence_probe_state(params, spin_current(3))
        assert np.array_equal(bits(again), bits(before))
        relax = _relaxation(params)
        for a in (relax.generator.matrix, relax.eigenvalues, relax.right_vectors, relax.rho_inf):
            assert not a.flags.writeable

    def test_signed_zero_coupling_has_its_own_entry(self, monkeypatch):
        solves = count_calls(monkeypatch, "ptlind.threshold._eig")
        positive, negative = XXZParams(2, 0.5, 1.0, 0.0), XXZParams(2, 0.5, 1.0, -0.0)
        assert positive == negative
        first = _relaxation(positive)
        assert _relaxation(positive) is first and len(solves) == 1
        second = _relaxation(negative)
        assert second is not first and len(solves) == 2
        # one slot: the -0.0 solve dropped the 0.0 entry
        assert len(threshold._RELAXATION.entries) == 1
        _relaxation(positive)
        assert len(solves) == 3

    def test_threads_share_the_slot_safely(self, monkeypatch):
        # more threads than cores, alternating params, with frequent thread switches
        params = [XXZParams(2, 0.5, 1.0, 0.1), XXZParams(2, 0.7, 0.4, 0.2)]
        expected = [biortho_probe_state(p, spin_current(2)) for p in params]
        failures, in_flight, most, count_lock, eig = [], [0], [0], threading.Lock(), threshold._eig

        def solve(m, left=True):
            with count_lock:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
            try:
                return eig(m, left)
            finally:
                with count_lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(threshold, "_eig", solve)

        def work(offset):
            for i in range(40):
                k = (i + offset) % 2
                rho0, omega = coherence_probe_state(params[k], spin_current(2))
                if not (np.array_equal(bits(rho0), bits(expected[k][0])) and omega == expected[k][1]):
                    failures.append((offset, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert failures == []
        assert most == [1]  # never two solves at once
        assert len(threshold._RELAXATION.entries) == 1
