import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ptlind import (
    LindbladModel,
    NoZeroMode,
    SuperOperator,
    ValidationError,
    average_damping,
    build_superoperator,
    classify_cross,
    eig_biortho,
    is_unbroken,
    parity_from_pair,
    sector_restrict,
    steady_state,
    unvec,
    verify_d2,
    xxz_parity,
)
from ptlind.liouville import _block, _generator_entries
from ptlind.operators import site_operator
from ptlind.spectral import _cluster_close_eigenvalues, _eig, _eigenvalues, _zero_index
from ptlind.xxz import XXZParams, sector_basis, sector_positions, xxz_model

from conftest import (
    Builds,
    apply_superoperator,
    bits,
    collinearity_error,
    count_calls,
    is_simple,
    left_steady_vector,
    pt_partner_check,
    random_hermitian,
    random_model,
    single_qubit,
    spectral_radius,
    xx_dmz0_spectrum,
)


def union_find_clusters(w, tol):
    """The clusters of ``_cluster_close_eigenvalues``, from a union-find over all pairs."""
    parent = list(range(w.size))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(w.size):
        for j in range(i + 1, w.size):
            if np.abs(w[i] - w[j]) <= tol:
                a, b = sorted((root(i), root(j)))
                parent[b] = a
    groups = {}
    for i in range(w.size):
        groups.setdefault(root(i), []).append(i)
    return tuple(tuple(g) for g in groups.values() if len(g) > 1)


def sigma_z_string_vec(n):
    out = np.eye(2**n, dtype=complex)
    for j in range(1, n + 1):
        out = out @ site_operator("z", j, n)
    return out.reshape(-1)


@pytest.fixture(scope="module")
def fig_top_decomposition():
    sup = build_superoperator(xxz_model(XXZParams(4, 0.5, 1.0, 0.02)))
    return eig_biortho(sector_restrict(sup, sector_basis(4, 0)))


class TestEigBiortho:
    def test_single_qubit_spectrum_and_sorting(self):
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.1)))
        expected = [0.0, -0.1 - 1j, -0.1 + 1j, -0.2]  # Re descending, Im ascending
        assert max(abs(a - b) for a, b in zip(dec.eigenvalues, expected)) < 1e-10

    def test_eigenpair_residuals(self, rng):
        sup = build_superoperator(random_model(rng))
        dec = eig_biortho(sup)
        assert dec.residuals.max() <= 1e-9 * max(1.0, dec.matrix_norm)
        for k in range(dec.dim):
            if not is_simple(dec, k):
                continue
            v = dec.left_vectors[:, k]
            res = np.linalg.norm(
                sup.matrix.conj().T @ v - np.conj(dec.eigenvalues[k]) * v
            ) / np.linalg.norm(v)
            assert res <= 1e-9 * max(1.0, dec.matrix_norm)

    def test_biorthonormality(self, rng):
        dec = eig_biortho(build_superoperator(random_model(rng, dim=4)))
        scale = max(1.0, dec.matrix_norm)
        w = dec.eigenvalues
        for a in range(dec.dim):
            if not is_simple(dec, a):
                continue
            for b in range(dec.dim):
                separated = a == b or abs(w[a] - w[b]) > 1e-8 * scale
                if not (is_simple(dec, b) and separated):
                    continue
                inner = np.vdot(dec.right_vectors[:, a], dec.left_vectors[:, b])
                assert abs(inner - (1.0 if a == b else 0.0)) <= 1e-8

    def test_closed_system_purely_imaginary(self, rng):
        h = random_hermitian(rng, 3)
        dec = eig_biortho(build_superoperator(LindbladModel(h, (np.zeros((3, 3)),), 0.0)))
        assert np.abs(dec.eigenvalues.real).max() <= 1e-12

    def test_xxz_sector_left_half_plane(self, fig_top_decomposition):
        dec = fig_top_decomposition
        assert dec.dim == 70
        assert dec.eigenvalues.real.max() <= 1e-10

    def test_chain_of_close_eigenvalues_is_one_cluster(self):
        # a-b and b-c are within tol = 1e-8, a-c is not; the cluster is transitive
        sup = SuperOperator(np.diag([0.0, 0.6e-8, 1.2e-8, 1.0]), 2)
        dec = eig_biortho(sup)
        assert dec.eigenvalues.real.tolist() == [1.0, 1.2e-8, 0.6e-8, 0.0]
        assert dec.clusters == ((1, 2, 3),)

    def test_chain_across_a_long_spectrum_is_one_cluster(self):
        # 300 eigenvalues, tol = 2e-8 (radius 2); a neighbour-only chain straddles index 128
        w = np.linspace(2.0, 1.0, 300)
        w[126:131] = w[126] - 1.5e-8 * np.arange(5)
        dec = eig_biortho(SuperOperator(np.diag(w), 18, np.arange(300)))
        assert np.array_equal(dec.eigenvalues.real, w)
        assert dec.clusters == ((126, 127, 128, 129, 130),)


    # lattice steps of 0.6 tol: one step is close, two are not, a diagonal one is; up to
    # 260 values, so chains cross the 128-row blocks of the edge search
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 260).flatmap(lambda size: st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 2)), min_size=size, max_size=size
    )))
    def test_clusters_match_a_union_find_over_all_pairs(self, points):
        w = np.array([0.6 * (re + 1j * im) for re, im in points], dtype=complex)
        assert _cluster_close_eigenvalues(w, 1.0) == union_find_clusters(w, 1.0)


class TestRightVectorsOnly:
    @pytest.mark.parametrize("n,sector,dim", [(4, "dmz0", 70), (5, "dmz0", 252), (4, "full", 256)])
    def test_bit_equal_to_the_solve_with_left_vectors(self, n, sector, dim):
        # the shared relaxation solve and the threshold probe skip the left vectors
        keep = sector_basis(n, 0) if sector == "dmz0" else None
        m = build_superoperator(xxz_model(XXZParams(n, 0.5, 1.0, 0.05)), keep).matrix
        assert m.shape == (dim, dim)
        w, vl, vr = _eig(m, left=False)
        w_both, vl_both, vr_both = _eig(m)
        assert vl is None and vl_both.shape == (dim, dim)
        assert np.array_equal(bits(w), bits(w_both))
        assert np.array_equal(bits(vr), bits(vr_both))


class TestEigenvaluesOnly:
    """``_eigenvalues(build)`` is ``_eig(build(), left=False)[0]`` bit for bit, with no
    eigenvector.  ``conftest.Builds`` hands it a fresh column-major copy per call, which
    the solve may overwrite, and counts the calls."""

    # LAPACK scales a matrix with entries far from 1 first; the three last scales
    # reach that path, where the eigenvalues come from the eigenvector solve
    SCALES = (1.0, 1e138, 1e150, 1e-140)

    @staticmethod
    def generator(n, sector, gamma):
        params = XXZParams(n, 0.5, 1.0, gamma)
        return build_superoperator(xxz_model(params), sector_positions(n, sector)).matrix

    def assert_bit_equal(self, m):
        for scale in self.SCALES:
            scaled = m * scale
            kept = scaled.copy()
            build = Builds(scaled)
            assert np.array_equal(bits(_eigenvalues(build)), bits(_eig(scaled, left=False)[0]))
            assert np.array_equal(bits(scaled), bits(kept))  # the input is left as it was
            assert build.calls == 1

    @pytest.mark.parametrize("gamma", np.geomspace(1e-6, 1.0, 16))
    def test_four_site_block_over_the_bisection_range(self, gamma):
        self.assert_bit_equal(self.generator(4, "dmz0", gamma))

    @pytest.mark.parametrize("n,sector", [(5, "dmz0"), (4, "full")])
    def test_multishift_dimensions(self, n, sector):
        # 252 and 256: from dimension 75 on, the QR picks its deflation window from
        # the workspace, so a different workspace moves the last bits
        self.assert_bit_equal(self.generator(n, sector, 0.05))

    @staticmethod
    def graded(rng, dim, spread, scale):
        # d r / d, with d spanning 10^-spread .. 10^spread
        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        d = 10.0 ** np.linspace(-spread, spread, dim)
        return d[:, None] * r / d * scale

    @staticmethod
    def reducible(rng, dim):
        # balancing permutes away the rows and columns that isolate eigenvalues (the
        # last and the first), then rescales the rest: the large last column is left out
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m[:, -1] *= 1e8
        m[-1, :-1] = 0.0
        m[1:, 0] = 0.0
        return m

    @pytest.mark.parametrize("dim", [1, 3, 74, 75, 80, 120])
    def test_random_complex_matrices(self, rng, dim):
        self.assert_bit_equal(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    def test_zero_matrix(self):
        self.assert_bit_equal(np.zeros((5, 5), dtype=complex))

    @pytest.mark.parametrize("spread,scale", [(3, 1.0), (70, 1.0), (100, 1e-230)])
    def test_rows_and_columns_that_balancing_rescales(self, rng, spread, scale):
        # at spread 70 the largest entry is out of LAPACK's unscaled range and the
        # balanced one is not; at spread 100 and scale 1e-230 the other way round, and
        # the balancing has overwritten the built matrix, so _eig solves a second build
        m = self.graded(rng, 80, spread, scale)
        build = Builds(m)
        assert np.array_equal(bits(_eigenvalues(build)), bits(_eig(m, left=False)[0]))
        assert build.calls == (2 if scale != 1.0 else 1)

    def test_reducible_matrix(self, rng):
        self.assert_bit_equal(self.reducible(rng, 90))

    # the last dimension of zgeev's eigenvalues-only job and the first of the Schur job
    @pytest.mark.parametrize("dim", [74, 75])
    @pytest.mark.parametrize("spread,scale", [(3, 1.0), (70, 1.0), (100, 1e-230)])
    def test_graded_matrices_across_the_crossover(self, rng, dim, spread, scale):
        m = self.graded(rng, dim, spread, scale)
        build = Builds(m)
        assert np.array_equal(bits(_eigenvalues(build)), bits(_eig(m, left=False)[0]))
        # below 75 no balanced matrix is checked, so nothing is built twice
        assert build.calls == (2 if (dim, spread) == (75, 100) else 1)

    @pytest.mark.parametrize("dim", [74, 75])
    def test_reducible_matrices_across_the_crossover(self, rng, dim):
        self.assert_bit_equal(self.reducible(rng, dim))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_random_model_generators(self, rng, dim):
        self.assert_bit_equal(build_superoperator(random_model(rng, dim=dim)).matrix)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(2, 4),
        sector=st.sampled_from(["dmz0", "full"]),
        delta=st.floats(-3.0, 3.0),
        mu=st.floats(-1.0, 1.0),
        log_gamma=st.floats(-8.0, 3.0),
    )
    def test_xxz_blocks(self, n, sector, delta, mu, log_gamma):
        params = XXZParams(n, delta, mu, 10.0**log_gamma)
        m = build_superoperator(xxz_model(params), sector_positions(n, sector)).matrix
        assert np.array_equal(bits(_eigenvalues(Builds(m))), bits(_eig(m, left=False)[0]))

    @pytest.mark.parametrize("dim,schur_solves", [(1, 0), (74, 0), (75, 1), (120, 1)])
    def test_schur_job_only_from_dimension_75(self, monkeypatch, rng, dim, schur_solves):
        schur = count_calls(monkeypatch, "scipy.linalg.lapack.zgees")
        solves = count_calls(monkeypatch, "ptlind.spectral._eig")
        _eigenvalues(Builds(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))
        assert (len(schur), solves) == (schur_solves, [])

    def test_no_eigenvector_solve_unless_lapack_would_scale(self, monkeypatch):
        solves = count_calls(monkeypatch, "ptlind.spectral._eig")
        m = self.generator(4, "dmz0", 0.05)
        _eigenvalues(Builds(m))
        assert solves == []
        for scale in self.SCALES[1:]:
            _eigenvalues(Builds(m * scale))
        assert len(solves) == 3

    def test_five_site_block_solve_holds_the_block_once(self):
        # the 252-dim dmz0 block is 1 MB and zgeev's workspace for right vectors 0.52 of
        # it; the solve balances and reduces the built block in place, about 1.54 blocks
        # in all.  A copy for LAPACK and one for the range check of the balanced matrix
        # took it to 3
        block = 16 * 252**2
        entries = _generator_entries(xxz_model(XXZParams(5, 0.5, 1.0, 0.3)))
        keep = sector_positions(5, "dmz0")
        _eigenvalues(lambda: _block(entries, keep))  # warm
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _eigenvalues(lambda: _block(entries, keep))
            assert tracemalloc.get_traced_memory()[1] - base < 1.6 * block
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_refused(self, bad):
        m = self.generator(3, "dmz0", 0.05)
        m[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            _eigenvalues(Builds(m))


class TestSteadyState:
    def test_single_qubit_ground_state(self):
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.3)))
        rho = unvec(steady_state(dec))
        assert np.abs(rho - np.diag([0.0, 1.0])).max() < 1e-10

    def test_unbiased_xxz_steady_state_is_maximally_mixed(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 0.0, 0.4)))
        rho = unvec(steady_state(eig_biortho(sup)))
        assert np.abs(rho - np.eye(8) / 8.0).max() < 1e-9
        assert np.linalg.norm(apply_superoperator(sup, np.eye(8, dtype=complex) / 8.0)) < 1e-12

    def test_left_partner_is_identity(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 0.7, 0.2)))
        v1 = left_steady_vector(eig_biortho(sup))
        ident = np.eye(8, dtype=complex).reshape(-1)
        assert collinearity_error(v1, ident) <= 1e-9

    def test_positivity_and_hermiticity(self, rng):
        sup = build_superoperator(random_model(rng, dim=4))
        rho = unvec(steady_state(eig_biortho(sup)))
        assert np.abs(rho - rho.conj().T).max() < 1e-9
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -1e-9
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)

    def test_sector_matches_full_space(self):
        n = 4
        sup = build_superoperator(xxz_model(XXZParams(n, 0.5, 1.0, 0.02)))
        index = sector_basis(n, 0)
        full = steady_state(eig_biortho(sup))
        sector = steady_state(eig_biortho(sector_restrict(sup, index)))
        assert np.abs(sector - full[index]).max() <= 1e-12
        assert np.abs(np.delete(full, index)).max() <= 1e-12

    def test_no_zero_mode(self, rng):
        sup = build_superoperator(random_model(rng, dim=3))
        shifted = SuperOperator(sup.matrix - 0.5 * np.eye(9), 3, np.arange(9))
        with pytest.raises(NoZeroMode):
            steady_state(eig_biortho(shifted))

    def test_degenerate_zero_mode_refused(self):
        # without decay both energy populations are steady states
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.0)))
        with pytest.raises(NoZeroMode, match="^zero mode is degenerate: the two smallest "):
            steady_state(dec)

    def test_one_eigenvalue_is_a_simple_zero_mode(self):
        assert _zero_index(np.zeros(1, dtype=complex), 0.0) == 0

    def test_no_zero_mode_has_no_left_partner(self, rng):
        # the left vector used to be read at the smallest |eigenvalue|, zero or not
        sup = build_superoperator(random_model(rng, dim=3))
        shifted = SuperOperator(sup.matrix - 0.5 * np.eye(9), 3, np.arange(9))
        with pytest.raises(NoZeroMode, match="^smallest [|]eigenvalue[|] is "):
            left_steady_vector(eig_biortho(shifted))


class TestClassifyCross:
    def test_unbroken_panel_counts(self, fig_top_decomposition):
        cls = classify_cross(fig_top_decomposition.eigenvalues, gamma_bar=0.02)
        assert len(cls.off_cross) == 0
        assert len(cls.on_h) == 16
        assert len(cls.on_v) == 54

    def test_broken_coupling_has_off_cross_modes(self):
        sup = build_superoperator(xxz_model(XXZParams(4, 0.5, 1.0, 2.0)))
        dec = eig_biortho(sector_restrict(sup, sector_basis(4, 0)))
        cls = classify_cross(dec.eigenvalues, gamma_bar=2.0)
        assert len(cls.off_cross) > 0

    def test_closed_system_all_on_vertical_line(self, rng):
        h = random_hermitian(rng, 3)
        dec = eig_biortho(build_superoperator(LindbladModel(h, (np.zeros((3, 3)),), 0.0)))
        cls = classify_cross(dec.eigenvalues, gamma_bar=0.0)
        assert len(cls.off_cross) == 0
        # with gamma_bar = 0 both lines pass through the imaginary axis: the
        # zero modes count as populations, everything else as coherences
        assert len(cls.on_h) == sum(abs(lam) < 1e-10 for lam in dec.eigenvalues)

    def test_tie_break_prefers_populations(self):
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.1)))
        cls = classify_cross(dec.eigenvalues, gamma_bar=0.1)
        # 0 and -2 gamma on the real axis, the conjugate pair on the vertical line
        assert len(cls.on_h) == 2
        assert len(cls.on_v) == 2

    @pytest.mark.parametrize(
        "tau_rel,rule",
        [(np.nan, "finite"), (np.inf, "finite"), (0.0, "positive"), (-np.inf, "positive")],
    )
    def test_tolerance_must_be_positive_and_finite(self, tau_rel, rule):
        # nan would put every eigenvalue off the cross, inf every one on the real axis
        with pytest.raises(ValidationError, match=f"^tau_rel must be {rule}, got {tau_rel}$"):
            classify_cross(np.array([0.0, -1.0 + 1.0j]), 1.0, tau_rel=tau_rel)

    def test_partition_stable_under_tau_wiggle(self, fig_top_decomposition):
        base = classify_cross(fig_top_decomposition.eigenvalues, 0.02, tau_rel=1e-8)
        lo = classify_cross(fig_top_decomposition.eigenvalues, 0.02, tau_rel=0.9e-8)
        hi = classify_cross(fig_top_decomposition.eigenvalues, 0.02, tau_rel=1.1e-8)
        assert base.on_h == lo.on_h == hi.on_h
        assert base.on_v == lo.on_v == hi.on_v


class TestVerifyD2:
    @pytest.mark.parametrize("gamma", [0.02, 0.2, 2.0])
    def test_xxz_dihedral_symmetry(self, gamma):
        sup = build_superoperator(xxz_model(XXZParams(4, 0.5, 1.0, gamma)))
        dec = eig_biortho(sector_restrict(sup, sector_basis(4, 0)))
        rep = verify_d2(dec.eigenvalues, gamma_bar=gamma)
        scale = max(1.0, spectral_radius(dec))
        assert rep.max_v_error <= 1e-8 * scale
        assert rep.max_h_error <= 1e-8 * scale

    def test_single_qubit_pairing_structure(self):
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.1)))
        rep = verify_d2(dec.eigenvalues, gamma_bar=0.1)
        assert rep.max_v_error <= 1e-12
        assert rep.max_h_error <= 1e-12
        w = dec.eigenvalues
        i_zero = int(np.argmin(np.abs(w)))
        i_fast = int(np.argmin(np.abs(w + 0.2)))
        assert rep.v_pairing[i_zero] == i_fast  # 0 <-> -2 gamma across the vertical line
        i_up = int(np.argmin(np.abs(w - (-0.1 + 1j))))
        assert rep.v_pairing[i_up] == i_up  # the coherences are their own v-images
        i_dn = int(np.argmin(np.abs(w - (-0.1 - 1j))))
        assert rep.h_pairing[i_up] == i_dn  # and each other's h-images

    def test_real_axis_symmetry_holds_without_pt(self, rng):
        # conjugate-pair symmetry follows from hermiticity preservation alone
        for _ in range(5):
            dec = eig_biortho(build_superoperator(random_model(rng)))
            rep = verify_d2(dec.eigenvalues, gamma_bar=0.0)
            assert rep.max_h_error <= 1e-8 * max(1.0, spectral_radius(dec))


class TestPtPartnerCheck:
    @pytest.mark.parametrize("n", [2, 3])
    def test_fastest_mode_is_parity_image_of_identity(self, n):
        gamma = 0.13
        sup = build_superoperator(xxz_model(XXZParams(n, 0.5, 0.7, gamma)))
        dec = eig_biortho(sup)
        k = int(np.argmin(np.abs(dec.eigenvalues + 2 * gamma)))
        assert abs(dec.eigenvalues[k] + 2 * gamma) <= 1e-8
        err = collinearity_error(dec.right_vectors[:, k], sigma_z_string_vec(n))
        assert err <= 1e-8

    def test_self_conjugate_real_modes(self):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 0.7, 0.13)))
        dec = eig_biortho(sup)
        n = dec.hilbert_dim
        pos = {int(p): i for i, p in enumerate(dec.index)}
        for k in range(dec.dim):
            lam = dec.eigenvalues[k]
            if abs(lam.imag) > 1e-10 or not is_simple(dec, k):
                continue
            u = dec.right_vectors[:, k]
            u_dag = np.empty_like(u)
            for i, p in enumerate(dec.index):
                a, b = divmod(int(p), n)
                u_dag[pos[b * n + a]] = np.conj(u[i])
            assert collinearity_error(u, u_dag) <= 1e-8

    def test_xxz_partner_vectors(self):
        gamma = 0.05
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, gamma)))
        dec = eig_biortho(sup)
        rep = pt_partner_check(dec, xxz_parity(3), gamma_bar=gamma)
        assert rep.n_checked > 0
        assert rep.max_vector_error <= 1e-6

    def test_xxz_partner_vectors_on_zero_magnetization_block(self):
        gamma = 0.05
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, gamma)))
        dec = eig_biortho(sector_restrict(sup, sector_basis(3, 0)))
        rep = pt_partner_check(dec, xxz_parity(3), gamma_bar=gamma)
        assert rep.n_checked > 0
        assert rep.max_vector_error <= 1e-6

    def test_unmatched_mirrors_are_not_checked(self, rng):
        # a random model is not PT-symmetric under the identity parity: no eigenvalue's
        # vertical mirror is in the spectrum, so none is checked and the mismatch shows
        sup = build_superoperator(random_model(rng, dim=3))
        identity = parity_from_pair(np.eye(3), np.eye(3))
        rep = pt_partner_check(eig_biortho(sup), identity, gamma_bar=average_damping(sup))
        assert rep.n_checked == 0
        assert rep.max_eigenvalue_mismatch > 0

    def test_open_basis_refused(self):
        # |0><1| without |1><0|; the identity parity keeps it
        dec = eig_biortho(SuperOperator(np.zeros((1, 1)), 2, [1]))
        with pytest.raises(ValidationError, match=r"^basis is not closed under \|j><k\| -> \|k><j\|$"):
            pt_partner_check(dec, parity_from_pair(np.eye(2), np.eye(2)), gamma_bar=0.0)


class TestSpectrumInvariants:
    def test_eigenvalue_sum_matches_trace(self, rng):
        sup = build_superoperator(random_model(rng))
        dec = eig_biortho(sup)
        assert abs(dec.eigenvalues.sum() - np.trace(sup.matrix)) <= (
            1e-8 * max(1.0, dec.matrix_norm) * dec.dim
        )

    def test_fastest_mode_present_in_pt_family(self):
        for gamma in (0.05, 0.5, 2.0):
            sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, gamma)))
            dec = eig_biortho(sup)
            gap = np.min(np.abs(dec.eigenvalues + 2 * gamma))
            assert gap <= 1e-8 * max(1.0, spectral_radius(dec))

    def test_conjugate_pair_symmetry(self, rng):
        dec = eig_biortho(build_superoperator(random_model(rng)))
        w = sorted(dec.eigenvalues, key=lambda z: (round(z.real, 8), z.imag))
        wc = sorted(np.conj(dec.eigenvalues), key=lambda z: (round(z.real, 8), z.imag))
        assert max(abs(a - b) for a, b in zip(w, wc)) <= 1e-8 * max(1.0, spectral_radius(dec))


def xx_block_eigenvalues(n, mu, gamma):
    """``_eigenvalues`` of the chain's ``dmz0`` block at delta = 0."""
    model, keep = xxz_model(XXZParams(n, 0.0, mu, gamma)), sector_positions(n, "dmz0")
    return _eigenvalues(lambda: build_superoperator(model, keep).matrix)


class TestExactXXSpectrum:
    """The ``dmz0`` block at delta = 0 against its third-quantization spectrum
    (``conftest.xx_dmz0_spectrum``), matched under an optimal assignment."""

    @staticmethod
    def assert_matches(w, exact):
        assert w.size == exact.size
        rows, cols = linear_sum_assignment(np.abs(w[:, None] - exact[None, :]))
        assert np.abs(w[rows] - exact[cols]).max() <= 1e-12 * max(1.0, np.abs(w).max())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=3, deadline=None)
    @given(mu=st.floats(-1.0, 1.0))
    def test_block_spectrum(self, n, mu):
        # mu drops out of the spectrum
        for gamma in np.geomspace(0.01, 12.0, 25):
            self.assert_matches(xx_block_eigenvalues(n, mu, gamma), xx_dmz0_spectrum(n, gamma))

    def test_six_sites(self):
        self.assert_matches(xx_block_eigenvalues(6, 0.5, 0.3), xx_dmz0_spectrum(6, 0.3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("gamma", [0.02, 0.2, 2.0])
    @pytest.mark.parametrize("mu", [1.0, 0.3])
    def test_cross_counts(self, n, gamma, mu):
        _, probed = is_unbroken(XXZParams(n, 0.0, mu, gamma))
        exact = classify_cross(xx_dmz0_spectrum(n, gamma), gamma)
        for line in ("on_h", "on_v", "off_cross"):
            assert len(getattr(probed, line)) == len(getattr(exact, line))


def test_collinearity_error_basics():
    a = np.array([1.0, 1j]) / np.sqrt(2)
    assert collinearity_error(a, np.exp(0.7j) * a) < 1e-15
    assert collinearity_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert collinearity_error(np.zeros(2), np.array([1.0, 0.0])) == 1.0
