import numpy as np
import pytest

from ptlind import (
    LindbladModel,
    NoZeroMode,
    SuperOperator,
    build_superoperator,
    classify_cross,
    collinearity_error,
    eig_biortho,
    left_steady_vector,
    pt_partner_check,
    sector_restrict,
    steady_state,
    unvec,
    verify_d2,
    xxz_parity,
)
from ptlind.operators import site_operator
from ptlind.xxz import XXZParams, sector_basis, xxz_model

from conftest import random_hermitian, random_model, single_qubit


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
            if not dec.is_simple(k):
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
            if not dec.is_simple(a):
                continue
            for b in range(dec.dim):
                separated = a == b or abs(w[a] - w[b]) > 1e-8 * scale
                if not (dec.is_simple(b) and separated):
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


class TestSteadyState:
    def test_single_qubit_ground_state(self):
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.3)))
        rho = unvec(steady_state(dec))
        assert np.abs(rho - np.diag([0.0, 1.0])).max() < 1e-10

    def test_unbiased_xxz_steady_state_is_maximally_mixed(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 0.0, 0.4)))
        rho = unvec(steady_state(eig_biortho(sup)))
        assert np.abs(rho - np.eye(8) / 8.0).max() < 1e-9
        assert np.linalg.norm(sup.apply(np.eye(8, dtype=complex) / 8.0)) < 1e-12

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


class TestClassifyCross:
    def test_unbroken_panel_counts(self, fig_top_decomposition):
        cls = classify_cross(fig_top_decomposition, gamma_bar=0.02)
        assert len(cls.off_cross) == 0
        assert len(cls.on_h) == 16
        assert len(cls.on_v) == 54

    def test_broken_coupling_has_off_cross_modes(self):
        sup = build_superoperator(xxz_model(XXZParams(4, 0.5, 1.0, 2.0)))
        dec = eig_biortho(sector_restrict(sup, sector_basis(4, 0)))
        cls = classify_cross(dec, gamma_bar=2.0)
        assert len(cls.off_cross) > 0

    def test_closed_system_all_on_vertical_line(self, rng):
        h = random_hermitian(rng, 3)
        dec = eig_biortho(build_superoperator(LindbladModel(h, (np.zeros((3, 3)),), 0.0)))
        cls = classify_cross(dec, gamma_bar=0.0)
        assert len(cls.off_cross) == 0
        # with gamma_bar = 0 both lines pass through the imaginary axis: the
        # zero modes count as populations, everything else as coherences
        assert len(cls.on_h) == sum(abs(lam) < 1e-10 for lam in dec.eigenvalues)

    def test_tie_break_prefers_populations(self):
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.1)))
        cls = classify_cross(dec, gamma_bar=0.1)
        # 0 and -2 gamma on the real axis, the conjugate pair on the vertical line
        assert len(cls.on_h) == 2
        assert len(cls.on_v) == 2

    def test_partition_stable_under_tau_wiggle(self, fig_top_decomposition):
        base = classify_cross(fig_top_decomposition, 0.02, tau_rel=1e-8)
        lo = classify_cross(fig_top_decomposition, 0.02, tau_rel=0.9e-8)
        hi = classify_cross(fig_top_decomposition, 0.02, tau_rel=1.1e-8)
        assert base.on_h == lo.on_h == hi.on_h
        assert base.on_v == lo.on_v == hi.on_v


class TestVerifyD2:
    @pytest.mark.parametrize("gamma", [0.02, 0.2, 2.0])
    def test_xxz_dihedral_symmetry(self, gamma):
        sup = build_superoperator(xxz_model(XXZParams(4, 0.5, 1.0, gamma)))
        dec = eig_biortho(sector_restrict(sup, sector_basis(4, 0)))
        rep = verify_d2(dec, gamma_bar=gamma)
        scale = max(1.0, dec.spectral_radius)
        assert rep.max_v_error <= 1e-8 * scale
        assert rep.max_h_error <= 1e-8 * scale

    def test_single_qubit_pairing_structure(self):
        dec = eig_biortho(build_superoperator(single_qubit(gamma=0.1)))
        rep = verify_d2(dec, gamma_bar=0.1)
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
            rep = verify_d2(dec, gamma_bar=0.0)
            assert rep.max_h_error <= 1e-8 * max(1.0, dec.spectral_radius)


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
            if abs(lam.imag) > 1e-10 or not dec.is_simple(k):
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
            assert gap <= 1e-8 * max(1.0, dec.spectral_radius)

    def test_conjugate_pair_symmetry(self, rng):
        dec = eig_biortho(build_superoperator(random_model(rng)))
        w = sorted(dec.eigenvalues, key=lambda z: (round(z.real, 8), z.imag))
        wc = sorted(np.conj(dec.eigenvalues), key=lambda z: (round(z.real, 8), z.imag))
        assert max(abs(a - b) for a, b in zip(w, wc)) <= 1e-8 * max(1.0, dec.spectral_radius)


def test_collinearity_error_basics():
    a = np.array([1.0, 1j]) / np.sqrt(2)
    assert collinearity_error(a, np.exp(0.7j) * a) < 1e-15
    assert collinearity_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert collinearity_error(np.zeros(2), np.array([1.0, 0.0])) == 1.0
