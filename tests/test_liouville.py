import numpy as np
import pytest

from ptlind import (
    LindbladModel,
    SectorNotInvariant,
    SuperOperator,
    ValidationError,
    average_damping,
    build_superoperator,
    dissipator_superoperator,
    hermiticity_residual,
    left_identity_residual,
    propagator,
    sector_restrict,
    traceless_dissipator,
    traceless_part,
    vec,
)
from ptlind.operators import SIGMA_MINUS, SIGMA_Z, dagger
from ptlind.xxz import XXZParams, sector_basis, xxz_model

from conftest import random_density, random_hermitian, random_model, single_qubit


def sorted_eigs(matrix):
    w = np.linalg.eigvals(matrix)
    return np.array(sorted(w, key=lambda z: (round(z.real, 9), z.imag)))


class TestBuildSuperoperator:
    def test_single_qubit_spectrum(self):
        sup = build_superoperator(single_qubit(omega=1.0, gamma=0.1))
        expected = sorted([0.0, -0.2, -0.1 + 1j, -0.1 - 1j], key=lambda z: (z.real, z.imag))
        got = sorted_eigs(sup.matrix)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-10

    def test_closed_system_spectrum_is_bohr_frequencies(self, rng):
        h = random_hermitian(rng, 4)
        model = LindbladModel(h, (np.zeros((4, 4)),), 0.0)
        eps = np.linalg.eigvalsh(h)
        expected = sorted((1j * (ej - ek) for ej in eps for ek in eps), key=lambda z: z.imag)
        got = sorted(np.linalg.eigvals(build_superoperator(model).matrix), key=lambda z: z.imag)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-10
        assert np.abs(np.real(got)).max() < 1e-12

    def test_xxz_n2_dimensions_and_dissipator_trace(self):
        model = xxz_model(XXZParams(2, 0.5, 0.5, 0.7))
        sup = build_superoperator(model)
        assert sup.dim == 16
        dis = dissipator_superoperator(model)
        assert abs(np.trace(dis.matrix) + 16) < 1e-12

    def test_apply_consistency_against_operator_arithmetic(self, rng):
        model = random_model(rng, dim=4)
        sup = build_superoperator(model)
        h, gamma = model.hamiltonian, model.gamma
        for _ in range(20):
            rho = random_density(rng, 4)
            drho = -1j * (h @ rho - rho @ h)
            for L in model.lindblads:
                ldl = dagger(L) @ L
                drho += gamma * (2 * L @ rho @ dagger(L) - ldl @ rho - rho @ ldl)
            assert np.linalg.norm(sup.apply(rho) - drho) < 1e-12 * max(1.0, np.linalg.norm(drho))


class TestModelValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]), (SIGMA_MINUS,), 0.1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(np.eye(4), (SIGMA_MINUS,), 0.1)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(SIGMA_Z, (SIGMA_MINUS,), -0.1)

    def test_too_many_jump_operators_rejected(self):
        with pytest.raises(ValidationError):
            LindbladModel(SIGMA_Z, (SIGMA_MINUS,) * 4, 0.1)


class TestAverageDamping:
    def test_single_qubit(self):
        assert average_damping(build_superoperator(single_qubit(gamma=0.1))) == pytest.approx(0.1)

    def test_closed_system_traceless(self, rng):
        model = LindbladModel(random_hermitian(rng, 3), (np.zeros((3, 3)),), 0.0)
        assert average_damping(build_superoperator(model)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_xxz_family_equals_gamma(self, n, mu):
        gamma = 0.37
        sup = build_superoperator(xxz_model(XXZParams(n, 0.5, mu, gamma)))
        assert average_damping(sup) == pytest.approx(gamma, rel=1e-12)


class TestTracelessPart:
    def test_single_qubit_shifted_spectrum(self):
        sup = traceless_part(build_superoperator(single_qubit(gamma=0.1)))
        expected = sorted([0.1, -0.1, 1j, -1j], key=lambda z: (z.real, z.imag))
        got = sorted_eigs(sup.matrix)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-10

    def test_closed_system_unchanged(self, rng):
        model = LindbladModel(random_hermitian(rng, 3), (np.zeros((3, 3)),), 0.0)
        sup = build_superoperator(model)
        assert np.array_equal(traceless_part(sup).matrix, sup.matrix + 0.0 * np.eye(9))

    def test_trace_vanishes(self, rng):
        sup = build_superoperator(random_model(rng))
        out = traceless_part(sup)
        assert abs(np.trace(out.matrix)) < 1e-12 * max(1.0, np.linalg.norm(out.matrix))


class TestPropagator:
    def test_zero_time_is_identity(self, rng):
        sup = build_superoperator(random_model(rng, dim=3))
        assert np.array_equal(propagator(sup, 0.0).matrix, np.eye(9))

    def test_single_qubit_excited_decay(self):
        sup = build_superoperator(single_qubit(gamma=0.1))
        rho0 = np.diag([1.0, 0.0]).astype(complex)  # excited = upper level
        rho1 = propagator(sup, 1.0).apply(rho0)
        assert rho1[0, 0].real == pytest.approx(np.exp(-0.2), abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_trace_preservation(self, rng, t):
        sup = build_superoperator(random_model(rng, dim=4))
        rho0 = random_density(rng, 4)
        rho_t = propagator(sup, t).apply(rho0)
        assert np.trace(rho_t) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(rho_t - dagger(rho_t)).max() < 1e-10

    def test_non_finite_time_rejected(self, rng):
        sup = build_superoperator(random_model(rng, dim=2))
        with pytest.raises(ValidationError):
            propagator(sup, np.inf)


class TestHermiticityResidual:
    def test_built_liouvillians_preserve_hermiticity(self, rng):
        for _ in range(10):
            sup = build_superoperator(random_model(rng))
            assert hermiticity_residual(sup) <= 1e-13

    def test_multiplication_by_i_breaks_it(self):
        sup = SuperOperator(1j * np.eye(4), 2, np.arange(4))
        assert hermiticity_residual(sup) == pytest.approx(2.0)

    def test_closed_system(self, rng):
        model = LindbladModel(random_hermitian(rng, 3), (np.zeros((3, 3)),), 0.0)
        assert hermiticity_residual(build_superoperator(model)) <= 1e-14

    def test_zero_magnetization_block(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, 0.3)))
        assert hermiticity_residual(sector_restrict(sup, sector_basis(3, 0))) <= 1e-13


class TestSectorRestrict:
    def test_xxz_n4_zero_magnetization_block(self):
        sup = build_superoperator(xxz_model(XXZParams(4, 0.5, 1.0, 0.02)))
        sub = sector_restrict(sup, sector_basis(4, 0))
        assert sub.dim == 70
        assert sub.hilbert_dim == 16

    def test_index_is_a_private_read_only_copy(self):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.3)))
        keep = sector_basis(2, 0)
        sub = sector_restrict(sup, keep)
        keep[0] = 1
        assert sub.index.tolist() == sector_basis(2, 0).tolist()
        with pytest.raises(ValueError):
            sub.index[0] = 1

    def test_keep_all_is_identity(self, rng):
        sup = build_superoperator(random_model(rng, dim=3))
        assert sector_restrict(sup, np.arange(9)) is sup

    def test_n2_sector_spectrum_is_subset(self):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.3)))
        sub = sector_restrict(sup, sector_basis(2, 0))
        assert sub.dim == 6
        w_full = np.linalg.eigvals(sup.matrix)
        for lam in np.linalg.eigvals(sub.matrix):
            assert np.min(np.abs(w_full - lam)) < 1e-10

    def test_non_invariant_sector_rejected(self):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.3)))
        with pytest.raises(SectorNotInvariant):
            sector_restrict(sup, [0, 5])  # |0><0|, |1><1| with N = 4

    def test_unknown_labels_rejected(self, rng):
        sup = build_superoperator(random_model(rng, dim=2))
        with pytest.raises(ValidationError):
            sector_restrict(sup, [15])  # |5><5| with N = 2

    def test_repeated_positions_rejected(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, 0.3)))
        keep = sector_basis(3, 0)
        with pytest.raises(ValidationError):
            sector_restrict(sup, np.append(keep, keep[0]))

    @pytest.mark.parametrize("keep", [[-1], [4], [0, 1, 2, 3, 4], [0.0, 3.0], [(0, 0), (1, 1)]])
    def test_malformed_positions_rejected(self, rng, keep):
        sup = build_superoperator(random_model(rng, dim=2))
        with pytest.raises(ValidationError):
            sector_restrict(sup, keep)

    def test_positions_absent_from_a_sector_rejected(self):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.3)))
        sub = sector_restrict(sup, sector_basis(2, 0))
        with pytest.raises(ValidationError):
            sector_restrict(sub, sector_basis(2, 2))

    def test_permuted_full_basis_applies_like_the_original(self, rng):
        sup = build_superoperator(random_model(rng, dim=3))
        permuted = sector_restrict(sup, rng.permutation(9))
        rho = random_density(rng, 3)
        assert np.abs(permuted.apply(rho) - sup.apply(rho)).max() <= 1e-12


class TestGeneratorInvariants:
    def test_zero_mode_left_half_plane_and_left_identity(self, rng):
        for _ in range(10):
            sup = build_superoperator(random_model(rng))
            w = np.linalg.eigvals(sup.matrix)
            assert np.min(np.abs(w)) <= 1e-10
            assert w.real.max() <= 1e-10
            assert left_identity_residual(sup) <= 1e-11 * max(1.0, np.linalg.norm(sup.matrix))

    def test_trace_vector(self, rng):
        sup = build_superoperator(random_model(rng, dim=3))
        rho = random_density(rng, 3)
        assert sup.trace_vector() @ vec(rho) == pytest.approx(1.0)


class TestTracelessDissipator:
    def test_xxz_accepted_and_traceless(self):
        model = xxz_model(XXZParams(3, 0.5, 0.5, 0.2))
        dp = traceless_dissipator(model)
        assert abs(np.trace(dp.matrix)) < 1e-9 * 64

    def test_unnormalised_model_refused(self):
        model = LindbladModel(0.5 * SIGMA_Z, (2.0 * SIGMA_MINUS,), 0.1)
        with pytest.raises(ValidationError):
            traceless_dissipator(model)
