import numpy as np
import pytest

from ptlind import (
    ValidationError,
    average_damping,
    build_superoperator,
    check_pt,
    sector_restrict,
    xxz_parity,
)
from ptlind.operators import BasisConvention, site_operator, site_reversal, vec
from ptlind.xxz import (
    XXZParams,
    ladder_liouvillian,
    ladder_matrix,
    sector_basis,
    spin_current,
    xxz_model,
)


def total_magnetization(n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n + 1):
        out += site_operator("z", j, n)
    return out


class TestModel:
    def test_two_site_energies(self):
        h = xxz_model(XXZParams(2, 0.5, 0.0, 0.0)).hamiltonian
        assert np.allclose(np.linalg.eigvalsh(h), [-2.5, 0.5, 0.5, 1.5])

    def test_maximum_driving_zeroes_two_channels(self):
        model = xxz_model(XXZParams(3, 0.5, 1.0, 0.2))
        assert len(model.lindblads) == 4
        assert not model.lindblads[1].any()
        assert not model.lindblads[2].any()
        assert model.lindblads[0].any() and model.lindblads[3].any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_magnetization_conserved(self, n):
        h = xxz_model(XXZParams(n, 0.5, 0.4, 0.0)).hamiltonian
        mz = total_magnetization(n)
        assert np.abs(h @ mz - mz @ h).max() <= 1e-14

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            XXZParams(1, 0.5, 0.0, 0.1)
        with pytest.raises(ValidationError):
            XXZParams(2, 0.5, 1.5, 0.1)
        with pytest.raises(ValidationError):
            XXZParams(2, 0.5, 0.0, -0.1)


class TestSpinCurrent:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hermitian_traceless_and_conserving(self, n):
        j_op = spin_current(n)
        assert np.abs(j_op - j_op.conj().T).max() <= 1e-14
        assert abs(np.trace(j_op)) <= 1e-14
        mz = total_magnetization(n)
        assert np.abs(j_op @ mz - mz @ j_op).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vanishing_diagonal_in_energy_eigenbasis(self, n):
        h = xxz_model(XXZParams(n, 0.5, 0.0, 0.0)).hamiltonian
        _, psi = np.linalg.eigh(h)
        diag = np.diag(psi.conj().T @ spin_current(n) @ psi)
        assert np.abs(diag).max() <= 1e-12

    def test_two_site_matrix_element(self):
        # basis order: |up,up>, |up,down>, |down,up>, |down,down>
        j_op = spin_current(2)
        assert j_op[1, 2] == pytest.approx(1j)


class TestLadderConstruction:
    def test_random_points_match_direct_assembly(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            params = XXZParams(
                n,
                float(rng.uniform(-1.5, 1.5)),
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(0.05, 2.0)),
            )
            direct = build_superoperator(xxz_model(params)).matrix
            ladder = ladder_liouvillian(params).matrix
            assert np.abs(direct - ladder).max() <= 1e-12

    def test_closed_chain_ladder_form(self):
        params = XXZParams(2, 0.7, 0.5, 0.0)
        h = xxz_model(params).hamiltonian
        one = np.eye(4)
        expected = np.kron(one, 1j * h) - np.kron(1j * h, one)
        assert np.abs(ladder_matrix(params) - expected).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_trace_of_ladder_form(self, n):
        params = XXZParams(n, 0.5, 0.3, 0.8)
        assert np.trace(ladder_matrix(params)) == pytest.approx(-0.8 * 4**n, rel=1e-12)


class TestSectorBasis:
    def test_counts(self):
        assert len(sector_basis(4, 0)) == 70
        assert len(sector_basis(2, 0)) == 6
        assert len(sector_basis(2, 4)) == 1  # |upup><downdown|
        assert sector_basis(2, 1).size == 0  # odd imbalance impossible

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            sector_basis(2, 6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flat_positions_of_magnetization_filter(self, n):
        conv = BasisConvention(n)
        dim = conv.hilbert_dim
        for dmz in range(-2 * n, 2 * n + 1):
            expected = [
                conv.pair_index(j, k)
                for j in range(dim)
                for k in range(dim)
                if conv.magnetization(j) - conv.magnetization(k) == dmz
            ]
            index = sector_basis(n, dmz)
            assert index.dtype == np.int64
            assert index.tolist() == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_and_current_live_in_zero_sector(self, n):
        labels = set(sector_basis(n, 0).tolist())
        dim = 2**n
        for op in (np.eye(dim, dtype=complex), spin_current(n)):
            x = vec(op)
            support = {i for i in range(dim * dim) if abs(x[i]) > 1e-14}
            assert support <= labels

    def test_sector_is_invariant_to_tight_tolerance(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 0.6, 0.9)))
        sector_restrict(sup, sector_basis(3, 0), tol=1e-13)  # must not raise


class TestChainSymmetries:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reflection_symmetry(self, n):
        r = site_reversal(n)
        h = xxz_model(XXZParams(n, 0.5, 0.0, 0.0)).hamiltonian
        assert np.abs(r @ h @ r - h).max() <= 1e-13
        j_op = spin_current(n)
        assert np.abs(r @ j_op @ r + j_op).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_pt_symmetry_sample(self, n, mu):
        for gamma in (0.01, 2.0):
            sup = build_superoperator(xxz_model(XXZParams(n, 1.5, mu, gamma)))
            assert check_pt(sup, xxz_parity(n)).pt_residual <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dissipator_trace_normalisation(self, n):
        gamma = 0.73
        sup = build_superoperator(xxz_model(XXZParams(n, 1.2, 0.4, gamma)))
        assert average_damping(sup) == pytest.approx(gamma, rel=1e-9)
