import itertools

import numpy as np
import pytest

from ptlind import (
    BasisConvention,
    ValidationError,
    almost_equal,
    dagger,
    global_spin_flip,
    hs_inner,
    kron,
    mat_exp,
    product_map,
    site_operator,
    site_reversal,
    transpose_permutation,
    unvec,
    vec,
)
from ptlind.operators import IDENTITY_2, SIGMA_PLUS, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import random_density


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sz_times_identity(self):
        assert np.array_equal(kron(SIGMA_Z, IDENTITY_2), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_double_flip(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        out = kron(SIGMA_X, SIGMA_X) @ e0
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.array_equal(out, expected)

    def test_associativity_exact(self, rng):
        # small Gaussian-integer entries keep every product exact in binary64,
        # so associativity can be asserted bitwise
        def gaussian_int(dim):
            return rng.integers(-2, 3, size=(dim, dim)) + 1j * rng.integers(-2, 3, size=(dim, dim))

        a, b, c = gaussian_int(2), gaussian_int(3), gaussian_int(2)
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            kron(np.ones((2, 3)), IDENTITY_2)


class TestDagger:
    def test_ladder(self):
        assert np.array_equal(dagger(SIGMA_PLUS), SIGMA_MINUS)

    def test_involution(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(dagger(dagger(a)), a)

    def test_imaginary_identity(self):
        assert np.array_equal(dagger(1j * np.eye(3)), -1j * np.eye(3))


class TestHsInner:
    def test_pauli_norms(self):
        assert hs_inner(SIGMA_X, SIGMA_X) == pytest.approx(2.0)
        assert hs_inner(SIGMA_X, SIGMA_Y) == pytest.approx(0.0)

    def test_trace_against_identity(self, rng):
        rho = random_density(rng, 4)
        assert hs_inner(np.eye(4), rho) == pytest.approx(np.trace(rho))

    def test_conjugate_symmetry(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_positive_definite(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            val = hs_inner(a, a)
            assert abs(val.imag) < 1e-12
            assert val.real > 0
        assert hs_inner(np.zeros((3, 3)), np.zeros((3, 3))) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hs_inner(np.eye(2), np.eye(3))


class TestSiteOperator:
    def test_first_site_z(self):
        assert np.array_equal(site_operator("z", 1, 2), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_raising_flips_down_to_up(self):
        down = np.array([0.0, 1.0])
        up = np.array([1.0, 0.0])
        assert np.array_equal(site_operator("+", 1, 1) @ down, up)

    def test_commute_across_sites(self):
        for a in "xz+":
            for b in "y-z":
                oa = site_operator(a, 1, 3)
                ob = site_operator(b, 2, 3)
                assert np.abs(oa @ ob - ob @ oa).max() == 0.0

    def test_site_out_of_range(self):
        with pytest.raises(ValidationError):
            site_operator("z", 4, 3)
        with pytest.raises(ValidationError):
            site_operator("w", 1, 2)


class TestMatExp:
    def test_zero_is_exact_identity(self):
        out = mat_exp(np.zeros((5, 5)))
        assert np.array_equal(out, np.eye(5))

    def test_diagonal_case(self):
        theta = 0.3
        out = mat_exp(1j * theta * SIGMA_Z)
        expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        assert np.abs(out - expected).max() < 1e-14

    def test_against_eigendecomposition_oracle(self, rng):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        w, v = np.linalg.eig(a)
        oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        assert np.abs(mat_exp(a) - oracle).max() < 1e-10

    def test_contract_at_larger_dim(self, rng):
        # contract: 1e-10 for dim <= 1024, spectral radius <= 50
        dim = 200
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= 40.0 / np.max(np.abs(np.linalg.eigvals(a)))
        w, v = np.linalg.eig(a)
        oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        scale = np.abs(oracle).max()
        assert np.abs(mat_exp(a) - oracle).max() < 1e-10 * max(1.0, scale)

    def test_commuting_diagonals(self, rng):
        a = np.diag(rng.normal(size=6) + 1j * rng.normal(size=6))
        b = np.diag(rng.normal(size=6) + 1j * rng.normal(size=6))
        lhs = mat_exp(a + b)
        rhs = mat_exp(a) @ mat_exp(b)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())

    def test_non_finite_rejected(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            mat_exp(bad)


class TestVectorization:
    def test_roundtrip(self, rng):
        rho = random_density(rng, 3)
        assert np.array_equal(unvec(vec(rho)), rho)

    def test_flat_index_is_row_major(self):
        conv = BasisConvention(2)
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 2] = 1.0
        assert vec(rho)[conv.pair_index(1, 2)] == 1.0

    def test_product_map_matches_direct_arithmetic(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for _ in range(5):
            rho = random_density(rng, 4)
            assert np.abs(product_map(a, b) @ vec(rho) - vec(a @ rho @ b)).max() < 1e-12

    def test_transpose_permutation(self, rng):
        rho = random_density(rng, 3)
        p = transpose_permutation(3)
        assert np.array_equal(p @ vec(rho), vec(rho.T))


class TestBasisConvention:
    def test_state_index(self):
        conv = BasisConvention(3)
        # site 1 is the most significant bit; up = 0, down = 1
        assert conv.state_index([0, 0, 0]) == 0
        assert conv.state_index([0, 0, 1]) == 1
        assert conv.state_index([1, 0, 0]) == 4

    def test_magnetization(self):
        conv = BasisConvention(2)
        assert conv.magnetization(0) == 2
        assert conv.magnetization(1) == 0
        assert conv.magnetization(3) == -2

    def test_sigma_z_sign(self):
        up = np.array([1.0, 0.0])
        assert (SIGMA_Z @ up)[0] == 1.0


class TestChainPermutations:
    def test_reversal_is_involution(self):
        r = site_reversal(3)
        assert np.array_equal(r @ r, np.eye(8))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reversal_reverses_bit_order(self, n):
        conv = BasisConvention(n)
        r = site_reversal(n)
        for bits in itertools.product((0, 1), repeat=n):
            assert r[conv.state_index(bits[::-1]), conv.state_index(bits)] == 1.0
        assert np.count_nonzero(r) == 2**n

    def test_reversal_moves_site_operators(self):
        r = site_reversal(3)
        assert np.abs(r @ site_operator("z", 1, 3) @ r - site_operator("z", 3, 3)).max() == 0.0

    def test_flip_is_involution_and_commutes_with_reversal(self):
        s = global_spin_flip(3)
        r = site_reversal(3)
        assert np.array_equal(s @ s, np.eye(8))
        assert np.array_equal(r @ s, s @ r)


def test_almost_equal_default_tolerance():
    a = np.eye(3)
    assert almost_equal(a, a + 1e-13)
    assert not almost_equal(a, a + 1e-11)
    assert not almost_equal(a, np.eye(4))
