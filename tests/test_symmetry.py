import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlind import (
    LindbladModel,
    NotInvolution,
    NotUnitary,
    SectorNotInvariant,
    build_superoperator,
    check_inversion,
    check_pt,
    check_pt_rows,
    parity_from_pair,
    sector_restrict,
    xxz_parity,
)
from ptlind.operators import SIGMA_PLUS, SIGMA_X, dagger, site_operator, site_reversal
from ptlind.symmetry import _kron_identity_residual, _sandwich
from ptlind.xxz import (
    XXZParams,
    ladder_vectorization_map,
    row_superoperators,
    sector_basis,
    xxz_model,
)

from conftest import random_hermitian, single_qubit


def sigma_z_string(n):
    out = np.eye(2**n, dtype=complex)
    for j in range(1, n + 1):
        out = out @ site_operator("z", j, n)
    return out


class TestParityFromPair:
    def test_identity_pair(self):
        p = parity_from_pair(np.eye(3), np.eye(3))
        assert np.array_equal(p.matrix, np.eye(9))

    def test_sigma_x_pair(self):
        p = parity_from_pair(SIGMA_X, SIGMA_X)
        assert np.linalg.norm(p.matrix @ p.matrix - np.eye(4)) < 1e-14
        assert np.linalg.norm(dagger(p.matrix) @ p.matrix - np.eye(4)) < 1e-14

    def test_raising_operator_rejected(self):
        with pytest.raises(NotUnitary):
            parity_from_pair(SIGMA_PLUS, SIGMA_PLUS)

    def test_unitary_involution_properties(self):
        p = xxz_parity(3)
        m = p.matrix
        eye = np.eye(m.shape[0])
        assert np.linalg.norm(dagger(m) @ m - eye) < 1e-12
        assert np.linalg.norm(dagger(m) - m) < 1e-12  # P^dag = P^-1 = P


class TestXXZParity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_applied_to_identity_gives_z_string(self, n):
        p = xxz_parity(n)
        out = p.apply(np.eye(2**n, dtype=complex))
        assert np.abs(out - sigma_z_string(n)).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_squares_to_identity(self, n):
        p = xxz_parity(n)
        assert np.linalg.norm(p.matrix @ p.matrix - np.eye(4**n)) < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_ladder_construction_matches_operator_map(self, n):
        # independent route: build (R prod sz) (x) R on the two-copy space and
        # convert through the spin-flip identification of |psi><phi|
        r = site_reversal(n)
        ladder_form = np.kron(r @ sigma_z_string(n), r)
        pi = ladder_vectorization_map(n)
        converted = pi @ ladder_form @ pi
        assert np.abs(converted - xxz_parity(n).matrix).max() < 1e-14

    def test_commutes_with_sector_restriction(self):
        # the parity maps the zero-magnetization block to itself
        p = xxz_parity(3)
        labels = sector_basis(3, 0)
        restricted = sector_restrict(p.as_superoperator(), labels, tol=1e-12)
        assert np.linalg.norm(restricted.matrix @ restricted.matrix - np.eye(20)) < 1e-12


class TestCheckPT:
    def test_xxz_family_point(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, 0.3)))
        rep = check_pt(sup, xxz_parity(3))
        assert rep.pt_residual <= 1e-12
        assert rep.gamma_bar == pytest.approx(0.3, rel=1e-12)

    def test_closed_system_with_identity_parity(self, rng):
        h = random_hermitian(rng, 4)
        sup = build_superoperator(LindbladModel(h, (np.zeros((4, 4)),), 0.0))
        rep = check_pt(sup, parity_from_pair(np.eye(4), np.eye(4)))
        assert rep.pt_residual <= 1e-14

    def test_one_sided_decay_breaks_it(self):
        sup = build_superoperator(single_qubit(gamma=0.1))
        rep = check_pt(sup, parity_from_pair(SIGMA_X, SIGMA_X))
        assert rep.pt_residual > 0.1

    def test_sector_restricted_check(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 0.5, 0.2)))
        sub = sector_restrict(sup, sector_basis(3, 0))
        rep = check_pt(sub, xxz_parity(3))
        assert rep.pt_residual <= 1e-12

    def test_permuted_full_basis(self, rng):
        # the parity must follow the row order of a reordered full-space basis
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, 0.3)))
        permuted = sector_restrict(sup, rng.permutation(64))
        expected = check_pt(sup, xxz_parity(3)).pt_residual
        assert abs(check_pt(permuted, xxz_parity(3)).pt_residual - expected) <= 1e-12


class TestCheckPTRows:
    def test_each_row_is_symmetric(self):
        residuals = check_pt_rows(XXZParams(2, 0.5, 1.0, 0.4))
        assert len(residuals) == 3
        assert max(residuals) <= 1e-12

    def test_rows_sum_to_full_generator(self):
        params = XXZParams(3, 0.7, 0.3, 0.9)
        rows = row_superoperators(params)
        total = sum(r.matrix for r in rows)
        direct = build_superoperator(xxz_model(params)).matrix
        assert np.abs(total - direct).max() < 1e-13

    def test_unbiased_driving_rows_are_parity_images(self):
        # at mu = 0 the two jump rows map onto each other under the parity
        params = XXZParams(2, 0.5, 0.0, 0.4)
        residuals = check_pt_rows(params)
        assert max(residuals) <= 1e-12
        row1, row2, row3 = row_superoperators(params)
        p = xxz_parity(2).matrix
        jump3 = row3.matrix + params.gamma * np.eye(16)
        assert np.abs(p @ row2.matrix @ p + jump3).max() < 1e-13


class TestCheckInversion:
    @pytest.mark.parametrize("t", [0.1, 0.25, 1.0])
    def test_xxz_propagator_inversion(self, t):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.3)))
        assert check_inversion(sup, xxz_parity(2), t) <= 1e-9

    def test_permuted_full_basis(self, rng):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, 0.3)))
        permuted = sector_restrict(sup, rng.permutation(64))
        expected = check_inversion(sup, xxz_parity(3), 0.25)
        assert abs(check_inversion(permuted, xxz_parity(3), 0.25) - expected) <= 1e-12

    def test_zero_time(self):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.3)))
        assert check_inversion(sup, xxz_parity(2), 0.0) <= 1e-13

    def test_fails_without_symmetry(self):
        sup = build_superoperator(single_qubit(gamma=0.4))
        err = check_inversion(sup, parity_from_pair(SIGMA_X, SIGMA_X), 0.5)
        assert err > 1e-2


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary_involution(rng, dim):
    """``Q diag(+-1) Q^dag`` with Q from the QR of a Gaussian matrix."""
    q, _ = np.linalg.qr(random_matrix(rng, dim))
    return (q * rng.choice([-1.0, 1.0], size=dim)) @ dagger(q)


def dense_sandwich(parity, m, index):
    """Oracle: ``P m P`` with P the dense ``kron(a, b.T)`` restricted to ``index``."""
    p = np.kron(parity.left_op, parity.right_op.T)[np.ix_(index, index)]
    return p @ m @ p


class TestFactoredParity:
    """``P m P`` through the factors (a, b) against the dense ``kron(a, b.T)`` oracle."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 4),
        basis=st.sampled_from(["full", "permuted", "dmz0"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_xxz_parity_bit_exact(self, n, basis, seed):
        # the XXZ parity is monomial, so every BLAS sum has exactly one nonzero term
        rng = np.random.default_rng(seed)
        index = {
            "full": np.arange(4**n),
            "permuted": rng.permutation(4**n),
            "dmz0": sector_basis(n, 0),
        }[basis]
        m = random_matrix(rng, index.size)
        parity = xxz_parity(n)
        assert np.array_equal(_sandwich(parity, m, index), dense_sandwich(parity, m, index))

    @settings(max_examples=20, deadline=None)
    @given(
        dim=st.integers(2, 6),
        permuted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_unitary_pair(self, dim, permuted, seed):
        rng = np.random.default_rng(seed)
        parity = parity_from_pair(random_unitary_involution(rng, dim), random_unitary_involution(rng, dim))
        index = rng.permutation(dim * dim) if permuted else np.arange(dim * dim)
        m = random_matrix(rng, dim * dim)
        expected = dense_sandwich(parity, m, index)
        got = _sandwich(parity, m, index)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_involution_residual_matches_dense(self, n):
        parity = xxz_parity(n)
        assert parity.involution_residual == 0.0
        assert np.linalg.norm(parity.matrix @ parity.matrix - np.eye(4**n)) == 0.0

    def test_involution_residual_of_a_non_involution(self, rng):
        # a random unitary pair does not square to the identity; the factored
        # residual is the Frobenius norm of kron(a a, (b b).T) - I
        a, _ = np.linalg.qr(random_matrix(rng, 3))
        b, _ = np.linalg.qr(random_matrix(rng, 3))
        dense = np.linalg.norm(np.kron(a @ a, (b @ b).T) - np.eye(9))
        assert _kron_identity_residual(a @ a, (b @ b).T) == pytest.approx(dense, rel=1e-12)
        with pytest.raises(NotInvolution, match="residual"):
            parity_from_pair(a, b)
        z = np.diag([1.0, 1j, 1.0])  # z^2 = diag(1, -1, 1): |kron(z^2, I) - I|_F = 2 sqrt(3)
        assert _kron_identity_residual(z @ z, np.eye(3)) == pytest.approx(2 * np.sqrt(3), rel=1e-15)

    def test_matrix_is_derived_on_first_access(self):
        parity = xxz_parity(3)
        assert "matrix" not in vars(parity)
        assert np.array_equal(parity.matrix, np.kron(parity.left_op, parity.right_op.T))
        assert parity.matrix is parity.matrix


class TestParityLeavingTheSector:
    """A parity that maps the dmz0 block out of itself is refused, as before."""

    @pytest.fixture
    def block(self):
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, 0.3)))
        return sector_restrict(sup, sector_basis(3, 0))

    @pytest.fixture
    def flip(self):
        # sigma^x on site 1, acting from the left only, changes the magnetization difference
        return parity_from_pair(site_operator("x", 1, 3), np.eye(8))

    def test_check_pt(self, block, flip):
        with pytest.raises(SectorNotInvariant):
            check_pt(block, flip)

    def test_check_inversion(self, block, flip):
        with pytest.raises(SectorNotInvariant):
            check_inversion(block, flip, 0.25)


class TestNoDenseParityProducts:
    """At n = 5 an N^2 x N^2 complex matrix is 16 MB; the PT check forms no dense parity."""

    BLOCK = 16 * 1024**2

    @pytest.fixture
    def traced(self):
        tracemalloc.start()
        yield
        tracemalloc.stop()

    def test_parity_build_allocates_no_superoperator_matrix(self, traced):
        tracemalloc.reset_peak()
        xxz_parity(5)
        assert tracemalloc.get_traced_memory()[1] < self.BLOCK

    def test_check_pt_temporaries(self, traced):
        sup = build_superoperator(xxz_model(XXZParams(5, 0.5, 1.0, 0.3)))
        parity = xxz_parity(5)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = check_pt(sup, parity)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert rep.pt_residual <= 1e-12
        # the traceless part, the sandwich's temporaries and its result; the dense
        # parity, built lazily on first access, would add a fifth
        assert peak < 4.5 * self.BLOCK
        assert "matrix" not in vars(parity)
