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
    SuperOperator,
    ValidationError,
    build_superoperator,
    check_inversion,
    check_pt,
    eig_biortho,
    hermiticity_residual,
    left_identity_residual,
    parity_from_pair,
    pt_partner_check,
    sector_restrict,
    xxz_parity,
)
from ptlind.cli import TOLERANCES
from ptlind.operators import (
    SIGMA_PLUS,
    SIGMA_X,
    dagger,
    site_operator,
    site_reversal,
)
from ptlind.liouville import _generator_entries
from ptlind.symmetry import _GROUP, _grouped_norm, _kron_identity_residual, _parity_block, _sandwich
from ptlind.xxz import XXZParams, sector_basis, xxz_model

from conftest import (
    apply_parity,
    bits,
    check_pt_rows,
    ladder_vectorization_map,
    product_map,
    random_hermitian,
    random_model,
    row_superoperators,
    single_qubit,
    traceless_part,
)


def sigma_z_string(n):
    out = np.eye(2**n, dtype=complex)
    for j in range(1, n + 1):
        out = out @ site_operator("z", j, n)
    return out


@st.composite
def _sparse_vectors(draw) -> tuple:
    """``(at, values, size)``: a length that is mostly no multiple of the group width, and
    entries at ascending distinct positions, many at group edges or in the last partial
    group.  Their parts are zero or of magnitudes from 1e-150 to 1e150: often all of one
    scale, so that the order of the sums shows in the last bits."""
    size = draw(st.integers(1, 6 * _GROUP + 40))
    edges = {g + d for g in range(0, size + _GROUP, _GROUP) for d in (-1, 0, 1, 3, 4)}
    edges |= set(range(size - size % _GROUP - 1, size))
    near = sorted(p for p in edges if 0 <= p < size)
    last = list(range(max(0, size - 4), size))  # BLAS adds the last size % 4 one by one
    position = st.one_of(st.sampled_from(last), st.sampled_from(near), st.integers(0, size - 1))
    at = draw(st.lists(position, max_size=160, unique=True))
    low = draw(st.integers(-150, 150))
    high = draw(st.sampled_from([low, 150]))
    part = st.one_of(
        st.just(0.0),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(low, high)),
    )
    values = [complex(draw(part), draw(part)) for _ in at]
    return np.array(sorted(at), dtype=np.int64), np.array(values, dtype=complex), size


class TestGroupedNorm:
    """The norm on the groups that hold entries is ``np.linalg.norm`` of the dense vector,
    bit for bit (lengths below OpenBLAS's 10,000, under which ``ddot`` runs on one thread)."""

    @settings(max_examples=400, deadline=None)
    @given(vector=_sparse_vectors())
    def test_bit_equal_to_the_dense_norm(self, vector):
        at, values, size = vector
        dense = np.zeros(size, dtype=complex)
        dense[at] = values
        assert _grouped_norm(at, values, size).hex() == float(np.linalg.norm(dense)).hex()

    def test_every_tail_length(self):
        # lengths 128..256 end in every partial group; half the positions hold entries
        # of one scale, so a tail summed in the wrong groups shows in the last bits
        rng = np.random.default_rng(11)
        for size in range(2 * _GROUP, 4 * _GROUP + 1):
            for _ in range(20):
                at = np.flatnonzero(rng.random(size) < 0.5)
                values = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
                dense = np.zeros(size, dtype=complex)
                dense[at] = values
                assert _grouped_norm(at, values, size) == np.linalg.norm(dense), size


class TestParityFromPair:
    def test_identity_pair(self):
        p = parity_from_pair(np.eye(3), np.eye(3))
        assert np.array_equal(product_map(p.left_op, p.right_op), np.eye(9))

    def test_sigma_x_pair(self):
        p = parity_from_pair(SIGMA_X, SIGMA_X)
        m = product_map(p.left_op, p.right_op)
        assert np.linalg.norm(m @ m - np.eye(4)) < 1e-14
        assert np.linalg.norm(dagger(m) @ m - np.eye(4)) < 1e-14

    def test_raising_operator_rejected(self):
        with pytest.raises(NotUnitary):
            parity_from_pair(SIGMA_PLUS, SIGMA_PLUS)

    def test_unitary_involution_properties(self):
        p = xxz_parity(3)
        m = product_map(p.left_op, p.right_op)
        eye = np.eye(m.shape[0])
        assert np.linalg.norm(dagger(m) @ m - eye) < 1e-12
        assert np.linalg.norm(dagger(m) - m) < 1e-12  # P^dag = P^-1 = P


class TestXXZParity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_applied_to_identity_gives_z_string(self, n):
        p = xxz_parity(n)
        out = apply_parity(p, np.eye(2**n, dtype=complex))
        assert np.abs(out - sigma_z_string(n)).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_squares_to_identity(self, n):
        p = xxz_parity(n)
        m = product_map(p.left_op, p.right_op)
        assert np.linalg.norm(m @ m - np.eye(4**n)) < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_ladder_construction_matches_operator_map(self, n):
        # independent route: build (R prod sz) (x) R on the two-copy space and
        # convert through the spin-flip identification of |psi><phi|
        r = site_reversal(n)
        ladder_form = np.kron(r @ sigma_z_string(n), r)
        pi = ladder_vectorization_map(n)
        converted = pi @ ladder_form @ pi
        p = xxz_parity(n)
        assert np.abs(converted - product_map(p.left_op, p.right_op)).max() < 1e-14

    def test_commutes_with_sector_restriction(self):
        # the parity maps the zero-magnetization block to itself
        p = xxz_parity(3)
        labels = sector_basis(3, 0)
        m = product_map(p.left_op, p.right_op)
        restricted = sector_restrict(SuperOperator(m, p.hilbert_dim), labels)
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


class TestContractsOverRandomChains:
    """PT identity, hermiticity and trace preservation within the tolerances the CLI reports."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 4),
        delta=st.floats(-1.0, 1.0),
        mu=st.floats(-1.0, 1.0),
        gamma=st.floats(0.0, 10.0),
        sector=st.sampled_from(["full", "dmz0"]),
    )
    def test_generator_contracts(self, n, delta, mu, gamma, sector):
        sup = build_superoperator(xxz_model(XXZParams(n, delta, mu, gamma)))
        if sector == "dmz0":
            sup = sector_restrict(sup, sector_basis(n, 0))
        assert check_pt(sup, xxz_parity(n)).pt_residual <= TOLERANCES["pt_residual"]
        assert hermiticity_residual(sup) <= TOLERANCES["hermiticity_residual"]
        assert left_identity_residual(sup) <= 1e-13 * max(1.0, gamma)


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
        parity = xxz_parity(2)
        p = product_map(parity.left_op, parity.right_op)
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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.3)))
        with pytest.raises(ValidationError, match="^time must be finite, got "):
            check_inversion(sup, xxz_parity(2), t)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary_involution(rng, dim):
    """``Q diag(+-1) Q^dag`` with Q from the QR of a Gaussian matrix."""
    q, _ = np.linalg.qr(random_matrix(rng, dim))
    return (q * rng.choice([-1.0, 1.0], size=dim)) @ dagger(q)


def i_sigma_x_pair(n):
    """``rho -> (i sx_1) rho (i sx_n)``: each factor squares to -1, so the map is an
    involution, and ``kron(a, b.T)`` holds -1 where the factors hold i."""
    return parity_from_pair(1j * site_operator("x", 1, n), 1j * site_operator("x", n, n))


def dense_sandwich(parity, m, index):
    """Oracle: ``P m P`` with P the dense ``kron(a, b.T)`` restricted to ``index``."""
    p = np.kron(parity.left_op, parity.right_op.T)[np.ix_(index, index)]
    return p @ m @ p


def factor_sandwich(parity, m):
    """Oracle: ``P m P`` on the natural full space through the factor matmuls."""
    n = parity.hilbert_dim
    a, bt = parity.left_op, parity.right_op.T
    pm = np.matmul(bt, (a @ m.reshape(n, n**3)).reshape(n, n, n * n))
    return np.matmul(a.T, (pm.reshape(n**3, n) @ bt).reshape(n * n, n, n)).reshape(n * n, n * n)


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
        expected = dense_sandwich(parity, m, index)
        assert np.array_equal(_sandwich(_parity_block(parity, index), m), expected)

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
        got = _sandwich(_parity_block(parity, index), m)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_signed_permutation_gather_equals_the_factor_products(self, n):
        # the XXZ factors are signed permutations, so P m P is a gather with sign
        # flips; it equals the factor products up to the sign of zeros, and the PT
        # residual keeps every bit
        sup = build_superoperator(xxz_model(XXZParams(n, 0.5, 1.0, 0.3)))
        parity = xxz_parity(n)
        lp = traceless_part(sup).matrix
        expected = factor_sandwich(parity, lp)
        assert np.array_equal(_sandwich(_parity_block(parity, sup.index), lp), expected)
        residual = np.linalg.norm(expected + dagger(lp)) / max(1.0, np.linalg.norm(lp))
        assert check_pt(sup, parity).pt_residual == residual

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_check_pt_through_a_dense_block(self, dim, seed):
        # a general unitary involution pair is no signed permutation, so check_pt
        # multiplies its block in; the residual from the factors' own kron, bit for bit
        rng = np.random.default_rng(seed)
        a, b = random_unitary_involution(rng, dim), random_unitary_involution(rng, dim)
        model = random_model(rng, dim=dim)
        sup = build_superoperator(model)
        parity = parity_from_pair(a, b)
        assert isinstance(_parity_block(parity, sup.index), np.ndarray)
        p, lp = product_map(a, b), traceless_part(sup).matrix
        expected = np.linalg.norm(p @ lp @ p + dagger(lp)) / max(1.0, np.linalg.norm(lp))
        for liou in (sup, _generator_entries(model)):
            assert check_pt(liou, parity).pt_residual.hex() == float(expected).hex()

    def test_signed_permutations_are_recognised_exactly(self):
        # the gather reads P's block itself: the XXZ parity's and the i sigma^x pair's
        # are signed permutations, a sigma^y flip's holds +-i and comes back dense
        for parity in (xxz_parity(3), i_sigma_x_pair(3)):
            index = np.arange(64)
            g, inverse, sign = _parity_block(parity, index)
            block = parity.matrix_on(index)
            assert np.array_equal(block[index, g], sign)
            assert np.array_equal(inverse[g], index)
            assert set(np.abs(sign)) == {1.0}
        sigma_y = parity_from_pair(site_operator("y", 1, 3), np.eye(8))
        dense = _parity_block(sigma_y, np.arange(64))
        assert np.array_equal(bits(dense), bits(sigma_y.matrix_on(np.arange(64))))
        # nor is a phase whose real part rounds to 1, or a row with a second, tiny entry
        tilt = parity_from_pair(np.diag([1.0 + 1e-20j, 1.0]), np.eye(2))
        leak = parity_from_pair(np.array([[1.0, 0.0], [1e-14, -1.0]]), np.eye(2))
        for parity in (tilt, leak):
            dense = _parity_block(parity, np.arange(4))
            assert np.array_equal(bits(dense), bits(parity.matrix_on(np.arange(4))))

    def test_other_monomial_pairs_take_the_assembled_block(self):
        # each factor is i times a permutation and squares to -1, so the map is an
        # involution; neither factor is a signed permutation, but P = kron(a, b.T) is,
        # so the gather takes it, bit-equal to the dense products
        flip = 1j * SIGMA_X
        parity = parity_from_pair(np.kron(flip, SIGMA_X), np.kron(SIGMA_X, flip))
        m = random_matrix(np.random.default_rng(5), 16)
        index = np.arange(16)
        expected = dense_sandwich(parity, m, index)
        assert np.array_equal(bits(_sandwich(_parity_block(parity, index), m)), bits(expected))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_involution_residual_matches_dense(self, n):
        parity = xxz_parity(n)
        assert parity.involution_residual == 0.0
        m = product_map(parity.left_op, parity.right_op)
        assert np.linalg.norm(m @ m - np.eye(4**n)) == 0.0

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
        assert not hasattr(parity, "matrix")  # the N^2 x N^2 matrix is never kept
        whole = parity.matrix_on(np.arange(64))
        assert np.array_equal(whole, np.kron(parity.left_op, parity.right_op.T))


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

    def test_parity_that_is_no_signed_permutation(self, block):
        # sigma^y, i times a signed permutation, is not one; its block is refused by
        # the same rule as sigma^x's
        flip = parity_from_pair(site_operator("y", 1, 3), np.eye(8))
        with pytest.raises(SectorNotInvariant, match="cross-sector coupling"):
            check_pt(block, flip)
        with pytest.raises(SectorNotInvariant, match="cross-sector coupling"):
            check_inversion(block, flip, 0.25)


class TestOneRuleForParityBlocks:
    """The gather reads P's block under the rule of every block: it refuses exactly the
    position sets that ``matrix_on`` refuses, with its message, and returns a map exactly
    where that block's rows each hold one +-1, and otherwise ``matrix_on``'s block."""

    PARITIES = {
        "xxz": xxz_parity,
        "left sigma^x": lambda n: parity_from_pair(site_operator("x", 1, n), np.eye(2**n)),
        "i sigma^x pair": i_sigma_x_pair,
        "left sigma^y": lambda n: parity_from_pair(site_operator("y", 1, n), np.eye(2**n)),
    }

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 4),
        name=st.sampled_from(sorted(PARITIES)),
        closed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_and_block_agree(self, n, name, closed, seed):
        rng = np.random.default_rng(seed)
        parity = self.PARITIES[name](n)
        # each parity here holds one nonzero per row of kron(a, b.T): position p's image
        rows, image = np.nonzero(np.kron(parity.left_op, parity.right_op.T))
        assert np.array_equal(rows, np.arange(4**n))
        drawn = rng.choice(4**n, size=rng.integers(1, 4**n + 1), replace=False)
        positions = np.union1d(drawn, image[drawn])  # an involution's orbits: p, image[p]
        if not closed:
            p = rng.choice(np.flatnonzero(image != np.arange(4**n)))
            positions = np.union1d(np.setdiff1d(positions, image[p]), [p])
        positions = rng.permutation(positions)
        try:
            block = parity.matrix_on(positions)
        except SectorNotInvariant as refusal:
            assert not closed
            with pytest.raises(SectorNotInvariant) as err:
                _parity_block(parity, positions)
            assert str(err.value) == str(refusal)
            return
        assert closed
        gather = _parity_block(parity, positions)
        single = np.all(np.count_nonzero(block, axis=1) == 1)
        single = single and set(block[block != 0]) <= {1.0, -1.0}
        assert isinstance(gather, tuple) == single
        if isinstance(gather, tuple):
            g, inverse, sign = gather
            r = np.arange(positions.size)
            assert np.array_equal(block[r, g], sign)
            assert np.count_nonzero(block) == positions.size
            assert np.array_equal(inverse[g], r)
        else:
            assert np.array_equal(bits(gather), bits(block))


class TestParityOfAnotherChain:
    """A parity built for another chain length is bad input: refused with both Hilbert
    dimensions before any gather (it used to end in IndexError, SectorNotInvariant or
    a message about sector positions)."""

    @pytest.fixture
    def generator(self):
        return build_superoperator(xxz_model(XXZParams(3, 0.5, 1.0, 0.3)))

    @staticmethod
    def refused(n_parity):
        message = f"^parity acts on Hilbert dimension {2**n_parity}, the superoperator on 8$"
        return pytest.raises(ValidationError, match=message)

    @pytest.mark.parametrize("n_parity", [2, 4])
    def test_check_pt(self, generator, n_parity):
        with self.refused(n_parity):
            check_pt(generator, xxz_parity(n_parity))

    @pytest.mark.parametrize("n_parity", [2, 4])
    def test_check_inversion(self, generator, n_parity):
        with self.refused(n_parity):
            check_inversion(generator, xxz_parity(n_parity), 0.25)

    @pytest.mark.parametrize("n_parity", [2, 4])
    def test_pt_partner_check(self, generator, n_parity):
        dec = eig_biortho(generator)
        with self.refused(n_parity):
            pt_partner_check(dec, xxz_parity(n_parity), gamma_bar=0.3)


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

    def test_xxz_sandwich_holds_its_result_alone(self, traced):
        # the factor products held three N^2 x N^2 temporaries; the gather forms only
        # the result
        m = random_matrix(np.random.default_rng(2), 1024)
        parity = xxz_parity(5)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _sandwich(_parity_block(parity, np.arange(1024)), m)
        assert tracemalloc.get_traced_memory()[1] - base < 1.25 * self.BLOCK

    def test_check_pt_on_a_sector_block(self, traced):
        # n = 4: the parity's block is assembled on the 70 dmz0 positions, so no
        # 256 x 256 matrix (1 MB) is formed
        full = build_superoperator(xxz_model(XXZParams(4, 0.5, 1.0, 0.3)))
        sup = sector_restrict(full, sector_basis(4, 0))
        parity = xxz_parity(4)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = check_pt(sup, parity)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert rep.pt_residual <= 1e-12
        assert peak < 16 * 256**2

    def test_check_pt_at_seven_sites(self, traced):
        # a 16384^2 complex buffer would be 4.3 GB; L' has 122,880 entries in 81,920
        # groups of 64 positions, which each grouped norm holds in an 84 MB buffer
        model = xxz_model(XXZParams(7, 0.5, 1.0, 0.3))
        entries, parity = _generator_entries(model), xxz_parity(7)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = check_pt(entries, parity)
        assert tracemalloc.get_traced_memory()[1] - base < 150 * 1024**2
        assert rep.pt_residual <= 1e-12

    def test_check_pt_forms_no_parity_block(self, traced):
        # n = 5 dmz0: a 252-dim block is 1 MB.  The traceless part and the gathered
        # result peak at about 2.4 blocks; the assembled parity block and its product
        # with the generator would take the peak to 4
        block = 16 * 252**2
        sup = build_superoperator(xxz_model(XXZParams(5, 0.5, 1.0, 0.3)), sector_basis(5, 0))
        parity = xxz_parity(5)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = check_pt(sup, parity)
        peak = tracemalloc.get_traced_memory()[1] - base
        assert rep.pt_residual <= 1e-12
        assert peak < 3 * block
