import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg._matfuncs_expm import pick_pade_structure

from ptlind import (
    NumericalError,
    SuperOperator,
    ValidationError,
    dagger,
    is_hermitian,
    mat_exp,
    propagator,
    site_operator,
    site_reversal,
    unvec,
    vec,
)
from ptlind.operators import (
    IDENTITY_2, SIGMA_PLUS, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, _expm,
)

from conftest import (
    BasisConvention,
    almost_equal,
    bits,
    chain_site_operator,
    global_spin_flip,
    hs_inner,
    kron,
    product_map,
    random_density,
    random_hermitian,
    scipy_expm,
    transpose_permutation,
)


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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_the_n_fold_chain(self, n):
        for kind in "xyz+-":
            for site in range(1, n + 1):
                oracle = chain_site_operator(kind, site, n)
                assert np.array_equal(site_operator(kind, site, n), oracle)

    def test_site_out_of_range(self):
        with pytest.raises(ValidationError):
            site_operator("z", 4, 3)
        with pytest.raises(ValidationError):
            site_operator("w", 1, 2)


class TestMatExp:
    def test_zero_is_exact_identity(self):
        # scipy's expm itself returns it, with +0 off the diagonal
        for n in (0, 1, 2, 3, 5, 256):
            out = mat_exp(np.zeros((n, n)))
            assert out.shape == (n, n) and out.dtype == complex
            assert np.array_equal(bits(out), bits(np.eye(n, dtype=complex)))

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

    @pytest.mark.parametrize(
        "a,message",
        [
            # exp(800) overflows, with numpy's overflow warning on the way
            (np.diag([800.0, 0.0]), "matrix exponential failed: overflow encountered"),
            # the squarings return nan without any warning
            (1e300 * np.array([[0.0, 1.0], [-1.0, 0.0]]), "matrix exponential is not finite"),
        ],
    )
    def test_overflow_refused_as_numerical(self, a, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                mat_exp(a)

    def test_generic_squaring_overflow_refused_as_scipy_would(self):
        # a generic 3 x 3 with eigenvalues up to about 1200: the 8 squarings overflow
        a = 200.0 * np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 4.0], [2.0, 1.0, 1.0]])
        message = "matrix exponential failed: overflow encountered in matmul"
        assert scipy_expm(a) == message
        sup = SuperOperator(a, 2, np.arange(3))
        for call in (lambda: mat_exp(a), lambda: propagator(sup, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError) as refused:
                    call()
            assert str(refused.value) == message


def expm_outcome(call):
    """``call()``'s words (``bits``), or the text of the :class:`NumericalError` it raises."""
    try:
        return bits(call())
    except NumericalError as exc:
        return str(exc)


def same_outcome(got, expected) -> bool:
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    return got.shape == expected.shape and np.array_equal(got, expected)


@st.composite
def expm_inputs(draw):
    """A random N x N matrix, N = 0..40, with 1-norm about ``scale`` (1e-4..1e3, so every
    Pade order, 0 to 9 squarings and overflow), some signed zeros, and scipy's other
    branches: diagonal, upper and lower triangular."""
    n = draw(st.one_of(st.integers(0, 4), st.integers(5, 40)))
    scale = 10.0 ** draw(st.floats(-4.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (scale / max(n, 1))
    a[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3]))] = -0.0
    shape = draw(st.sampled_from([None, np.diag, np.triu, np.tril]))
    if shape is np.diag:
        return np.diag(np.diag(a))
    return a if shape is None else shape(a)


class TestScipyBits:
    """``mat_exp`` and ``propagator`` run scipy's own Pade kernels in one workspace: each
    output word, and each refusal's text, is what ``scipy.linalg.expm`` gives."""

    @given(a=expm_inputs(), t=st.one_of(st.none(), st.floats(-10.0, 10.0)))
    @settings(max_examples=300, deadline=None)
    def test_every_branch_bit_for_bit(self, a, t):
        if t is None:
            got = expm_outcome(lambda: mat_exp(a))
        else:
            got = expm_outcome(lambda: _expm(a, t))
        assert same_outcome(got, scipy_expm(a, t))

    def test_every_pade_order_and_squaring_count(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        base /= np.abs(base).sum(axis=0).max()
        reached = set()
        for scale in (1e-3, 0.1, 0.5, 1.5, 3.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0):
            a = scale * base
            work = np.empty((5, 12, 12), dtype=complex)
            work[0] = a
            reached.add(pick_pade_structure(work))
            assert same_outcome(expm_outcome(lambda: mat_exp(a)), scipy_expm(a))
            assert same_outcome(expm_outcome(lambda: _expm(base, scale)), scipy_expm(base, scale))
        assert {order for order, _ in reached} == {3, 5, 7, 9, 13}
        assert {s for _, s in reached} >= set(range(6))

    def test_times_one_is_not_the_matrix(self):
        # 1 - 0i times 1.0 is 1 + 0i, and exp turns the zero's sign into the output's:
        # so mat_exp copies its input and only a propagator multiplies
        a = np.array([[complex(1.0, -0.0)]])
        assert not np.array_equal(scipy_expm(a), scipy_expm(a, 1.0))
        assert np.array_equal(bits(mat_exp(a)), scipy_expm(a))
        assert np.array_equal(bits(_expm(a, 1.0)), scipy_expm(a, 1.0))


# entries in thousandths up to 1e3, so no product underflows; and any finite complex number
_MILLIS = st.builds(complex, *[st.integers(-10**6, 10**6).map(lambda k: k / 1000.0)] * 2)
_FINITE = st.complex_numbers(allow_nan=False, allow_infinity=False)


def square(n, entries):
    return arrays(np.complex128, (n, n), elements=entries)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[square(n, _MILLIS)] * 3)))
    def test_product_map_convention(self, abr):
        a, b, rho = abr
        got = product_map(a, b) @ vec(rho)
        scale = np.linalg.norm(a) * np.linalg.norm(rho) * np.linalg.norm(b)
        assert np.abs(got - vec(a @ rho @ b)).max() <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: square(n, _FINITE)))
    def test_unvec_inverts_vec_bit_for_bit(self, rho):
        # signed zeros and subnormals included
        assert np.array_equal(bits(unvec(vec(rho))), bits(rho))

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


class TestIsHermitian:
    def test_hermitian_within_relative_tolerance(self, rng):
        h = random_hermitian(rng, 4, scale=100.0)
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        assert is_hermitian(h)
        assert is_hermitian(h + 1e-12 * skew)
        assert not is_hermitian(h + 1e-9 * np.linalg.norm(h) * skew)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_is_not_hermitian(self, bad):
        h = np.eye(2, dtype=complex)
        h[0, 0] = bad
        assert not is_hermitian(h)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_is_not_hermitian(self, shape):
        assert not is_hermitian(np.zeros(shape))
