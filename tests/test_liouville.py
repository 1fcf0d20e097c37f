import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlind import (
    LindbladModel,
    SectorNotInvariant,
    SuperOperator,
    ValidationError,
    average_damping,
    build_superoperator,
    hermiticity_residual,
    propagator,
    sector_restrict,
    vec,
)
from ptlind.liouville import (
    _assemble, _block, _conjugate_rows, _distinct, _entries, _generator_entries, _nonzeros,
    _refuse_large, _split,
)
from ptlind.operators import (
    _NORM_LIMIT, SIGMA_MINUS, SIGMA_Z, _refuse_large_parts, dagger, site_operator,
)
from ptlind.threshold import coherence_probe_state, observable_decay
from ptlind.symmetry import check_pt, parity_from_pair, xxz_parity
from ptlind.xxz import XXZParams, sector_basis, sector_positions, spin_current, xxz_model

from conftest import (
    apply_superoperator,
    bits,
    count_calls,
    dense_average_damping,
    dense_check_pt,
    dense_hermiticity_residual,
    dense_sector_restrict,
    dissipator_superoperator,
    hamiltonian_superoperator,
    kron_terms,
    left_identity_residual,
    parity_matrix_on,
    random_density,
    random_hermitian,
    random_model,
    single_qubit,
    traceless_part,
)


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
            got = apply_superoperator(sup, rho)
            assert np.linalg.norm(got - drho) < 1e-12 * max(1.0, np.linalg.norm(drho))

    def test_coherent_term_is_the_commutator(self, rng):
        model = random_model(rng, dim=4)
        h = model.hamiltonian
        coherent = hamiltonian_superoperator(model)
        for _ in range(5):
            rho = random_density(rng, 4)
            drho = -1j * (h @ rho - rho @ h)
            got = apply_superoperator(coherent, rho)
            assert np.linalg.norm(got - drho) < 1e-12 * max(1.0, np.linalg.norm(drho))

    def test_is_the_affine_sum_of_its_terms(self, rng):
        for _ in range(5):
            model = random_model(rng)
            a, d = _split(model)
            assert np.array_equal(a + model.gamma * d, build_superoperator(model).matrix)


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

    @pytest.mark.parametrize(
        "h, jump, message",
        [
            (np.zeros((2, 3)), SIGMA_MINUS, r"^Hamiltonian must be square, got \(2, 3\)$"),
            (np.diag([0.0, np.inf]), SIGMA_MINUS, "^Hamiltonian has non-finite entries$"),
            (SIGMA_Z, np.diag([np.nan, 0.0]), r"^lindblads\[0\] has non-finite entries$"),
        ],
    )
    def test_malformed_operators_rejected(self, h, jump, message):
        with pytest.raises(ValidationError, match=message):
            LindbladModel(h, (jump,), 0.1)

    @pytest.mark.parametrize(
        "matrix, index, message",
        [
            (np.zeros((4, 3)), None, r"^superoperator matrix must be square, got \(4, 3\)$"),
            (np.zeros((4, 4)), [0, 1, 2], "^matrix dim 4 does not match 3 positions$"),
        ],
    )
    def test_malformed_superoperator_rejected(self, matrix, index, message):
        with pytest.raises(ValidationError, match=message):
            SuperOperator(matrix, 2, index)

    @pytest.mark.parametrize(
        "build",
        [
            lambda model: SuperOperator(np.zeros((0, 0)), 8, []),
            lambda model: build_superoperator(model, sector_basis(3, 1)),  # no odd dmz at n = 3
            lambda model: _split(model, []),
            lambda model: sector_restrict(build_superoperator(model), []),
            lambda model: parity_matrix_on(xxz_parity(3), []),
        ],
        ids=["SuperOperator", "build_superoperator", "_split", "sector_restrict", "matrix_on"],
    )
    def test_empty_position_set_rejected(self, build):
        # each used to return a 0 x 0 block, on which hermiticity_residual raised an
        # untyped ValueError and average_damping divided 0 by 0
        message = r"^sector positions must be a non-empty 1-D integer array of j\*N \+ k$"
        with pytest.raises(ValidationError, match=message):
            build(xxz_model(XXZParams(3, 0.5, 1.0, 0.1)))

    @pytest.mark.parametrize("index", [[0, 5], [-1, 0], [0, 0]])
    def test_positions_outside_the_space_or_repeated_rejected(self, index):
        # each used to be accepted: the residual then raised IndexError, or read
        # wrapped or repeated positions
        message = r"^sector positions must be distinct and lie in 0\.\.3$"
        with pytest.raises(ValidationError, match=message):
            SuperOperator(np.eye(2), 2, index)


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

    @pytest.mark.parametrize("hilbert_dim", [1, 2, 3, 8, 17, 32])
    @pytest.mark.parametrize("fill", [1.0, 0.3])
    def test_entries_route_is_np_trace_on_dense_matrices(self, hilbert_dim, fill, rng):
        # every input is read through its nonzero entries; the diagonal vector, zeros
        # included, is summed as np.trace sums the dense diagonal
        dim = hilbert_dim**2
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m[rng.random((dim, dim)) >= fill] = 0.0
        sup = SuperOperator(m, hilbert_dim)
        assert same_hex(average_damping(sup), dense_average_damping(sup))

    @pytest.mark.parametrize("hilbert_dim", [1, 2, 3, 8, 17, 32])
    @pytest.mark.parametrize("fill", [1.0, 0.3])
    def test_dense_diagonal_is_the_entries_route(self, hilbert_dim, fill, rng):
        # a dense matrix's diagonal is copied, not read through its nonzero entries
        dim = hilbert_dim**2
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m[rng.random((dim, dim)) >= fill] = 0.0
        sup = SuperOperator(m, hilbert_dim)
        assert same_hex(average_damping(sup), average_damping(_entries(sup)))

    def test_dense_matrix_is_read_on_its_diagonal_alone(self, rng):
        # N = 32: the 1024^2 matrix is 16.8 MB, and its nonzero entries took 34.6 MB
        m = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
        sup = SuperOperator(m, 32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            average_damping(sup)
            assert tracemalloc.get_traced_memory()[1] - base < 64 * 1024
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_entries_route_is_np_trace_on_sector_blocks(self, n):
        block = build_superoperator(xxz_model(XXZParams(n, 0.7, 0.4, 0.3)), sector_basis(n, 0))
        assert same_hex(average_damping(block), dense_average_damping(block))


class TestDistinct:
    @settings(max_examples=200, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(st.integers(-2**62, 2**62) | st.integers(-3, 3), max_size=40), max_size=12
        ),
        repeat=st.integers(1, 3),
    )
    def test_equals_np_unique_of_the_concatenation(self, chunks, repeat):
        # no chunks, empty chunks and repeated ones included
        arrays = [np.array(c, dtype=np.int64) for c in chunks] * repeat
        got = _distinct(iter(arrays))
        expected = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *arrays]))
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


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
        rho1 = apply_superoperator(propagator(sup, 1.0), rho0)
        assert rho1[0, 0].real == pytest.approx(np.exp(-0.2), abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_trace_preservation(self, rng, t):
        sup = build_superoperator(random_model(rng, dim=4))
        rho0 = random_density(rng, 4)
        rho_t = apply_superoperator(propagator(sup, t), rho0)
        assert np.trace(rho_t) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(rho_t - dagger(rho_t)).max() < 1e-10

    def test_non_finite_time_rejected(self, rng):
        sup = build_superoperator(random_model(rng, dim=2))
        with pytest.raises(ValidationError):
            propagator(sup, np.inf)

    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_overflowing_time_refused_before_any_arithmetic(self, t):
        sup = build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 0.1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflows t \\* matrix"):
                propagator(sup, t)


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

    @pytest.mark.parametrize("permuted", [False, True])
    def test_column_norms_of_the_conjugated_difference(self, rng, permuted):
        # any matrix, on the full space in natural or permuted order: the largest column
        # norm of m - SwapConj(m), with SwapConj gathered from the conjugate as a reference
        n = 3
        index = rng.permutation(n * n) if permuted else np.arange(n * n)
        m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        j, k = np.divmod(index, n)
        pos = np.argsort(index)[k * n + j]
        expected = np.linalg.norm(m - m.conj()[np.ix_(pos, pos)], axis=0).max()
        assert hermiticity_residual(SuperOperator(m, n, index)) == expected

    def test_open_basis_refused(self):
        # |0><1| without |1><0|
        with pytest.raises(ValidationError, match=r"^basis is not closed under \|j><k\| -> \|k><j\|$"):
            hermiticity_residual(SuperOperator(np.zeros((1, 1)), 2, [1]))

    def test_natural_full_space_swap_equals_the_gather(self, rng):
        # a custom generator times a complex scalar: c L(rho^dag) != (c L rho)^dag
        model = random_model(rng, dim=5, n_jumps=2)
        m = build_superoperator(model).matrix * (1.0 + 0.5j)
        perm = _conjugate_rows(np.arange(25), 5)
        expected = np.linalg.norm(m[np.ix_(perm, perm)].conj() - m, axis=0).max()
        got = hermiticity_residual(SuperOperator(m, 5))
        assert got > 0.1
        assert float.hex(got) == float.hex(float(expected))


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

    def test_both_routes_apply_one_rule(self):
        # the first ten positions of n = 3 couple to the rest: neither the restriction
        # nor the direct block assembly returns their block
        model = xxz_model(XXZParams(3, 0.5, 1.0, 0.3))
        with pytest.raises(SectorNotInvariant, match=" exceeds 1.0e-12 [*] "):
            sector_restrict(build_superoperator(model), np.arange(10))
        with pytest.raises(SectorNotInvariant, match=" exceeds 1.0e-12 [*] "):
            build_superoperator(model, np.arange(10))

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
        diff = apply_superoperator(permuted, rho) - apply_superoperator(sup, rho)
        assert np.abs(diff).max() <= 1e-12


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


def custom_model(seed, dim, n_jumps, gamma, fill):
    """Random model whose H and jump operators keep each entry with probability ``fill``."""
    rng = np.random.default_rng(seed)

    def factor():
        entries = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return entries * (rng.random((dim, dim)) < fill)

    a = factor()
    return LindbladModel((a + a.conj().T) / 2.0, tuple(factor() for _ in range(n_jumps)), gamma)


class TestSupportAssembly:
    """Each term c kron(A, B) scattered on nonzero(A) x nonzero(B) against the dense oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        gamma=st.floats(0.0, 5.0),
        fill=st.sampled_from([1.0, 0.4, 0.1]),
    )
    def test_equals_kron_oracle(self, seed, dim, n_jumps, gamma, fill):
        model = custom_model(seed, dim, n_jumps, gamma, fill)
        coherent, dis = kron_terms(model)
        a, d = _split(model)
        assert np.array_equal(a, coherent)
        assert np.array_equal(bits(d), bits(dis))
        assert np.array_equal(build_superoperator(model).matrix, coherent + gamma * dis)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("mu", [-1.0, 0.3, 1.0])
    def test_xxz_bits(self, n, mu):
        # the coherent term alone differs from the oracle in signs of zero only;
        # the dissipator and every sum with it are equal bit for bit
        model = xxz_model(XXZParams(n, 0.7, mu, 0.3))
        coherent, dis = kron_terms(model)
        a, d = _split(model)
        assert np.array_equal(a, coherent)
        assert np.array_equal(bits(d), bits(dis))
        for gamma in (0.0, 1e-300, 1e-6, 0.3, 7.0):
            model = xxz_model(XXZParams(n, 0.7, mu, gamma))
            built = build_superoperator(model).matrix
            assert np.array_equal(bits(built), bits(coherent + gamma * dis))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_direct_zero_magnetization_block(self, n):
        model = xxz_model(XXZParams(n, 0.7, 0.6, 0.3))
        keep = sector_basis(n, 0)
        a, d = _split(model, keep)
        terms = tuple(SuperOperator(part, model.dim) for part in _split(model))
        for block, term in zip((a, d), terms):
            assert np.array_equal(bits(block), bits(dense_sector_restrict(term, keep).matrix))
        restricted = dense_sector_restrict(build_superoperator(model), keep).matrix
        assert np.array_equal(bits(build_superoperator(model, keep).matrix), bits(restricted))

    def test_permuted_positions(self, rng):
        model = random_model(rng, dim=3)
        order = rng.permutation(9)
        restricted = dense_sector_restrict(build_superoperator(model), order).matrix
        assert np.array_equal(bits(build_superoperator(model, order).matrix), bits(restricted))

    def test_leaking_term_refused(self):
        # sigma^x on site 1 changes the magnetization: its jump terms leave dmz0
        xxz = xxz_model(XXZParams(3, 0.5, 0.5, 0.3))
        flip = 0.5 * site_operator("x", 1, 3)
        model = LindbladModel(xxz.hamiltonian, xxz.lindblads + (flip,), 0.3)
        with pytest.raises(SectorNotInvariant):
            _split(model, sector_basis(3, 0))
        with pytest.raises(SectorNotInvariant):
            build_superoperator(model, sector_basis(3, 0))

    @pytest.mark.parametrize("keep", [[0, 0], [-1], [64], [0.0, 3.0]])
    def test_malformed_positions_rejected(self, keep):
        with pytest.raises(ValidationError):
            build_superoperator(xxz_model(XXZParams(3, 0.5, 0.5, 0.3)), keep)

    @pytest.mark.parametrize("leak, refused", [(1e-11, True), (1e-13, False)])
    def test_direct_and_restricted_blocks_share_the_invariance_rule(self, leak, refused):
        # N = 2, keep |0><0| and |1><1|.  The identity gives the kept block entries 1,
        # the second term a dropped-dropped entry 1e3, and E01 (x) I couples kept and
        # dropped positions by ``leak``.  Every route scales the leak by the block and
        # the coupling only, so a dropped-only entry cannot hide it.
        eye, e00, e11 = np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        terms = [(1.0, eye, eye), (1e3, e00, e11), (leak, e01, eye)]
        full = SuperOperator(_assemble(terms, 2), 2)
        (entries,) = _nonzeros(2, terms)
        keep = [0, 3]
        if refused:
            for route in (dense_sector_restrict, sector_restrict, _block):
                with pytest.raises(SectorNotInvariant):
                    route(entries if route is _block else full, keep)
        else:
            oracle = bits(dense_sector_restrict(full, keep).matrix)
            assert np.array_equal(bits(_block(entries, keep)), oracle)
            assert np.array_equal(bits(sector_restrict(full, keep).matrix), oracle)


def outcome(route):
    """What a block route gives: the shape and bits of each matrix it returns, or the
    text of its refusal."""
    try:
        out = route()
    except SectorNotInvariant as exc:
        return str(exc)
    matrices = [getattr(m, "matrix", m) for m in (out if isinstance(out, tuple) else (out,))]
    return [(m.shape, bits(m).tobytes()) for m in matrices]


def random_parity(seed, dim, left):
    """A parity ``rho -> a rho b``: ``b`` swaps random pairs of levels with a shared sign,
    and ``a`` is either such a swap (``left="swap"``) or a dense Householder reflection."""
    rng = np.random.default_rng(seed)

    def swap():
        order, sign = rng.permutation(dim), rng.choice([-1.0, 1.0], size=dim)
        out = np.zeros((dim, dim))
        for i, j in zip(order[::2], order[1::2]):
            out[i, j] = out[j, i] = sign[i]
        if dim % 2:
            out[order[-1], order[-1]] = sign[-1]
        return out

    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a = swap() if left == "swap" else np.eye(dim) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v)
    return parity_from_pair(a, swap())


def assert_blocks_match_the_dense_gather(model, keep, parity, sub):
    """Every block route against ``dense_sector_restrict`` of the full matrix: the direct
    block, each ``_split`` part, ``sector_restrict`` of the full generator and of the
    direct block (on ``sub``, positions of ``keep``), and the parity's block."""
    full = build_superoperator(model)
    assert outcome(lambda: build_superoperator(model, keep)) == outcome(
        lambda: dense_sector_restrict(full, keep)
    )
    parts = tuple(SuperOperator(part, model.dim) for part in _split(model))
    assert outcome(lambda: _split(model, keep)) == outcome(
        lambda: tuple(dense_sector_restrict(part, keep) for part in parts)
    )
    assert outcome(lambda: sector_restrict(full, keep)) == outcome(
        lambda: dense_sector_restrict(full, keep)
    )
    if isinstance(outcome(lambda: build_superoperator(model, keep)), list):
        sector = build_superoperator(model, keep)
        assert outcome(lambda: sector_restrict(sector, sub)) == outcome(
            lambda: dense_sector_restrict(sector, sub)
        )
    n = model.dim
    kron = SuperOperator(_assemble([(1.0, parity.left_op, parity.right_op.T)], n), n)
    assert outcome(lambda: parity_matrix_on(parity, keep)) == outcome(
        lambda: dense_sector_restrict(kron, keep)
    )


class TestBlockOracle:
    """Each route to a sector block equals the dense gather bit for bit, or raises the
    same :class:`SectorNotInvariant` text."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        gamma=st.floats(0.0, 5.0),
        fill=st.sampled_from([1.0, 0.4, 0.1]),
        kind=st.sampled_from(["subset", "permutation", "sector"]),
        left=st.sampled_from(["swap", "reflection"]),
        data=st.data(),
    )
    def test_custom_models(self, seed, dim, n_jumps, gamma, fill, kind, left, data):
        model = custom_model(seed, dim, n_jumps, gamma, fill)
        order = np.array(data.draw(st.permutations(range(dim * dim))))
        n_sites = dim.bit_length() - 1
        if kind == "sector" and dim == 2**n_sites:
            keep = sector_basis(n_sites, data.draw(st.sampled_from([0, 2, -2])))
        elif kind == "permutation":
            keep = order
        else:
            keep = order[: data.draw(st.integers(1, dim * dim))]
        sub = np.array(data.draw(st.permutations(keep.tolist())))
        sub = sub[: data.draw(st.integers(1, keep.size))]
        parity = random_parity(seed, dim, left)
        assert_blocks_match_the_dense_gather(model, keep, parity, sub)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dmz", [0, 2, -4])
    def test_xxz_sectors(self, n, dmz, rng):
        # every magnetization sector is invariant under the chain and its parity
        model = xxz_model(XXZParams(n, 0.7, 0.3, 0.4))
        keep = sector_basis(n, dmz)
        sub = rng.permutation(keep)[: max(1, keep.size // 2)]
        assert_blocks_match_the_dense_gather(model, keep, xxz_parity(n), sub)


def densified(nz) -> np.ndarray:
    """The entries of a ``_Nonzeros`` scattered into a zero matrix."""
    out = np.zeros((nz.dim, nz.dim), dtype=complex)
    out.reshape(-1)[nz.at] = nz.values
    return out


def same_hex(a: float, b: float) -> bool:
    return float.hex(a) == float.hex(b)


class TestGeneratorEntries:
    """The generator's nonzero entries, and the residuals read from them, against the
    dense matrix and the dense residuals in ``conftest``, bit for bit.

    The Hermiticity residual adds each column's squares in row order, because numpy
    adds the rows of the dense C-ordered difference one by one.  A column gather that
    comes back F-ordered makes numpy add a column of more than eight squares pairwise
    instead, which can move the last bit.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        n_jumps=st.integers(1, 3),
        gamma=st.floats(0.0, 5.0),
        fill=st.sampled_from([1.0, 0.4, 0.1]),
    )
    def test_custom_models(self, seed, dim, n_jumps, gamma, fill):
        model = custom_model(seed, dim, n_jumps, gamma, fill)
        dense = build_superoperator(model)
        nz = _generator_entries(model)
        assert np.array_equal(bits(densified(nz)), bits(dense.matrix))
        assert same_hex(average_damping(nz), dense_average_damping(dense))
        expected = dense_hermiticity_residual(dense)
        assert same_hex(hermiticity_residual(nz), expected)
        assert same_hex(hermiticity_residual(dense), expected)
        # a signed-permutation parity of any model, here the identity pair
        parity = parity_from_pair(np.eye(dim), np.eye(dim))
        assert same_hex(check_pt(nz, parity).pt_residual, dense_check_pt(dense, parity))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 4),
        delta=st.floats(-1.5, 1.5),
        mu=st.floats(-1.0, 1.0),
        gamma=st.floats(0.0, 5.0),
        sector=st.sampled_from(["full", "dmz0"]),
    )
    def test_xxz_chains(self, n, delta, mu, gamma, sector):
        model = xxz_model(XXZParams(n, delta, mu, gamma))
        parity = xxz_parity(n)
        dense = build_superoperator(model, sector_positions(n, sector))
        expected = dense_check_pt(dense, parity)
        assert same_hex(check_pt(dense, parity).pt_residual, expected)
        assert same_hex(hermiticity_residual(dense), dense_hermiticity_residual(dense))
        if sector == "full":
            nz = _generator_entries(model)
            assert np.array_equal(bits(densified(nz)), bits(dense.matrix))
            assert same_hex(check_pt(nz, parity).pt_residual, expected)
            assert same_hex(check_pt(nz, parity).gamma_bar, dense_average_damping(dense))

    def test_mirror_images_outside_the_support(self, rng):
        # rho -> E01 rho: the mirror image of each entry is absent, so the difference
        # is nonzero on positions that the matrix lacks
        m = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)) * (0.3 + 0.7j)
        sup = SuperOperator(m, 2)
        assert same_hex(hermiticity_residual(sup), dense_hermiticity_residual(sup))
        index = rng.permutation(4)
        permuted = SuperOperator(m[np.ix_(index, index)], 2, index)
        assert same_hex(hermiticity_residual(permuted), dense_hermiticity_residual(permuted))


class TestAssemblyMemory:
    """At n = 5 one N^2 x N^2 complex matrix is 16 MB."""

    BLOCK = 16 * 1024**2

    @pytest.fixture
    def model(self):
        return xxz_model(XXZParams(5, 0.7, 0.6, 0.3))

    @pytest.fixture
    def traced(self):
        tracemalloc.start()
        yield
        tracemalloc.stop()

    def test_full_build(self, model, traced):
        # -i ad H and D; gamma D and the sum are formed in place of D
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_superoperator(model)
        assert tracemalloc.get_traced_memory()[1] - base <= 3 * self.BLOCK

    def test_full_build_of_dense_factors(self, traced):
        # every factor dense (N = 32): -i ad H and D make two matrices; a term's
        # products come in chunks of at most 4096 (a whole term was a third matrix),
        # and the unbuffered scatter adds no gathered copy of the touched entries
        model = custom_model(0, 32, 3, 0.3, 1.0)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_superoperator(model)
        assert tracemalloc.get_traced_memory()[1] - base <= 2.25 * self.BLOCK

    def test_direct_block(self, model, traced):
        keep = sector_basis(5, 0)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_superoperator(model, keep)
        assert tracemalloc.get_traced_memory()[1] - base < self.BLOCK

    def test_direct_block_at_six_sites(self, traced):
        # the 924-dim block is 13.7 MB, and the N^4 mask of the generator's touched
        # entries 16.8 MB; the two are never held at once, nor the block twice
        model = xxz_model(XXZParams(6, 0.5, 1.0, 0.3))
        keep = sector_basis(6, 0)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_superoperator(model, keep)
        assert tracemalloc.get_traced_memory()[1] - base < 1.5 * 16 * keep.size**2

    def test_entries_and_hermiticity_at_seven_sites(self, traced):
        # 122,480 entries among 128^4 = 2.7e8 positions: each set of positions is an
        # int64 array of about 1 MB, where a mask over all of them would take 256 MiB
        model = xxz_model(XXZParams(7, 0.5, 1.0, 0.3))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        residual = hermiticity_residual(_generator_entries(model))
        assert tracemalloc.get_traced_memory()[1] - base < 32 * 1024**2
        assert residual <= 1e-13


class TestOverflowingCoupling:
    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_build_refuses(self):
        with pytest.raises(ValidationError, match="gamma = 1e[+]308 overflows"):
            build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 1e308)))

    def test_direct_block_refuses(self):
        with pytest.raises(ValidationError, match="gamma = 1e[+]308 overflows"):
            build_superoperator(xxz_model(XXZParams(2, 0.5, 1.0, 1e308)), sector_basis(2, 0))

    def test_largest_finite_product_accepted(self):
        # max |D| is 1 here, so gamma * D stays finite up to the largest double
        model = xxz_model(XXZParams(2, 0.5, 1.0, 1e307))
        assert np.all(np.isfinite(build_superoperator(model).matrix))


class TestMagnitudeRule:
    """Models whose generator norms could overflow are refused where they enter."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_huge_hamiltonian_refused_before_any_norm(self):
        # is_hermitian's norm used to print numpy's "overflow encountered in dot"
        with pytest.raises(ValidationError, match="Hamiltonian entries up to 2.000e[+]300 overflow"):
            xxz_model(XXZParams(3, 1e300, 1.0, 0.02))

    @pytest.mark.parametrize("delta", [1e308, -1.7e308])
    def test_anisotropy_refused_before_the_hamiltonian_is_summed(self, delta):
        # the sum of the n - 1 = 2 bond terms used to overflow with numpy's warning
        with pytest.raises(ValidationError, match="Hamiltonian entries up to inf overflow"):
            xxz_model(XXZParams(3, delta, 1.0, 0.02))

    def test_dimension_beyond_a_float_refused(self):
        # 2**2000 used to raise OverflowError in its conversion to a float
        with pytest.raises(ValidationError, match="Hamiltonian entries up to 2.000e[+]00 overflow"):
            _refuse_large_parts(2**2000, 2.0, ())

    def test_huge_jump_refused(self):
        with pytest.raises(ValidationError, match="jump operator entries up to 1.000e[+]200 overflow"):
            LindbladModel(SIGMA_Z, (1e200 * SIGMA_MINUS,), 0.1)

    def test_relaxation_refuses_a_huge_coupling_before_its_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, "ptlind.threshold._eig")
        params = XXZParams(3, 0.5, 1.0, 1e300)
        for recipe in (observable_decay, coherence_probe_state):
            with pytest.raises(ValidationError, match="coupling gamma = 1e[+]300 overflows"):
                recipe(params, spin_current(3))
        assert solves == []

    def test_accepted_models_have_finite_norms(self, rng):
        def accepted(h, ls, gamma) -> bool:
            try:
                _refuse_large(h, ls, gamma)
            except ValidationError:
                return False
            return True

        for _ in range(6):
            base = random_model(rng)
            h, ls, gamma = base.hamiltonian, base.lindblads, base.gamma
            while accepted(2.0 * h, ls, 0.0):
                h = 2.0 * h
            while accepted(base.hamiltonian, ls, 2.0 * gamma):
                gamma *= 2.0
            # at the largest power-of-two scale of H, or of gamma, that the rule accepts
            for model in (LindbladModel(h, ls, 0.0), LindbladModel(base.hamiltonian, ls, gamma)):
                sup = build_superoperator(model)
                assert np.linalg.norm(sup.matrix) < _NORM_LIMIT
                assert np.isfinite(hermiticity_residual(sup))
                assert np.isfinite(np.linalg.norm(sup.matrix - sup.matrix.T))


class TestDiagonalShifts:
    """The in-place diagonal shifts equal adding a dense identity, in value."""

    def test_traceless_part(self, rng):
        for model in (random_model(rng), xxz_model(XXZParams(3, 0.7, 0.6, 0.3))):
            sup = build_superoperator(model)
            before = sup.matrix.copy()
            shifted = traceless_part(sup).matrix
            assert np.array_equal(shifted, sup.matrix + average_damping(sup) * np.eye(sup.dim))
            assert np.array_equal(bits(sup.matrix), bits(before))
