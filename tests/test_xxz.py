import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlind import (
    ValidationError,
    average_damping,
    build_superoperator,
    check_pt,
    sector_restrict,
    xxz_parity,
)
from ptlind.operators import site_operator, site_reversal, vec
from ptlind.xxz import (
    SECTORS, XXZParams, _hamiltonian, sector_basis, sector_positions, spin_current, xxz_model,
)

from conftest import (
    BasisConvention,
    bits,
    chain_hamiltonian,
    count_calls,
    _ladder_rows,
    ladder_liouvillian,
    ladder_matrix,
    ladder_vectorization_map,
    row_superoperators,
)


def total_magnetization(n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n + 1):
        out += site_operator("z", j, n)
    return out


class TestModel:
    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_anisotropy_rejected(self, delta):
        with pytest.raises(ValidationError, match="^anisotropy delta must be finite$"):
            XXZParams(3, delta, 1.0, 0.1)

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

    def test_chain_length_must_be_an_integer(self):
        # 2.5 used to be accepted and then fail with a TypeError in site_operator
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (2.5, np.float64(3.0), "3"):
                with pytest.raises(ValidationError) as err:
                    XXZParams(bad, 0.5, 0.0, 0.1)
                assert str(err.value) == f"n_sites must be an integer, got {bad!r}"
            params = XXZParams(np.int64(3), 0.5, 0.0, 0.1)
            assert xxz_model(params).dim == 8


    @pytest.mark.parametrize("n", [400, 700, 2000, np.int64(400)])
    def test_chain_too_long_for_the_magnitude_rule(self, n):
        # the hopping alone overflows the generator's norms; 700 and 2000 used to raise
        # OverflowError from the float conversion of 2**n, before any array existed
        with pytest.raises(ValidationError, match=f"a chain of {n} sites overflows"):
            XXZParams(n, 0.0, 0.0, 0.1)


class TestCountsAtEveryEntry:
    """Every public function that takes a chain length, a site or a magnetization
    difference refuses a non-integer or an out-of-range count with a ValidationError
    that names it."""

    CASES = [
        (spin_current, (2.5,), "n_sites must be an integer, got 2.5"),
        (spin_current, ("3",), "n_sites must be an integer, got '3'"),
        (sector_basis, (2.5,), "n_sites must be an integer, got 2.5"),
        (sector_positions, (2.5, "dmz0"), "n_sites must be an integer, got 2.5"),
        (xxz_parity, (2.5,), "n_sites must be an integer, got 2.5"),
        (site_reversal, (2.5,), "n_sites must be an integer, got 2.5"),
        (site_operator, ("z", 1, 2.5), "n_sites must be an integer, got 2.5"),
        (site_operator, ("z", 1.5, 3), "site must be an integer, got 1.5"),
        (sector_basis, (3, 0.5), "dmz must be an integer, got 0.5"),
        (site_reversal, (-1,), "need a non-negative number of sites, got -1"),
        (sector_basis, (0,), "need at least 1 site, got 0"),
        # the magnitude rule's length, before any 2^n array (these used to end in numpy's
        # untyped ValueError)
        (spin_current, (339,), "a chain of 339 sites overflows the generator's norms"),
        (spin_current, (400,), "a chain of 400 sites overflows the generator's norms"),
        (site_operator, ("z", 1, 400), "a chain of 400 sites overflows the generator's norms"),
        (site_reversal, (339,), "a chain of 339 sites overflows the generator's norms"),
        (sector_basis, (400,), "a chain of 400 sites overflows the generator's norms"),
        (xxz_parity, (400,), "a chain of 400 sites overflows the generator's norms"),
    ]

    @pytest.mark.parametrize(
        "function, args, message",
        CASES,
        ids=[f"{f.__name__}{args!r}" for f, args, _ in CASES],
    )
    def test_refused(self, function, args, message):
        with pytest.raises(ValidationError) as err:
            function(*args)
        assert str(err.value) == message

    def test_smallest_counts_keep_their_results(self):
        assert np.array_equal(site_reversal(0), np.eye(1))
        assert np.array_equal(sector_basis(1), [0, 3])
        assert xxz_parity(0).hilbert_dim == 1
        assert np.array_equal(sector_basis(np.int64(2), np.int64(2)), [1, 2, 7, 11])


class TestHamiltonianFromBits:
    """H written from the basis states equals the site-operator products, bit for bit."""

    DELTAS = [0.0, -0.0, 0.5, -0.7, 1.0 / 3.0, 5e-324, -5e-324, 1e-17, 1e300, -1e300]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_fixed_anisotropies(self, n):
        for delta in self.DELTAS:
            assert np.array_equal(bits(_hamiltonian(n, delta)), bits(chain_hamiltonian(n, delta)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), delta=st.floats(-1e300, 1e300))
    def test_any_anisotropy(self, n, delta):
        assert np.array_equal(bits(_hamiltonian(n, delta)), bits(chain_hamiltonian(n, delta)))


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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_index_permutation_is_the_dense_change_of_basis(self, n):
        # the two-copy route reorders rows and columns instead of multiplying by
        # the permutation matrix I (x) S on both sides
        params = XXZParams(n, 0.7, 0.4, 0.3)
        pi = ladder_vectorization_map(n)
        assert np.array_equal(ladder_liouvillian(params).matrix, pi @ ladder_matrix(params) @ pi)
        for row, ladder_row in zip(row_superoperators(params), _ladder_rows(params)):
            assert np.array_equal(row.matrix, pi @ ladder_row @ pi)

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
        # the tightest tolerance: no entry couples the block to the rest
        sup = build_superoperator(xxz_model(XXZParams(3, 0.5, 0.6, 0.9)))
        keep = sector_basis(3, 0)
        dropped = np.setdiff1d(np.arange(64), keep)
        assert not sup.matrix[np.ix_(keep, dropped)].any()
        assert not sup.matrix[np.ix_(dropped, keep)].any()
        sector_restrict(sup, keep)  # must not raise


class TestSectorPositions:
    def test_the_table(self):
        # parse_config's SchemaError text prints this tuple
        assert SECTORS == ("full", "dmz0")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_name_resolves(self, n):
        assert sector_positions(n, "full") is None
        keep = sector_positions(n, "dmz0")
        assert keep.dtype == np.int64
        assert np.array_equal(keep, sector_basis(n, 0))

    @pytest.mark.parametrize("name", ["dmz1", "Full", "", None])
    def test_unknown_name_refused(self, name):
        with pytest.raises(ValidationError) as err:
            sector_positions(3, name)
        assert str(err.value) == f"unknown sector {name!r}; use 'full' or 'dmz0'"

    def test_calls_sector_basis_through_the_module(self, monkeypatch):
        # an outside tracer that wraps xxz.sector_basis sees the resolver's call
        calls = count_calls(monkeypatch, "ptlind.xxz.sector_basis")
        sector_positions(4, "dmz0")
        sector_positions(4, "full")
        assert calls == [(4, 0)]


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
