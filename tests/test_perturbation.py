import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptlind import (
    LindbladModel,
    NumericalError,
    SectorNotInvariant,
    ValidationError,
    build_superoperator,
    degeneracy_report,
    eig_biortho,
    population_matrix,
    sector_restrict,
)
from ptlind import perturbation
from ptlind.operators import SIGMA_MINUS, SIGMA_Z, site_operator
from ptlind.xxz import XXZParams, sector_basis, xxz_model

from conftest import (
    bits,
    dissipator_superoperator,
    kron_terms,
    loop_population_matrix,
    random_model,
    single_qubit,
    spectral_radius,
    traceless_dissipator,
    velocity_check,
)

# entries from a few values give repeated energies and equal-magnitude components
_ENTRY = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))


@st.composite
def _custom_models(draw) -> LindbladModel:
    """A Hermitian H and one or two jumps of dim 2..6, scaled so that Tr D = -N^2."""
    n = draw(st.integers(2, 6))

    def matrix():
        parts = draw(st.lists(_ENTRY, min_size=2 * n * n, max_size=2 * n * n))
        return np.array(parts).view(complex).reshape(n, n)

    h = matrix()
    h = h + h.conj().T
    jumps = [matrix() for _ in range(draw(st.integers(1, 2)))]
    assume(_dissipator_trace(jumps) < -1e-3)
    return _trace_normalised(h, jumps)


def _dissipator_trace(jumps) -> float:
    """Tr D = sum_L 2 |tr L|^2 - 2 N |L|_F^2."""
    return sum(2 * abs(np.trace(L)) ** 2 - 2 * len(L) * np.linalg.norm(L) ** 2 for L in jumps)


def _trace_normalised(h, jumps) -> LindbladModel:
    """The model with its jumps scaled so that Tr D = -N^2, at gamma = 0.1."""
    scale = np.sqrt(len(h) ** 2 / -_dissipator_trace(jumps))
    return LindbladModel(h, tuple(scale * L for L in jumps), 0.1)


def _uneven_blocks(dim: int) -> LindbladModel:
    """A random trace-normalised model of dimension ``dim``."""
    model = random_model(np.random.default_rng(dim), dim=dim, n_jumps=1)
    return _trace_normalised(model.hamiltonian, model.lindblads)


class TestPopulationMatrix:
    def test_single_qubit_matrix(self):
        rep = population_matrix(single_qubit(omega=1.0, gamma=0.1))
        # energy order is ascending: (ground, excited)
        assert np.allclose(rep.energies, [-0.5, 0.5])
        assert np.abs(rep.v_matrix - np.array([[1.0, 2.0], [0.0, -1.0]])).max() <= 1e-12
        assert rep.reality_defect <= 1e-12
        assert rep.symmetry_defect == pytest.approx(2.0)  # one-sided decay is not symmetric
        xi = sorted(rep.xi.real)
        assert np.allclose(xi, [-1.0, 1.0], atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(model=_custom_models())
    def test_bit_equal_to_the_loop_over_levels(self, model):
        rep = population_matrix(model)
        v_raw = loop_population_matrix(model)
        assert np.array_equal(bits(rep.v_matrix), bits(v_raw.real))
        assert rep.reality_defect == np.abs(v_raw.imag).max()
        assert rep.symmetry_defect == np.abs(v_raw - v_raw.T).max()

    @pytest.mark.parametrize("build", [
        *(lambda n=n: xxz_model(XXZParams(n, 0.5, 0.7, 0.3)) for n in (3, 4, 5, 6)),
        lambda: _uneven_blocks(9),
        lambda: _uneven_blocks(33),
    ], ids=["chain3", "chain4", "chain5", "chain6", "custom9", "custom33"])
    def test_bit_equal_to_the_loop_in_column_blocks(self, build):
        # the chains' 4^n columns make 1, 4, 16 and 64 blocks of 64; 81 columns make
        # blocks of 64 and 17, and 1089 make 16 of 64 and one of 65, not one of a single
        # column.  (Near-equal blocks of 60 and 61 changed eight columns of V at 1089.)
        # The drawn models above fit in one block
        model = build()
        rep = population_matrix(model)
        v_raw = loop_population_matrix(model)
        assert np.array_equal(bits(rep.v_matrix), bits(v_raw.real))
        assert rep.reality_defect == np.abs(v_raw.imag).max()
        assert rep.symmetry_defect == np.abs(v_raw - v_raw.T).max()

    @pytest.mark.parametrize("dim, width", [(3, 4), (5, 4), (5, 8), (7, 8)])
    def test_last_single_column_joins_the_block_before(self, monkeypatch, one_blas_thread,
                                                        dim, width):
        # dim^2 = 1 (mod width): the last block is width + 1 columns, not one column
        model = _uneven_blocks(dim)
        monkeypatch.setattr(perturbation, "_COLUMNS", dim * dim)
        whole = population_matrix(model)
        monkeypatch.setattr(perturbation, "_COLUMNS", width)
        blocks = population_matrix(model)
        assert np.array_equal(bits(blocks.v_matrix), bits(whole.v_matrix))
        assert np.array_equal(bits(blocks.xi), bits(whole.xi))

    def test_unnormalised_model_refused(self):
        # with the oracle's message, before any product
        model = LindbladModel(0.5 * SIGMA_Z, (2.0 * SIGMA_MINUS,), 0.1)
        message = r"^dissipator trace -16\+0j is not -N\^2 = -4; rescale the jump operators$"
        with pytest.raises(ValidationError, match=message):
            population_matrix(model)
        with pytest.raises(ValidationError, match=message):
            traceless_dissipator(model)

    def test_five_sites_hold_one_copy_of_the_projectors(self):
        # N = 32: the projectors d_vecs (1024 x 32) and the product are 512 KiB each, and
        # the block of 65 columns 1040 KiB.  Holding d_vecs beside its conjugate transpose,
        # and the block through the last product, traced 2.70 MiB; now about 2.15 MiB
        model = xxz_model(XXZParams(5, 0.5, 1.0, 0.3))
        population_matrix(model)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            population_matrix(model)
            assert tracemalloc.get_traced_memory()[1] - base < 2.4 * 1024**2
        finally:
            tracemalloc.stop()

    def test_six_sites_hold_no_superoperator_matrix(self):
        # D + 1 at n = 6 is 268 MB as one matrix; a block of 64 of its columns is 4 MB,
        # and the projectors (one copy, conjugated in place) and the product 4 MB each
        model = xxz_model(XXZParams(6, 0.5, 1.0, 0.3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            population_matrix(model)
            assert tracemalloc.get_traced_memory()[1] - base < 40 * 1024**2
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n,mu", [(2, 0.0), (2, 0.5), (3, 0.5), (4, 1.0)])
    def test_xxz_real_and_symmetric(self, n, mu):
        rep = population_matrix(xxz_model(XXZParams(n, 0.5, mu, 0.1)))
        assert rep.symmetry_defect <= 1e-12
        assert rep.reality_defect <= 1e-12

    def test_column_sums_and_offdiagonal_sign(self):
        rep = population_matrix(xxz_model(XXZParams(3, 0.5, 0.7, 0.1)))
        n = rep.v_matrix.shape[0]
        assert np.abs(rep.v_matrix.sum(axis=0) - 1.0).max() <= 1e-10
        off = rep.v_matrix - np.diag(np.diag(rep.v_matrix))
        assert off.min() >= -1e-12

    def test_xi_contains_steady_direction_and_is_real(self):
        rep = population_matrix(xxz_model(XXZParams(3, 0.5, 0.5, 0.1)))
        assert np.min(np.abs(rep.xi - 1.0)) <= 1e-9
        if rep.symmetry_defect <= 1e-10:
            assert np.abs(rep.xi.imag).max() <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_order_rates_match_full_spectrum(self, n):
        gamma = 1e-4
        rep = population_matrix(xxz_model(XXZParams(n, 0.5, 1.0, gamma)))
        sup = build_superoperator(xxz_model(XXZParams(n, 0.5, 1.0, gamma)))
        dec = eig_biortho(sector_restrict(sup, sector_basis(n, 0)))
        scale = max(1.0, spectral_radius(dec))
        real_modes = np.sort(
            [lam.real for lam in dec.eigenvalues if abs(lam.imag) <= 1e-10 * scale]
        )
        assert real_modes.size == 2**n
        predicted = np.sort(rep.xi.real)
        assert np.abs((real_modes + gamma) / gamma - predicted).max() <= 1e-2


class TestVelocityCheck:
    def test_xxz_finite_difference_agreement(self):
        model = xxz_model(XXZParams(3, 0.5, 1.0, 0.01))
        rep = velocity_check(model, dgamma=1e-5, sector=sector_basis(3, 0))
        assert rep.max_fd_discrepancy <= 1e-5
        assert rep.max_h_im_velocity is not None
        assert rep.max_h_im_velocity <= 1e-8
        # every vertical-line mode of the three-site chain is two-fold
        # degenerate (mirror blocks of the conserved magnetization), so the
        # on-line velocity claim is vacuous there
        assert rep.max_v_re_velocity is None

    def test_vertical_line_confinement_where_modes_are_simple(self):
        model = xxz_model(XXZParams(2, 0.5, 1.0, 0.01))
        rep = velocity_check(model, dgamma=1e-5, sector=sector_basis(2, 0))
        assert rep.n_on_v > 0
        assert rep.max_v_re_velocity <= 1e-8

    def test_steady_state_velocity_vanishes(self):
        for gamma in (0.01, 0.3):
            model = xxz_model(XXZParams(2, 0.5, 0.7, gamma))
            rep = velocity_check(model, dgamma=1e-6, sector=sector_basis(2, 0))
            k0 = min(rep.entries, key=lambda e: abs(e[1]))
            assert abs(k0[2]) <= 1e-10

    def test_single_qubit_fast_mode_velocity(self):
        rep = velocity_check(single_qubit(gamma=0.1), dgamma=1e-6)
        fast = min(rep.entries, key=lambda e: abs(e[1] + 0.2))
        assert abs(fast[2] - (-2.0)) <= 1e-9

    def test_same_spectrum_as_restricting_the_full_build(self):
        # the sector terms are assembled there directly
        model = xxz_model(XXZParams(3, 0.5, 0.5, 0.2))
        rep = velocity_check(model, dgamma=1e-5, sector=sector_basis(3, 0))
        block = sector_restrict(build_superoperator(model), sector_basis(3, 0))
        w = eig_biortho(block).eigenvalues
        index, eigenvalue = zip(*((e[0], e[1]) for e in rep.entries))
        assert np.array_equal(np.array(eigenvalue), w[list(index)])

    def test_sector_left_by_a_jump_rejected(self):
        xxz = xxz_model(XXZParams(3, 0.5, 0.5, 0.2))
        flip = 0.5 * site_operator("x", 1, 3)
        model = LindbladModel(xxz.hamiltonian, xxz.lindblads + (flip,), 0.2)
        with pytest.raises(SectorNotInvariant):
            velocity_check(model, dgamma=1e-5, sector=sector_basis(3, 0))

    @pytest.mark.parametrize("dgamma", [0.0, -1e-5, float("inf"), float("nan")])
    def test_step_must_be_positive_and_finite(self, dgamma):
        with pytest.raises(ValidationError, match="dgamma"):
            velocity_check(single_qubit(gamma=0.1), dgamma=dgamma)

    def test_fully_degenerate_model_rejected(self):
        model = LindbladModel(np.zeros((2, 2)), (np.zeros((2, 2)),), 0.5)
        with pytest.raises(NumericalError, match="no simple eigenvalues"):
            velocity_check(model, dgamma=1e-4)


class TestDegeneracyReport:
    def test_xxz_two_sites(self):
        h = xxz_model(XXZParams(2, 0.5, 0.0, 0.0)).hamiltonian
        rep = degeneracy_report(h)
        assert np.allclose(np.sort(rep.energies), [-2.5, 0.5, 0.5, 1.5])
        assert len(rep.degenerate_pairs) == 1

    def test_clean_spectrum(self):
        rep = degeneracy_report(np.diag([0.0, 1.0, 3.0]))
        assert rep.degenerate_pairs == ()
        assert rep.degenerate_gap_pairs == ()

    def test_equispaced_gap_degeneracy(self):
        rep = degeneracy_report(np.diag([0.0, 1.0, 2.0]))
        assert rep.degenerate_pairs == ()
        assert ((0, 1), (1, 2)) in rep.degenerate_gap_pairs

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            degeneracy_report(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            degeneracy_report(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("h", [
        *(xxz_model(XXZParams(n, 0.5, 0.0, 0.0)).hamiltonian for n in (3, 4, 5, 6)),
        np.zeros((30, 30)),  # every gap pair is close: 94,395 of them
        np.diag(np.arange(40.0)),  # equispaced levels
        np.diag(np.arange(64.0) ** 2),  # the 500th close pair lies past the first 128 rows
        np.diag(np.arange(3.0)),
    ], ids=["3", "4", "5", "6", "zero30", "ladder40", "squares64", "ladder3"])
    def test_same_pairs_as_the_pairwise_loop(self, h):
        # all but the chains of three and four sites and the three-level ladder have more
        # close gap pairs than the 500 listed
        rep = degeneracy_report(h)
        e = rep.energies
        gaps = [(j, k, e[k] - e[j]) for j in range(e.size) for k in range(j + 1, e.size)]
        pairs = [(j, k) for j, k, g in gaps if abs(g) <= rep.tol]
        gap_pairs = itertools.islice((
            ((ja, ka), (jb, kb))
            for a, (ja, ka, ga) in enumerate(gaps)
            for jb, kb, gb in gaps[a + 1 :]
            if abs(ga - gb) <= rep.tol
        ), 500)
        assert rep.degenerate_pairs == tuple(pairs)
        assert rep.degenerate_gap_pairs == tuple(gap_pairs)

    def test_six_sites_hold_no_gap_by_gap_matrix(self):
        # 2016 gaps: a 2016^2 comparison would take 4 MB as booleans, 33 MB as differences
        h = xxz_model(XXZParams(6, 0.5, 0.0, 0.0)).hamiltonian
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = degeneracy_report(h)
            assert tracemalloc.get_traced_memory()[1] - base < 8 * 1024**2
        finally:
            tracemalloc.stop()
        assert len(rep.degenerate_gap_pairs) == 500


class TestTracelessDissipator:
    """The dense ``D + 1`` oracle that ``loop_population_matrix`` reads."""

    def test_xxz_accepted_and_traceless(self):
        model = xxz_model(XXZParams(3, 0.5, 0.5, 0.2))
        dp = traceless_dissipator(model)
        assert abs(np.trace(dp.matrix)) < 1e-9 * 64

    def test_unnormalised_model_refused(self):
        model = LindbladModel(0.5 * SIGMA_Z, (2.0 * SIGMA_MINUS,), 0.1)
        with pytest.raises(ValidationError, match="-4; rescale the jump operators"):
            traceless_dissipator(model)

    def test_shift_equals_a_dense_identity(self):
        for n in (2, 3, 4):
            model = xxz_model(XXZParams(n, 0.7, 0.6, 0.3))
            dense = kron_terms(model)[1] + np.eye(4**n)
            assert np.array_equal(traceless_dissipator(model).matrix, dense)


def test_traceless_dissipator_shift_matches_population_matrix():
    # V with the identity shift equals V of the bare dissipator plus I
    model = xxz_model(XXZParams(2, 0.5, 0.5, 0.1))
    rep = population_matrix(model)
    dis = dissipator_superoperator(model).matrix
    energies, psi = np.linalg.eigh(model.hamiltonian)
    d_vecs = np.column_stack(
        [np.outer(psi[:, j], psi[:, j].conj()).reshape(-1) for j in range(4)]
    )
    v_bare = (d_vecs.conj().T @ dis @ d_vecs).real
    assert np.abs(rep.v_matrix - (v_bare + np.eye(4))).max() < 1e-12
