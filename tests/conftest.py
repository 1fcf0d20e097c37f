import cmath
import importlib
from dataclasses import dataclass

import numpy as np
import pytest

from ptlind import (
    LindbladModel,
    NumericalError,
    SectorNotInvariant,
    SuperOperator,
    ValidationError,
    average_damping,
    build_superoperator,
    check_pt,
    classify_cross,
    eig_biortho,
    propagator,
    steady_state,
    xxz_parity,
)
from ptlind.operators import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    site_operator,
    unvec,
    vec,
)
from ptlind.liouville import (
    _SECTOR_TOL, _assemble, _at_coupling, _block, _conjugate_rows, _nonzeros, _positions, _split,
    _terms,
)
from ptlind.spectral import _eigenvalues, _zero_index
from ptlind.symmetry import _parity_block, _require_same_space, _sandwich
from ptlind.xxz import XXZParams, sector_positions, xxz_model


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def single_qubit(omega=1.0, gamma=0.1) -> LindbladModel:
    """Decaying two-level system; its spectrum is {0, -2g, -g +- i omega}."""
    return LindbladModel(0.5 * omega * SIGMA_Z, (SIGMA_MINUS,), gamma)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_model(rng, dim=None, n_jumps=None, gamma=None) -> LindbladModel:
    dim = dim or int(rng.integers(2, 7))
    n_jumps = n_jumps or int(rng.integers(1, 4))
    gamma = gamma if gamma is not None else float(rng.uniform(0.05, 2.0))
    h = random_hermitian(rng, dim, scale=1.5)
    ls = tuple(
        (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2 * dim)
        for _ in range(n_jumps)
    )
    return LindbladModel(h, ls, gamma)


def kron_terms(model: LindbladModel) -> tuple:
    """Oracle: ``-i ad H`` and ``D`` as dense sums of N^2 x N^2 Kronecker products.

    This is the assembly the library used before it scattered each term on its
    factors' nonzeros; the support-based assembly must reproduce it.
    """
    h = model.hamiltonian
    eye = np.eye(model.dim, dtype=complex)
    coherent = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    dis = np.zeros((model.dim**2, model.dim**2), dtype=complex)
    for L in model.lindblads:
        ldl = L.conj().T @ L
        dis += 2.0 * np.kron(L, L.conj())
        dis -= np.kron(ldl, eye)
        dis -= np.kron(eye, ldl.T)
    return coherent, dis


def hamiltonian_superoperator(model: LindbladModel) -> SuperOperator:
    """Oracle: the coherent part ``-i ad H`` alone (independent of gamma)."""
    return SuperOperator(_assemble(_terms(model)[0], model.dim), model.dim)


def dissipator_superoperator(model: LindbladModel) -> SuperOperator:
    """Oracle: the dissipator ``D`` alone (independent of gamma)."""
    return SuperOperator(_assemble(_terms(model)[1], model.dim), model.dim)


def traceless_dissipator(model: LindbladModel) -> SuperOperator:
    """Oracle: ``D + 1`` as one dense N^2 x N^2 matrix, for a trace-normalised dissipator.

    The shift by the identity is only meaningful when ``Tr D = -N^2``; models whose jump
    operators are not normalised that way (to within ``1e-9 N^2``) are refused, as
    ``population_matrix`` refuses them.
    """
    dis = _assemble(_terms(model)[1], model.dim)
    n2, tr = dis.shape[0], np.trace(dis)
    if abs(tr + n2) > 1e-9 * n2:
        raise ValidationError(
            f"dissipator trace {tr:.6g} is not -N^2 = {-n2}; rescale the jump operators"
        )
    dis.flat[:: n2 + 1] += 1.0
    return SuperOperator(dis, model.dim)


def traceless_part(sup: SuperOperator) -> SuperOperator:
    """Oracle: ``sup`` shifted by its average damping, so that the result is traceless."""
    m = sup.matrix.copy()
    m.flat[:: sup.dim + 1] += average_damping(sup)
    return sup.replace_matrix(m)


def apply_superoperator(sup: SuperOperator, rho: np.ndarray) -> np.ndarray:
    """Oracle: ``sup`` applied to the N x N operator ``rho``; ``sup`` spans the full space,
    its positions in any order."""
    assert sup.dim == sup.hilbert_dim**2, "apply needs a full-space superoperator"
    out = np.empty(sup.dim, dtype=complex)
    out[sup.index] = sup.matrix @ vec(rho)[sup.index]
    return out.reshape(np.shape(rho))


def apply_parity(parity, x: np.ndarray) -> np.ndarray:
    """Oracle: the parity ``rho -> A rho B`` applied to the N x N operator ``x``."""
    return parity.left_op @ x @ parity.right_op


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle: the Kronecker product of two square complex matrices; the left factor is
    the more significant one, as site 1 is in the computational basis."""
    for x in (a, b):
        if np.ndim(x) != 2 or np.shape(x)[0] != np.shape(x)[1]:
            raise ValidationError(f"kron operand must be square, got shape {np.shape(x)}")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Oracle: the Hilbert-Schmidt inner product ``tr(a^dag b)``, conjugate-linear in ``a``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def global_spin_flip(n_sites: int) -> np.ndarray:
    """Oracle: the product of sigma^x over all sites (flips every spin)."""
    out = np.array([[1.0 + 0.0j]])
    for _ in range(n_sites):
        out = np.kron(out, SIGMA_X)
    return out


def product_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Oracle: the matrix ``kron(a, b.T)`` of the map ``rho -> a rho b`` in the row-major
    vectorisation convention; the test suite checks it against direct arithmetic."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex).T)


def chain_hamiltonian(n_sites: int, delta: float) -> np.ndarray:
    """Oracle: the XXZ Hamiltonian as products of site operators, added bond by bond;
    ``xxz._hamiltonian`` writes the same bits from the basis states."""
    h = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for j in range(1, n_sites):
        h += 2.0 * site_operator("+", j, n_sites) @ site_operator("-", j + 1, n_sites)
        h += 2.0 * site_operator("-", j, n_sites) @ site_operator("+", j + 1, n_sites)
        h += delta * site_operator("z", j, n_sites) @ site_operator("z", j + 1, n_sites)
    return h


def dense_average_damping(sup: SuperOperator) -> float:
    """Oracle: ``-Tr(matrix) / dim`` through ``np.trace`` of the dense matrix."""
    return float(-np.trace(sup.matrix).real / sup.dim)


def dense_hermiticity_residual(sup: SuperOperator) -> float:
    """Oracle: the largest column norm of ``SwapConj(matrix) - matrix`` on the dense
    matrix, with the conjugate rows gathered as a C-ordered copy (numpy then adds each
    column's squares row by row, not pairwise)."""
    perm = _conjugate_rows(sup.index, sup.hilbert_dim)
    diff = sup.matrix[np.ix_(perm, perm)]
    np.conjugate(diff, out=diff)
    diff -= sup.matrix
    return float(np.linalg.norm(diff, axis=0).max())


def dense_check_pt(sup: SuperOperator, parity) -> float:
    """Oracle: the PT residual on dense matrices: the traceless part, its sandwich
    ``P L' P`` plus its adjoint, and the two Frobenius norms."""
    lp = traceless_part(sup).matrix
    diff = _sandwich(_parity_block(parity, sup.index), lp) + dagger(lp)
    return float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(lp)))


def parity_matrix_on(parity, index) -> np.ndarray:
    """Oracle: the parity's block on the invariant flat positions ``index``, in their
    order, gathered from the entries of ``kron(A, B.T)`` (:class:`SectorNotInvariant` if
    the parity couples them to the rest)."""
    (entries,) = _nonzeros(parity.hilbert_dim, [(1.0, parity.left_op, parity.right_op.T)])
    return _block(entries, index)


def check_inversion(liou: SuperOperator, parity, t: float) -> float:
    """Oracle: the relative error of the propagator inversion identity at time ``t``,
    ``U(-t)`` against ``exp(2 gamma_bar t) P [U(t)]^dag P``; small only when the generator
    is PT-symmetric.  A parity of another Hilbert space and a non-finite ``t`` are refused."""
    _require_same_space(parity, liou.hilbert_dim)
    if not np.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    gamma_bar = average_damping(liou)
    u_neg = propagator(liou, -t).matrix
    u_adj = dagger(propagator(liou, t).matrix)
    rhs = np.exp(2.0 * gamma_bar * t) * _sandwich(_parity_block(parity, liou.index), u_adj)
    return float(np.linalg.norm(u_neg - rhs) / np.linalg.norm(u_neg))


def left_identity_residual(sup: SuperOperator) -> float:
    """Oracle: the norm of ``vec(I)^T matrix``; zero for trace-preserving generators."""
    return float(np.linalg.norm(sup.trace_vector() @ sup.matrix))


def spectral_radius(dec) -> float:
    """The largest |eigenvalue| of a ``SpectralDecomposition`` (0 when it is empty)."""
    return float(np.abs(dec.eigenvalues).max(initial=0.0))


_CLUSTERED = [None, frozenset()]  # one slot: the last decomposition asked, and its set


def clustered_indices(dec) -> frozenset:
    """The indices of ``dec`` that lie in a degenerate cluster; the set is built once
    for the last decomposition asked, not once per call."""
    if _CLUSTERED[0] is not dec:
        _CLUSTERED[:] = [dec, frozenset(i for group in dec.clusters for i in group)]
    return _CLUSTERED[1]


def is_simple(dec, k: int) -> bool:
    """Whether eigenvalue ``k`` of ``dec`` lies in no degenerate cluster."""
    return k not in clustered_indices(dec)


def collinearity_error(a: np.ndarray, b: np.ndarray) -> float:
    """Oracle: the sine of the principal angle between two vectors (0 = parallel up to
    phase), as the norm of the component of ``a`` orthogonal to ``b``, which stays
    accurate down to machine precision (unlike 1 - |<a,b>|^2)."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    a = a / na
    b = b / nb
    return float(np.linalg.norm(a - np.vdot(b, a) * b))


def left_steady_vector(dec) -> np.ndarray:
    """Oracle: the left eigenvector of the zero mode (the identity, for trace-preserving
    maps); :class:`NoZeroMode` under the rule of ``steady_state``."""
    return dec.left_vectors[:, _zero_index(dec.eigenvalues, dec.matrix_norm)]


@dataclass(frozen=True)
class PartnerReport:
    """Eigenvector partner relations under the two spectral reflections.

    For each simple eigenvalue the right eigenvector of the vertical-mirror
    partner must be parallel to P v, the left one to P u, and the
    real-axis-mirror partner's right eigenvector to u^dag.  The worst sine
    of principal angle over all checks is reported; members of degenerate
    clusters are skipped and counted.
    """

    max_vector_error: float
    n_checked: int
    n_skipped_degenerate: int
    max_eigenvalue_mismatch: float


def pt_partner_check(dec, parity, gamma_bar: float) -> PartnerReport:
    """Oracle: the eigenvector relations behind the two spectral reflections.

    Eigenvalues whose mirror images match no eigenvalue within 1e-6 of the
    spectral radius are not checked.
    """
    _require_same_space(parity, dec.hilbert_dim)
    w = dec.eigenvalues
    p = parity_matrix_on(parity, dec.index)
    conj = _conjugate_rows(dec.index, dec.hilbert_dim)
    scale = max(1.0, spectral_radius(dec))
    worst = 0.0
    worst_match = 0.0
    checked = 0
    skipped = 0
    for k in range(dec.dim):
        if not is_simple(dec, k):
            skipped += 1
            continue
        # vertical mirror: lambda_beta = -conj(lambda_k + g) - g
        target = -np.conj(w[k] + gamma_bar) - gamma_bar
        beta = int(np.argmin(np.abs(w - target)))
        # real-axis mirror: lambda_eta = conj(lambda_k)
        eta = int(np.argmin(np.abs(w - np.conj(w[k]))))
        match = max(abs(w[beta] - target), abs(w[eta] - np.conj(w[k])))
        worst_match = max(worst_match, match)
        if match > 1e-6 * scale:
            continue  # reflections unmatched; shows up in max_eigenvalue_mismatch
        checked += 1
        if is_simple(dec, beta):
            worst = max(worst, collinearity_error(dec.right_vectors[:, beta], p @ dec.left_vectors[:, k]))
            worst = max(worst, collinearity_error(dec.left_vectors[:, beta], p @ dec.right_vectors[:, k]))
        if is_simple(dec, eta):
            u_dag = dec.right_vectors[conj, k].conj()
            worst = max(worst, collinearity_error(dec.right_vectors[:, eta], u_dag))
    return PartnerReport(
        max_vector_error=float(worst),
        n_checked=checked,
        n_skipped_degenerate=skipped,
        max_eigenvalue_mismatch=float(worst_match),
    )


@dataclass(frozen=True)
class VelocityReport:
    """Analytic eigenvalue velocities versus finite differences.

    ``entries`` holds (index, eigenvalue, analytic velocity, fd velocity)
    for every simple eigenvalue; the two confinement maxima cover the
    simple eigenvalues lying on each symmetry line (None when that set is
    empty, as happens when every line member is degenerate).
    """

    entries: tuple
    max_fd_discrepancy: float
    max_h_im_velocity: float | None
    max_v_re_velocity: float | None
    n_on_h: int
    n_on_v: int
    n_skipped_degenerate: int


def velocity_check(
    model: LindbladModel, dgamma: float = 1e-5, sector: np.ndarray | None = None
) -> VelocityReport:
    """Oracle: ``<v, D u>`` against centred finite differences of the spectrum.

    Eigenvalues at ``gamma +- dgamma`` are tracked by nearest match.  Also
    checks line confinement: a simple eigenvalue on the real axis must have
    a real velocity, and one on the vertical line must have a purely
    imaginary shifted velocity ``<v, (D + 1) u>``; "on a line" is decided by
    ``classify_cross`` at its default tolerance, with ``gamma`` as the line.  A
    spectrum with no simple eigenvalue is refused with :class:`NumericalError`.
    """
    if not 0 < dgamma < np.inf:
        raise ValidationError(f"dgamma must be positive and finite, got {dgamma}")
    gamma = model.gamma
    if gamma - dgamma < 0:
        raise ValidationError("gamma - dgamma is negative; pick a smaller step")

    coherent, dis_m = _split(model, sector)
    sup = SuperOperator(_at_coupling(coherent, dis_m, gamma), model.dim, sector)
    dec = eig_biortho(sup)
    w = dec.eigenvalues
    w_plus = _eigenvalues(lambda: _at_coupling(coherent, dis_m, gamma + dgamma))
    w_minus = _eigenvalues(lambda: _at_coupling(coherent, dis_m, gamma - dgamma))

    cls = classify_cross(w, gamma)
    on_h, on_v = set(cls.on_h), set(cls.on_v)
    entries = []
    conf_h: list = []
    conf_v: list = []
    skipped = 0
    for k in range(dec.dim):
        if not is_simple(dec, k):
            skipped += 1
            continue
        u = dec.right_vectors[:, k]
        v = dec.left_vectors[:, k]
        denom = np.vdot(u, v)
        if abs(denom) < 1e-12:
            skipped += 1
            continue
        analytic = np.vdot(v, dis_m @ u) / np.conj(denom)
        lam_p = w_plus[np.argmin(np.abs(w_plus - w[k]))]
        lam_m = w_minus[np.argmin(np.abs(w_minus - w[k]))]
        fd = (lam_p - lam_m) / (2.0 * dgamma)
        entries.append((k, w[k], analytic, fd))
        if k in on_h:
            conf_h.append(abs(analytic.imag))
        elif k in on_v:
            conf_v.append(abs((analytic + 1.0).real))
    if not entries:
        raise NumericalError("no simple eigenvalues at this coupling; velocities are undefined")
    return VelocityReport(
        entries=tuple(entries),
        max_fd_discrepancy=float(max(abs(a - f) for _, _, a, f in entries)),
        max_h_im_velocity=max(conf_h) if conf_h else None,
        max_v_re_velocity=max(conf_v) if conf_v else None,
        n_on_h=len(conf_h),
        n_on_v=len(conf_v),
        n_skipped_degenerate=skipped,
    )


def chain_site_operator(kind: str, site: int, n_sites: int) -> np.ndarray:
    """Oracle: ``site_operator`` as the n-fold Kronecker chain ``I (x) ... sigma ... (x) I``,
    one factor per site, before the identities on each side were grouped."""
    sigma = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z, "+": SIGMA_PLUS, "-": SIGMA_MINUS}[kind]
    out = np.array([[1.0 + 0.0j]])
    for j in range(1, n_sites + 1):
        out = np.kron(out, sigma if j == site else IDENTITY_2)
    return out


def dense_sector_restrict(sup: SuperOperator, keep) -> SuperOperator:
    """Oracle: ``sector_restrict`` on the dense matrix.  The block and its couplings to
    the dropped positions are ``np.ix_`` gathers, and the invariance rule is applied to
    the largest |entry| of each."""
    keep = np.asarray(keep, dtype=np.int64)
    idx = _positions(sup.index, sup.hilbert_dim)[keep]
    assert np.all(idx >= 0), "positions not in this superoperator"
    dropped = np.setdiff1d(np.arange(sup.dim), idx)
    block = sup.matrix[np.ix_(idx, idx)]
    coupling = float(max(
        np.abs(sup.matrix[np.ix_(idx, dropped)]).max(initial=0.0),
        np.abs(sup.matrix[np.ix_(dropped, idx)]).max(initial=0.0),
    ))
    scale = max(1.0, float(np.abs(block).max(initial=0.0)), coupling)
    if coupling > _SECTOR_TOL * scale:
        raise SectorNotInvariant(
            f"cross-sector coupling {coupling:.3e} exceeds {_SECTOR_TOL:.1e} * {scale:.3e}"
        )
    return SuperOperator(block, sup.hilbert_dim, keep)


def full_build(params, sector):
    """Oracle: the XXZ generator at ``params.gamma``, built whole and then restricted to
    ``sector`` (``"full"`` or ``"dmz0"``) by the dense gather."""
    sup = build_superoperator(xxz_model(params))
    keep = sector_positions(params.n_sites, sector)
    return sup if keep is None else dense_sector_restrict(sup, keep)


def biortho_probe_state(params, observable) -> tuple:
    """Oracle: ``coherence_probe_state`` on a fresh bi-orthonormal solve (``eig_biortho``
    and ``steady_state``) of the full-space generator; returns ``(rho0, omega)``."""
    dec = eig_biortho(build_superoperator(xxz_model(params)))
    rho_inf = unvec(steady_state(dec))
    k0 = int(np.argmin(np.abs(dec.eigenvalues)))
    overlaps = [
        0.0 if k == k0 or abs(dec.eigenvalues[k].imag) < 1e-12
        else abs(np.trace(unvec(dec.right_vectors[:, k]) @ observable))
        for k in range(dec.dim)
    ]
    best = int(np.argmax(overlaps))
    u = unvec(dec.right_vectors[:, best])
    pert = u + dagger(u)
    rho0 = rho_inf + 0.05 * (pert / np.linalg.norm(pert, 2))
    return (rho0 + dagger(rho0)) / 2.0, float(abs(dec.eigenvalues[best].imag))


def biortho_deviations(params, observable, rho0, t_grid) -> np.ndarray:
    """Oracle: ``observable_decay``'s deviations ``tr[(rho(t) - rho_inf) obs]`` on a fresh
    bi-orthonormal solve, one step propagator per distinct rounded step, each kept to
    the end."""
    sup = build_superoperator(xxz_model(params))
    rho_inf = unvec(steady_state(eig_biortho(sup)))
    props, x, out = {}, vec(rho0), []
    for dt in np.diff(np.concatenate(([0.0], t_grid))):
        key = round(float(dt), 15)
        if key not in props:
            props[key] = propagator(sup, float(dt)).matrix
        x = props[key] @ x
        out.append(np.trace((unvec(x) - rho_inf) @ observable).real)
    return np.array(out)


def count_calls(monkeypatch, target: str) -> list:
    """Wrap the function at the dotted path ``target`` (``module.name``), the way an
    outside tracer does; returns the list that each call's positional arguments join."""
    module, name = target.rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, wrapper)
    return calls


class Builds:
    """A builder for ``spectral._eigenvalues``, which owns the matrix that a builder
    returns: each call returns a fresh column-major copy of ``m``, as ``liouville._block``
    scatters one, and ``calls`` counts the calls."""

    def __init__(self, m):
        self.m, self.calls = m, 0

    def __call__(self) -> np.ndarray:
        self.calls += 1
        return np.array(self.m, order="F")


def loop_population_matrix(model: LindbladModel) -> np.ndarray:
    """Oracle: the raw complex matrix V of ``population_matrix``, one level at a time.

    Each eigenvector's largest component is made real positive, and each projector
    ``vec(|psi_j><psi_j|)`` is an ``np.outer``; the one-pass routine must match it bit
    for bit.
    """
    psi = np.linalg.eigh(model.hamiltonian)[1]
    for j in range(model.dim):
        v = psi[:, j]
        k = int(np.argmax(np.abs(v)))
        psi[:, j] = v * (np.conj(v[k]) / abs(v[k]))
    d_vecs = np.column_stack([vec(np.outer(psi[:, j], psi[:, j].conj())) for j in range(model.dim)])
    return d_vecs.conj().T @ traceless_dissipator(model).matrix @ d_vecs


def bits(a: np.ndarray) -> np.ndarray:
    """The raw binary64 words of a complex array: equal views mean equal signs of zero too."""
    return np.ascontiguousarray(a).view(np.uint64)


def ladder_vectorization_map(n_sites: int) -> np.ndarray:
    """Change of basis from row-major vec to the two-copy (ladder) vec.

    Row-major vectorisation sends ``|j><k|`` to ``|j> (x) |k>``; the ladder
    identification sends it to ``|j> (x) S|k>``.  The two differ by the
    involution ``I (x) S``, which this function returns.
    """
    dim = 2**n_sites
    return np.kron(np.eye(dim, dtype=complex), global_spin_flip(n_sites))


# The two-copy (ladder) oracle.  The operator space B(H) is identified with the
# two-copy product space H (x) H through
#
#     |psi><phi|   <->   |psi> (x) S |phi|,    S = global spin flip,
#
# under which the XXZ generator becomes a local operator on the two copies (one
# boundary-field row, two jump rows, and a constant shift).  It must agree entrywise
# with the support-based assembly, and each row is PT-symmetric on its own.
def _ladder_reorder(n_sites: int) -> tuple:
    """``I (x) S`` as a row and column reordering: ``pi @ m @ pi == m[_ladder_reorder(n)]``."""
    flip = np.argmax(global_spin_flip(n_sites).real, axis=1)  # S[k, flip[k]] = 1
    order = (np.arange(flip.size)[:, None] * flip.size + flip).reshape(-1)
    return np.ix_(order, order)


def _ladder_rows(params: XXZParams) -> tuple:
    """The three rows of the two-copy form of the generator, as matrices on H (x) H."""
    n = params.n_sites
    dim = params.hilbert_dim
    one = np.eye(dim, dtype=complex)
    h = chain_hamiltonian(n, params.delta)
    bias = (params.gamma * params.mu / 4.0) * (
        site_operator("z", 1, n) - site_operator("z", n, n)
    )
    x = 1j * h - bias
    row1 = np.kron(one, x) - np.kron(x, one)
    row2 = (params.gamma * (1.0 + params.mu) / 2.0) * (
        np.kron(site_operator("+", 1, n), site_operator("-", 1, n))
        + np.kron(site_operator("-", n, n), site_operator("+", n, n))
    )
    row3 = (params.gamma * (1.0 - params.mu) / 2.0) * (
        np.kron(site_operator("-", 1, n), site_operator("+", 1, n))
        + np.kron(site_operator("+", n, n), site_operator("-", n, n))
    ) - params.gamma * np.kron(one, one)
    return row1, row2, row3


def ladder_matrix(params: XXZParams) -> np.ndarray:
    """Generator in the two-copy basis (sum of the three ladder rows)."""
    row1, row2, row3 = _ladder_rows(params)
    return row1 + row2 + row3


def ladder_liouvillian(params: XXZParams) -> SuperOperator:
    """Generator built through the two-copy route, in the row-major convention.

    Must agree entrywise with ``build_superoperator(xxz_model(params))``;
    kept as a permanently-enabled cross-check of the spin-flip bookkeeping.
    """
    matrix = ladder_matrix(params)[_ladder_reorder(params.n_sites)]
    return SuperOperator(matrix, params.hilbert_dim)


def row_superoperators(params: XXZParams) -> tuple:
    """The three ladder rows converted to the row-major convention.

    Row 1 is the coherent part plus the boundary-field term, rows 2 and 3
    are the two groups of jump terms (row 3 carries the constant shift).
    Their sum is the full generator exactly.
    """
    ix = _ladder_reorder(params.n_sites)
    return tuple(SuperOperator(row[ix], params.hilbert_dim) for row in _ladder_rows(params))


def check_pt_rows(params: XXZParams) -> list:
    """PT residual of each of the three ladder rows of the XXZ generator.

    Each row is made traceless with its own average damping before the
    check; the identity holds row by row, not just for the sum.
    """
    parity = xxz_parity(params.n_sites)
    return [check_pt(row, parity).pt_residual for row in row_superoperators(params)]


def xx_dmz0_spectrum(n: int, gamma: float) -> np.ndarray:
    """Oracle: the ``dmz0`` spectrum of the chain at delta = 0 (any mu), by third
    quantization (Prosen, NJP 10, 043026 (2008)).  The XX chain is quadratic after a
    Jordan-Wigner map and the boundary jumps are linear on ``dmz0``, so with z the n
    eigenvalues of ``Z = 2i A + (gamma/2)(e_1 e_1^T + e_n e_n^T)``, A the chain's adjacency
    matrix, the spectrum is ``-(sum_{a in S} z_a + sum_{b in T} conj(z_b))`` over the
    subsets S, T of {1..n} with |S| = |T|: C(2n, n) values."""
    z_matrix = 2j * (np.eye(n, k=1) + np.eye(n, k=-1))
    z_matrix[0, 0] += gamma / 2.0
    z_matrix[-1, -1] += gamma / 2.0
    z = np.linalg.eigvals(z_matrix)
    subsets = np.arange(2**n)
    members = (subsets[:, None] >> np.arange(n)) & 1
    sums, sizes = members @ z, members.sum(axis=1)
    return np.concatenate([
        -(sums[sizes == k][:, None] + sums[sizes == k].conj()[None, :]).ravel()
        for k in range(n + 1)
    ])


def mpa_steady_state(n: int, delta: float, gamma: float) -> np.ndarray:
    """Oracle: the exact steady state of the chain at mu = 1 and delta != +-1, as a
    matrix-product ansatz (Prosen, PRL 107, 137201 (2011), in the Lax form of Karevski,
    Popkov and Schuetz, PRL 110, 047201 (2013)).

    At mu = 1 only sigma^+ at site 1 and sigma^- at site n act, and ``rho = S^dag S /
    tr(S^dag S)`` (this order: ``S S^dag`` is another matrix), with ``S = <0| L (x) ... (x)
    L |0>`` contracted over auxiliary states |k>, k = 0..n+1.  With eta = arccos(delta)
    (complex when |delta| > 1) and s solving tan(eta s) = (gamma/2) / (2i sin eta), the
    spin-s operators act as ``S^z|k> = (s - k)|k>``, ``sin(eta) S^+|k> = sin(k eta)|k-1>``
    and ``sin(eta) S^-|k> = sin((2s - k) eta)|k+1>``, and the 2 x 2 physical matrix of
    ``L`` is [[sin(pi/2 + eta S^z), sin(eta) S^-], [sin(eta) S^+, sin(pi/2 - eta S^z)]],
    up spin first and site 1 the most significant bit, as in ``xxz``.
    """
    eta = cmath.acos(delta)
    s = cmath.atan(gamma / 2.0 / (2j * cmath.sin(eta))) / eta
    k = np.arange(n + 2)
    lax = np.zeros((2, 2, n + 2, n + 2), dtype=complex)  # lax[a, b] = <a| L |b>
    lax[0, 0] = np.diag(np.sin(np.pi / 2 + eta * (s - k)))
    lax[1, 1] = np.diag(np.sin(np.pi / 2 - eta * (s - k)))
    lax[0, 1][k[1:], k[:-1]] = np.sin((2 * s - k[:-1]) * eta)
    lax[1, 0][k[:-1], k[1:]] = np.sin(k[1:] * eta)
    t = np.zeros((1, 1, n + 2), dtype=complex)
    t[0, 0, 0] = 1.0  # <0|, times each site's L: the next site is the next less significant bit
    for _ in range(n):
        t = np.einsum("ijx,abxy->iajby", t, lax).reshape(2 * len(t), 2 * len(t), n + 2)
    s_op = t[:, :, 0]
    rho = s_op.conj().T @ s_op
    return rho / np.trace(rho)


@dataclass(frozen=True)
class BasisConvention:
    """Index rules for an ``n_sites`` spin-1/2 chain.

    ``state_index`` maps a tuple of per-site bits (0 = up, 1 = down, site 1
    first) to the computational-basis index; ``pair_index`` maps an operator
    basis element ``|j><k|`` to its flat row-major position ``j*N + k``;
    ``magnetization`` counts up-spins minus down-spins of a basis state.
    """

    n_sites: int

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n_sites

    def state_index(self, bits) -> int:
        if len(bits) != self.n_sites:
            raise ValidationError(f"expected {self.n_sites} bits, got {len(bits)}")
        idx = 0
        for b in bits:
            idx = (idx << 1) | (int(b) & 1)
        return idx

    def pair_index(self, j: int, k: int) -> int:
        return j * self.hilbert_dim + k

    def magnetization(self, j: int) -> int:
        down = bin(j).count("1")
        return (self.n_sites - down) - down


def transpose_permutation(dim: int) -> np.ndarray:
    """Permutation matrix sending ``vec(rho)`` to ``vec(rho.T)``."""
    flat = np.arange(dim * dim).reshape(dim, dim)
    return np.eye(dim * dim)[flat.T.reshape(-1)]


def almost_equal(a: np.ndarray, b: np.ndarray, tol: float | None = None) -> bool:
    """Entrywise comparison; default tolerance 1e-12 * max(1, inf-norm)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    if tol is None:
        scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
        tol = 1e-12 * max(1.0, scale)
    return bool(np.abs(a - b).max(initial=0.0) <= tol)
