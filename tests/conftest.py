import importlib
from dataclasses import dataclass

import numpy as np
import pytest

from ptlind import (
    LindbladModel,
    SectorNotInvariant,
    SuperOperator,
    ValidationError,
    average_damping,
    build_superoperator,
    check_pt,
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
from ptlind.liouville import _SECTOR_TOL, _assemble, _conjugate_rows, _positions, _terms
from ptlind.symmetry import _sandwich
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
    diff = _sandwich(parity, lp, sup.index) + dagger(lp)
    return float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(lp)))


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
    bi-orthonormal solve, one step propagator per distinct rounded step."""
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
