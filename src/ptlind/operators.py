"""Dense complex linear algebra and spin-chain operator construction.

Every other module builds on the two conventions fixed here:

* Computational basis.  A product state ``|m_1 ... m_n>`` with ``m_j`` either
  up or down maps to the integer whose j-th bit (site 1 = most significant)
  is 0 for up and 1 for down, and ``sigma^z |up> = +|up>``.  Site operators
  are therefore Kronecker chains ``I (x) ... (x) sigma (x) ... (x) I``.

* Operator basis.  ``E[j, k] = |j><k|`` carries the flat row-major index
  ``j*N + k``, so vectorising an operator is ``rho.reshape(-1)`` and the map
  ``rho -> A rho B`` has the matrix ``kron(A, B.T)``.  This is the single
  vectorisation convention used everywhere; :func:`product_map` realises it
  and the test suite asserts it against direct operator arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ValidationError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "IDENTITY_2",
    "BasisConvention",
    "kron",
    "dagger",
    "hs_inner",
    "site_operator",
    "site_reversal",
    "global_spin_flip",
    "mat_exp",
    "vec",
    "unvec",
    "product_map",
    "transpose_permutation",
    "almost_equal",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_SITE_KINDS = {
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "+": SIGMA_PLUS,
    "-": SIGMA_MINUS,
}


def _require_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {a.shape}")
    return a


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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square complex matrices."""
    return np.kron(_require_square(a, "kron operand"), _require_square(b, "kron operand"))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``tr(a^dag b)``, conjugate-linear in ``a``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def site_operator(kind: str, site: int, n_sites: int) -> np.ndarray:
    """Pauli (or ladder) operator acting on one site of an ``n_sites`` chain.

    ``kind`` is one of ``x``, ``y``, ``z``, ``+``, ``-``; sites count from 1.
    """
    if kind not in _SITE_KINDS:
        raise ValidationError(f"unknown operator kind {kind!r}")
    if not 1 <= site <= n_sites:
        raise ValidationError(f"site {site} out of range 1..{n_sites}")
    out = np.array([[1.0 + 0.0j]])
    for j in range(1, n_sites + 1):
        out = np.kron(out, _SITE_KINDS[kind] if j == site else IDENTITY_2)
    return out


def site_reversal(n_sites: int) -> np.ndarray:
    """Permutation that reverses the site order j <-> n+1-j."""
    states = np.arange(2**n_sites)
    reversed_states = sum(((states >> s) & 1) << (n_sites - 1 - s) for s in range(n_sites))
    r = np.zeros((states.size, states.size), dtype=complex)
    r[reversed_states, states] = 1.0
    return r


def global_spin_flip(n_sites: int) -> np.ndarray:
    """Product of sigma^x over all sites (flips every spin)."""
    out = np.array([[1.0 + 0.0j]])
    for _ in range(n_sites):
        out = np.kron(out, SIGMA_X)
    return out


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (Pade scaling-and-squaring via scipy).

    Accurate to better than 1e-10 relative for dimensions up to 1024 and
    spectral radius up to 50; ``mat_exp(0)`` is exactly the identity.
    """
    a = _require_square(a)
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix exponential of non-finite input")
    if not a.any():
        return np.eye(a.shape[0], dtype=complex)
    return scipy.linalg.expm(a)


def vec(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorisation: ``vec(rho)[j*N + k] = rho[j, k]``."""
    return np.asarray(rho, dtype=complex).reshape(-1).copy()


def unvec(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    dim = int(round(np.sqrt(x.size)))
    if dim * dim != x.size:
        raise ValidationError(f"vector of length {x.size} is not a vectorised square matrix")
    return x.reshape(dim, dim).copy()


def product_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of the map ``rho -> a rho b`` in the row-major convention."""
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return np.kron(a, b.T)


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
