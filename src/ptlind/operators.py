"""Dense complex linear algebra and spin-chain operator construction.

Every other module builds on the two conventions fixed here:

* Computational basis.  A product state ``|m_1 ... m_n>`` with ``m_j`` either
  up or down maps to the integer whose j-th bit (site 1 = most significant)
  is 0 for up and 1 for down, and ``sigma^z |up> = +|up>``.  Site operators
  are therefore Kronecker chains ``I (x) ... (x) sigma (x) ... (x) I``.

* Operator basis.  ``E[j, k] = |j><k|`` carries the flat row-major index
  ``j*N + k``, so vectorising an operator is ``rho.reshape(-1)`` and the map
  ``rho -> A rho B`` has the matrix ``kron(A, B.T)``.  This is the single
  vectorisation convention used everywhere; the test suite asserts it against
  direct operator arithmetic.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "IDENTITY_2",
    "dagger",
    "is_hermitian",
    "site_operator",
    "site_reversal",
    "mat_exp",
    "vec",
    "unvec",
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


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def is_hermitian(a: np.ndarray) -> bool:
    """Whether ``a`` is square, finite and ``|a - a^dag|_F <= 1e-12 max(1, |a|_F)``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        return False
    return bool(np.linalg.norm(a - dagger(a)) <= 1e-12 * max(1.0, np.linalg.norm(a)))


def _require_integer(value, name: str = "n_sites") -> None:
    """The integer rule on a chain length, or on the count ``name``."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


# A Frobenius norm squares its entries: below this bound the norms that the library
# takes of a generator, and of the difference of two such matrices, stay finite.
_NORM_LIMIT = math.sqrt(np.finfo(float).max) / 4


def _refuse_large_parts(n: int, h: float, parts, gamma: float | None = None) -> None:
    """The magnitude rule (``liouville._refuse_large``) on the largest parts themselves:
    ``h`` of an N x N ``H`` and ``parts`` of the jumps."""
    n = float(n) if n < _NORM_LIMIT else math.inf  # 2**n_sites may not convert to a float
    coherent = 2.0 * math.sqrt(2.0) * n**1.5 * h
    dissipative = sum((4.0 + 4.0 * math.sqrt(n)) * n * n * p * p for p in parts)
    if gamma is not None:
        if not coherent + float(gamma) * dissipative < _NORM_LIMIT:
            raise ValidationError(f"coupling gamma = {gamma} overflows the generator's norms")
    elif not coherent < _NORM_LIMIT:
        raise ValidationError(f"Hamiltonian entries up to {h:.3e} overflow the generator's norms")
    elif not dissipative < _NORM_LIMIT:
        raise ValidationError(
            f"jump operator entries up to {max(parts):.3e} overflow the generator's norms"
        )


def _require_chain_length(n) -> None:
    """The integer rule, then the magnitude rule on the hopping alone, whose entries 2 are in
    H at any delta: a chain that it refuses (every one of 1024 sites or more) is too long."""
    _require_integer(n)
    try:
        _refuse_large_parts(2 ** min(int(n), 1024), 2.0, ())
    except ValidationError:
        raise ValidationError(f"a chain of {n} sites overflows the generator's norms") from None


def site_operator(kind: str, site: int, n_sites: int) -> np.ndarray:
    """Pauli (or ladder) operator acting on one site of an ``n_sites`` chain.

    ``kind`` is one of ``x``, ``y``, ``z``, ``+``, ``-``; sites count from 1.
    """
    if kind not in _SITE_KINDS:
        raise ValidationError(f"unknown operator kind {kind!r}")
    _require_chain_length(n_sites)
    _require_integer(site, "site")
    if not 1 <= site <= n_sites:
        raise ValidationError(f"site {site} out of range 1..{n_sites}")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n_sites - site), dtype=complex)
    return np.kron(np.kron(left, _SITE_KINDS[kind]), right)


def site_reversal(n_sites: int) -> np.ndarray:
    """Permutation that reverses the site order j <-> n+1-j."""
    _require_chain_length(n_sites)
    if n_sites < 0:
        raise ValidationError(f"need a non-negative number of sites, got {n_sites}")
    states = np.arange(2**n_sites)
    reversed_states = sum(((states >> s) & 1) << (n_sites - 1 - s) for s in range(n_sites))
    r = np.zeros((states.size, states.size), dtype=complex)
    r[reversed_states, states] = 1.0
    return r


@contextlib.contextmanager
def _numerical_errors(what: str):
    """Run the block with numpy's overflow and invalid-value errors raised, each
    refused as a :class:`NumericalError` that names ``what`` failed."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{what} failed: {exc}") from None


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (Pade scaling-and-squaring via scipy).

    Accurate to better than 1e-10 relative for dimensions up to 1024 and
    spectral radius up to 50; ``mat_exp(0)`` is exactly the identity.  An overflow
    or invalid value on the way, or a non-finite result, raises :class:`NumericalError`.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix exponential of non-finite input")
    with _numerical_errors("matrix exponential"):
        out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise NumericalError("matrix exponential is not finite")
    return out


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
