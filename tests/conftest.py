import numpy as np
import pytest

from ptlind import LindbladModel
from ptlind.operators import SIGMA_MINUS, SIGMA_Z, global_spin_flip


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
