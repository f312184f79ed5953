import numpy as np
import pytest

from entloc import DimSpec


@pytest.fixture
def abc_qubits():
    return DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))


@pytest.fixture
def ab_pair():
    return DimSpec.make(("A", 2, "A"), ("B", 2, "B"))


def rng_for(seed):
    return np.random.default_rng(seed)


def _central_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient df/dRe x + i df/dIm x of a real function
    of a complex array."""
    grad = np.zeros(x.shape, dtype=np.complex128)
    for idx in np.ndindex(x.shape):
        for unit in (1.0, 1j):
            step = np.zeros_like(x)
            step[idx] = h * unit
            grad[idx] += unit * (f(x + step) - f(x - step)) / (2 * h)
    return grad


@pytest.fixture
def central_gradient():
    return _central_gradient


_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _assistance_reference(mat: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) rho~ sqrt(rho)) of a two-qubit operator, rho~ =
    (sy ⊗ sy) rho* (sy ⊗ sy), the concurrence of assistance without entloc:
    the singular values of sqrt(rho) (sy ⊗ sy) sqrt(rho)*, which keep full
    precision where rho is rank deficient (eigenvalues below 1e-13 of the
    trace are taken as 0)."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    w = np.where(w > 1e-13 * np.sum(np.abs(w)), w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    return float(np.sum(np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)))


@pytest.fixture
def assistance_reference():
    return _assistance_reference
