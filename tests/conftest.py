import numpy as np
import pytest

from entloc import DimSpec
from entloc.states import permute_factor


@pytest.fixture
def abc_qubits():
    return DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))


@pytest.fixture
def ab_pair():
    return DimSpec.make(("A", 2, "A"), ("B", 2, "B"))


def _schmidt_numbers(psi, left, right=None) -> np.ndarray:
    """Squared Schmidt coefficients of a pure state across ``left`` | ``right``
    (default: every other party), non-increasing and zero-padded to the larger
    side: the SVD of the amplitudes with the parties moved into (left, right)."""
    left = tuple(left)
    if right is None:
        right = tuple(lab for lab in psi.dims.labels if lab not in left)
    right = tuple(right)
    vec, _ = permute_factor(psi.amplitudes[:, None], psi.dims, left + right)
    d_left, d_right = psi.dims.dim_of_labels(left), psi.dims.dim_of_labels(right)
    lam = np.zeros(max(d_left, d_right))
    lam[:min(d_left, d_right)] = np.linalg.svd(vec.reshape(d_left, d_right), compute_uv=False) ** 2
    return lam


@pytest.fixture(scope="session")
def schmidt_numbers():
    return _schmidt_numbers


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
