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
