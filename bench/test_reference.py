"""Textbook values for the benchmark's reference computations.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

import numpy as np
import pytest

import reference as ref

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PRODUCT = np.kron([1, 0], [np.sqrt(0.3), np.sqrt(0.7)]).astype(complex)


def werner(p: float) -> np.ndarray:
    return p * ref.density(BELL) + (1 - p) * np.eye(4) / 4


def test_bell():
    rho = ref.density(BELL)
    assert ref.wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)
    assert ref.concurrence_of_assistance(rho) == pytest.approx(1.0, abs=1e-12)
    lam = ref.schmidt_spectrum(BELL, 2, 2)
    assert ref.entropy_from_spectrum(lam) == pytest.approx(1.0, abs=1e-12)
    assert ref.gconcurrence_from_spectrum(lam, 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_maximally_entangled_g_and_entropy(d):
    vec = np.eye(d).ravel() / np.sqrt(d)
    lam = ref.schmidt_spectrum(vec, d, d)
    assert ref.gconcurrence_from_spectrum(lam, d) == pytest.approx(1.0, abs=1e-12)
    assert ref.entropy_from_spectrum(lam) == pytest.approx(np.log2(d), abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
def test_werner(p):
    assert ref.wootters_concurrence(werner(p)) == pytest.approx(
        max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_product():
    rho = ref.density(PRODUCT)
    assert ref.wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-7)
    lam = ref.schmidt_spectrum(PRODUCT, 2, 2)
    assert ref.entropy_from_spectrum(lam) == pytest.approx(0.0, abs=1e-12)
    assert ref.gconcurrence_from_spectrum(lam, 2) == 0.0
    assert ref.gconcurrence_from_spectrum([1.0], 3) == 0.0


def test_assistance_of_maximally_mixed_pair():
    # I/4 is the A-B marginal of two Bell pairs shared with a helper, which
    # can steer a Bell pair onto A-B on every outcome.
    assert ref.concurrence_of_assistance(np.eye(4) / 4) == pytest.approx(1.0, abs=1e-12)
    assert ref.wootters_concurrence(np.eye(4) / 4) == 0.0


def test_ghz_branch_average():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = ref.density(ghz)
    plus, minus = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    x_basis = [(ref.density(plus),), (ref.density(minus),)]
    z_basis = [(np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)]
    dims = (2, 2, 2)
    assert ref.branch_average(rho, dims, [2], x_basis, ref.wootters_concurrence) == \
        pytest.approx(1.0, abs=1e-12)
    assert ref.branch_average(rho, dims, [2], z_basis, ref.wootters_concurrence) == \
        pytest.approx(0.0, abs=1e-12)
    assert ref.povm_error(x_basis) < 1e-15
    assert ref.concurrence_of_assistance(ref.reduce(rho, dims, [0, 1])) == \
        pytest.approx(1.0, abs=1e-12)


def test_pure_branch_spectrum_and_kraus():
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    rho = ref.density(vec)
    (p, sigma), = ref.branches(rho, (2, 2, 2), [2], [(np.eye(2),)])
    assert p == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sigma, ref.reduce(rho, (2, 2, 2), [0, 1]), atol=1e-14)
    # a unitary on A leaves the A|B spectrum of a pure state unchanged
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ab = ref.density(BELL)
    moved = ref.apply_local_kraus(ab, (2, 2), 0, [u])
    np.testing.assert_allclose(ref.reduced_spectrum(moved, 2, 2), [0.5, 0.5], atol=1e-12)
    assert ref.kraus_f_sum([[u]]) == pytest.approx(1.0, abs=1e-12)


def test_ensemble_reconstruction():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    w, v = np.linalg.eigh(rho)
    np.testing.assert_allclose(ref.ensemble_matrix(w, v.T), rho, atol=1e-14)
    value = ref.eigen_ensemble_gconcurrence(rho, 3, 3)
    assert 0.0 <= value <= 1.0
