import numpy as np
import pytest

from entloc import (
    DimSpec,
    DensityOperator,
    RoofConfig,
    gconcurrence_mixed,
    gconcurrence_pure,
    wootters_concurrence,
)
from entloc.catalog import werner_state
from entloc.sampling import random_density, random_pure

PAIR = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))
FAST = RoofConfig(restarts=8, max_iters=250, seed=0)


def test_pure_state_shortcut():
    psi = random_pure(PAIR, np.random.default_rng(1))
    value, ens = gconcurrence_mixed(psi.to_density(), config=FAST)
    assert value == pytest.approx(gconcurrence_pure(psi), abs=1e-8)
    assert len(ens.states) == 1
    assert ens.converged


def test_product_mixture_separable():
    vecs = [np.kron([1, 0], [1, 0]), np.kron([0, 1], [1 / np.sqrt(2), 1 / np.sqrt(2)])]
    mat = 0.6 * np.outer(vecs[0], np.conj(vecs[0])) + 0.4 * np.outer(vecs[1], np.conj(vecs[1]))
    rho = DensityOperator(mat.astype(complex), PAIR)
    value, _ = gconcurrence_mixed(rho, config=FAST)
    assert value == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_rank2_matches_wootters(seed):
    rho = random_density(PAIR, np.random.default_rng(seed), rank=2)
    value, ens = gconcurrence_mixed(rho, config=RoofConfig(restarts=8, seed=seed))
    assert value == pytest.approx(wootters_concurrence(rho), abs=2e-3)
    # upper-bound semantics with a little closed-form eigen-noise slack
    assert value >= wootters_concurrence(rho) - 1e-6


@pytest.mark.parametrize("p", [0.0, 0.5, 0.8, 1.0])
def test_werner_family(p):
    value, _ = gconcurrence_mixed(werner_state(p), config=RoofConfig(restarts=8, seed=3))
    assert value == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=2e-3)


def test_ensemble_reconstructs_state():
    rho = random_density(PAIR, np.random.default_rng(42), rank=3)
    value, ens = gconcurrence_mixed(rho, config=FAST)
    np.testing.assert_allclose(
        ens.reconstruct(rho.dims).matrix, rho.matrix, atol=1e-10
    )
    recomputed = sum(
        p * gconcurrence_pure(s) for p, s in zip(ens.weights, ens.states)
    )
    assert value == pytest.approx(recomputed, abs=1e-9)


def test_unequal_cut_is_zero():
    spec = DimSpec.make(("A", 3, "A"), ("B", 2, "B"))
    rho = random_density(spec, np.random.default_rng(7), rank=2)
    value, ens = gconcurrence_mixed(rho, config=FAST)
    assert value == 0.0
    np.testing.assert_allclose(ens.reconstruct(spec).matrix, rho.matrix, atol=1e-10)


def test_ensemble_size_below_rank_rejected():
    rho = random_density(PAIR, np.random.default_rng(9), rank=3)
    with pytest.raises(ValueError):
        gconcurrence_mixed(rho, config=RoofConfig(ensemble_size=2, restarts=2))


def test_seed_determinism():
    rho = random_density(PAIR, np.random.default_rng(10), rank=2)
    v1, _ = gconcurrence_mixed(rho, config=FAST)
    v2, _ = gconcurrence_mixed(rho, config=FAST)
    assert v1 == v2


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_converged_flag_follows_returned_point(seed):
    # the polish wins on these states; no random-search restart converges
    rho = random_density(PAIR, np.random.default_rng(seed), rank=3)
    value, ens = gconcurrence_mixed(rho)
    assert value == pytest.approx(wootters_concurrence(rho), abs=1e-7)
    assert ens.converged
