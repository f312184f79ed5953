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
from entloc.roof import _ensemble_stack, _objective, _objective_and_gradient
from entloc.sampling import lockstep_search, random_density, random_pure

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


def _ensemble_factor(rho):
    evals, evecs = rho.eigensystem()
    mask = evals > 1e-12
    return evecs[:, mask] * np.sqrt(evals[mask])


@pytest.mark.parametrize("d,rank", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_gradient_matches_central_differences(d, rank, central_gradient):
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rng = np.random.default_rng(10 * d + rank)
    w = _ensemble_factor(random_density(spec, rng, rank=rank))
    m = rank + 2
    x = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    mats = _ensemble_stack(x, w, d)[2]
    assert np.all(np.abs(np.linalg.det(mats)) > 1e-6)  # away from the det = 0 cusp
    value, grad = _objective_and_gradient(x, w, d)
    assert value == pytest.approx(float(_objective(x, w, d)), abs=1e-14)
    numeric = central_gradient(lambda y: float(_objective(y, w, d)), x)
    np.testing.assert_allclose(grad, numeric, atol=1e-8, rtol=0)


def _reference_search(w, d, m, config):
    """The random search run one restart at a time."""
    r = w.shape[1]
    finals = []
    for seed in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        val = _objective(x, w, d)
        step, stale, converged = 0.5, 0, False
        for _ in range(config.max_iters):
            prop = x + step * (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
            pval = _objective(prop, w, d)
            if pval < val - 1e-12:
                x, val, stale = prop, pval, 0
            else:
                stale += 1
                if stale % 20 == 0:
                    step *= 0.6
            if step < 1e-3:
                converged = True
                break
        finals.append((val, x, converged))
    return finals


def _random_search(w, d, m, config):
    """The roof's random phase: the shared lockstep driver maximizing -f."""
    vals, (xs,), flags, _ = lockstep_search(
        lambda x: -_objective(x[0], w, d), [(m, w.shape[1])], config.seed, config.restarts,
        config.max_iters, accept=1e-12, reset=0.0, shrink=0.6, patience=20, stop=1e-3)
    return -vals, xs, flags


@pytest.mark.parametrize("d,rank", [(2, 2), (3, 2)])
def test_lockstep_search_matches_per_restart_loop(d, rank):
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    w = _ensemble_factor(random_density(spec, np.random.default_rng(5), rank=rank))
    config = RoofConfig(restarts=6, max_iters=500, seed=8)
    vals, xs, flags = _random_search(w, d, rank + 2, config)
    assert flags.any()  # restarts drop out of the lockstep at different iterations
    finals = _reference_search(w, d, rank + 2, config)
    for val, x, flag, (ref_val, ref_x, ref_flag) in zip(vals, xs, flags, finals):
        assert val == pytest.approx(ref_val, abs=1e-12)
        np.testing.assert_allclose(x, ref_x, atol=1e-12, rtol=0)
        assert flag == ref_flag


@pytest.mark.parametrize("d,rank", [(2, 3), (3, 2)])
def test_best_three_restarts_polished(d, rank):
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rho = random_density(spec, np.random.default_rng(21), rank=rank)
    config = RoofConfig(restarts=5, max_iters=150, seed=2)
    value, ens = gconcurrence_mixed(rho, config=config)
    searched = _random_search(_ensemble_factor(rho), d, rank + 2, config)[0]
    polished = np.argsort(searched, kind="stable")[:3]
    assert len(ens.restart_values) == config.restarts
    for i, (final, start) in enumerate(zip(ens.restart_values, searched)):
        # a polish starts at its restart's search point and only descends
        assert final <= start if i in polished else final == start
    assert ens.winner in polished
    assert value == ens.value == ens.restart_values[ens.winner] == min(ens.restart_values)


@pytest.mark.parametrize("d,rank", [(2, 4), (3, 3)])
def test_restart_does_not_depend_on_the_others(d, rank):
    # restart i draws from child i of the seed, searches and is polished as
    # if alone, so fewer restarts reproduce the first ones bit for bit (with
    # at most three restarts, every one is polished)
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rho = random_density(spec, np.random.default_rng(30 + d), rank=rank)
    three = gconcurrence_mixed(rho, config=RoofConfig(restarts=3, max_iters=150, seed=7))[1]
    two = gconcurrence_mixed(rho, config=RoofConfig(restarts=2, max_iters=150, seed=7))[1]
    assert two.restart_values == three.restart_values[:2]


def test_seed_determinism_3x3():
    spec = DimSpec.make(("A", 3, "A"), ("B", 3, "B"))
    rho = random_density(spec, np.random.default_rng(12), rank=3)
    v1, e1 = gconcurrence_mixed(rho, config=FAST)
    v2, e2 = gconcurrence_mixed(rho, config=FAST)
    assert v1 == v2
    assert e1.converged == e2.converged
    np.testing.assert_array_equal(e1.weights, e2.weights)
    for s1, s2 in zip(e1.states, e2.states):
        np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)


@pytest.mark.parametrize("d,rank,seed,value_hex", [
    (2, 2, 1, "0x1.91fb9958b6aefp-2"),
    (2, 3, 3, "0x1.3b5011098eca3p-2"),
    (3, 2, 4, "0x1.96095848c7d20p-5"),
    (3, 3, 5, "0x1.76874368c1056p-5"),
], ids=["2x2-rank2-seed1", "2x2-rank3-seed3", "3x3-rank2-seed4", "3x3-rank3-seed5"])
def test_values_pinned_bit_for_bit(d, rank, seed, value_hex):
    # the roof shares its QR backward pass and its L-BFGS driver with the LE
    # polish; any change to either moves these values
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rho = random_density(spec, np.random.default_rng(seed), rank=rank)
    value, ens = gconcurrence_mixed(rho, config=RoofConfig(restarts=4, max_iters=150, seed=seed))
    assert value == float.fromhex(value_hex)
    assert ens.converged
