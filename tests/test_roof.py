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
from entloc.states import permute_parties
from entloc.roof import (_EPS_SCHEDULE, _POLISH_FTOL, _POLISH_GTOL, _descent, _ensemble_stack,
                         _objective, _objective_and_gradient)
from entloc.sampling import (lockstep_lbfgs, lockstep_search, phase_fixed_qr, random_density,
                             random_pure, spawn_rngs)

PAIR = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))
FAST = RoofConfig(restarts=8, seed=0)


def _ensemble_factor(rho):
    evals, evecs = rho.eigensystem()
    mask = evals > 1e-12
    return evecs[:, mask] * np.sqrt(evals[mask])


def _descend(rho, config=RoofConfig()):
    """The roof descent on a d x d state: ``gconcurrence_mixed`` where d > 2;
    on 2 x 2, where that takes the closed form, the descent itself with rank + 2
    members, so that the closed form can check it."""
    if rho.dims.local_dims[0] > 2:
        return gconcurrence_mixed(rho, config=config)
    return _descent(_ensemble_factor(rho), rho.dims, config)


def test_pure_state_shortcut():
    # the roof of c |psi><psi| is c G(psi), and its one member rebuilds it
    for d in (2, 3):
        spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
        psi = random_pure(spec, np.random.default_rng(5))
        for c in (1.0, 0.5):
            rho = DensityOperator(c * psi.to_density().matrix, spec, normalized=c == 1.0)
            value, ens = gconcurrence_mixed(rho, config=FAST)
            assert value == pytest.approx(c * gconcurrence_pure(psi), abs=1e-12), (d, c)
            assert len(ens.states) == 1
            assert ens.converged and ens.value == value
            member = ens.states[0].amplitudes
            np.testing.assert_allclose(ens.weights[0] * np.outer(member, member.conj()),
                                       rho.matrix, atol=1e-12, rtol=0)


def test_product_mixture_separable():
    vecs = [np.kron([1, 0], [1, 0]), np.kron([0, 1], [1 / np.sqrt(2), 1 / np.sqrt(2)])]
    mat = 0.6 * np.outer(vecs[0], np.conj(vecs[0])) + 0.4 * np.outer(vecs[1], np.conj(vecs[1]))
    rho = DensityOperator(mat.astype(complex), PAIR)
    value, _ = _descend(rho, FAST)
    assert value == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_rank2_matches_wootters(seed):
    rho = random_density(PAIR, np.random.default_rng(seed), rank=2)
    value, ens = _descend(rho, RoofConfig(restarts=8, seed=seed))
    assert value == pytest.approx(wootters_concurrence(rho), abs=2e-3)
    # upper-bound semantics with a little closed-form eigen-noise slack
    assert value >= wootters_concurrence(rho) - 1e-6


@pytest.mark.parametrize("p", [0.0, 0.5, 0.8, 1.0])
def test_werner_family(p):
    value, _ = _descend(werner_state(p), RoofConfig(restarts=8, seed=3))
    assert value == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=2e-3)


def test_ensemble_reconstructs_state():
    rho = random_density(PAIR, np.random.default_rng(42), rank=3)
    value, ens = _descend(rho, FAST)
    np.testing.assert_allclose(
        ens.reconstruct(rho.dims).matrix, rho.matrix, atol=1e-10
    )
    recomputed = sum(
        p * gconcurrence_pure(s) for p, s in zip(ens.weights, ens.states)
    )
    assert value == pytest.approx(recomputed, abs=1e-9)


def _bell_diagonal(c):
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    return DensityOperator(((bells.T * c) @ bells).astype(complex), PAIR)


def _closed_form_cases():
    rng = np.random.default_rng(1998)
    cases = {f"rank {r}": random_density(PAIR, rng, rank=r) for r in range(1, 5)}
    # p = 1/3 puts lambda_1 = lambda_2 + lambda_3 + lambda_4; just below it the
    # C = 0 polygon is nearly flat
    cases.update({f"Werner {p!r}": werner_state(p)
                  for p in (0.0, 0.2, 1 / 3 - 1e-14, 1 / 3, 0.5, 0.8, 1.0)})
    # Bell-diagonal: the lambdas are the weights, degenerate here
    for c in ([0.7, 0.1, 0.1, 0.1], [0.4, 0.4, 0.2, 0.0], [0.5, 0.5, 0.0, 0.0],
              rng.dirichlet(np.ones(4))):
        cases[f"Bell-diagonal {np.round(c, 3)}"] = _bell_diagonal(np.asarray(c))
    mat = np.zeros((4, 4), dtype=complex)
    for p in rng.dirichlet(np.ones(3)):
        a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        mat += p * np.outer(v, v.conj())
    cases["separable rank 3"] = DensityOperator(mat, PAIR)
    # |a><a| x sigma: tau = 0 to rounding on a rank-2 state, so the eigenproblem
    # returns its null vectors in any mixture and the QR must make them unitary
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sigma = random_density(DimSpec.make(("B", 2, "B")), rng, rank=2).matrix
    cases["product rank 2"] = DensityOperator(np.kron(np.outer(a, a.conj()) / np.vdot(a, a), sigma),
                                              PAIR)
    cases["I/4"] = DensityOperator(np.eye(4, dtype=complex) / 4, PAIR)
    for tiny in (1e-9, 1e-11):
        evals = np.append(rng.dirichlet(np.ones(3)) * (1 - tiny), tiny)
        u = phase_fixed_qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        cases[f"eigenvalue {tiny:g}"] = DensityOperator((u * evals) @ u.conj().T, PAIR)
    return cases


CLOSED_FORM_CASES = _closed_form_cases()


@pytest.mark.parametrize("rotated", [False, True], ids=["as drawn", "locally rotated"])
@pytest.mark.parametrize("name", list(CLOSED_FORM_CASES))
def test_two_qubit_roof_is_wootters_decomposition(name, rotated):
    rho = CLOSED_FORM_CASES[name]
    if rotated:
        rng = np.random.default_rng(2245)
        a, b = (phase_fixed_qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
                for _ in range(2))
        local = np.kron(a, b)
        rho = DensityOperator(local @ rho.matrix @ local.conj().T, PAIR)
    value, ens = gconcurrence_mixed(rho)
    np.testing.assert_allclose(ens.reconstruct(PAIR).matrix, rho.matrix, atol=1e-12, rtol=0)
    average = sum(p * gconcurrence_pure(s) for p, s in zip(ens.weights, ens.states))
    assert average == pytest.approx(value, abs=1e-12)
    assert value == pytest.approx(wootters_concurrence(rho), abs=1e-12)
    assert len(ens.states) <= 4
    assert ens.value == value and ens.converged
    assert ens.restart_values == () and ens.winner is None
    # the closed form reads no RoofConfig field
    other_value, other = gconcurrence_mixed(rho, config=RoofConfig(restarts=3, seed=5))
    assert other_value == value
    np.testing.assert_array_equal(other.weights, ens.weights)
    for s1, s2 in zip(ens.states, other.states, strict=True):
        np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)


def test_unequal_cut_is_zero():
    spec = DimSpec.make(("A", 3, "A"), ("B", 2, "B"))
    rho = random_density(spec, np.random.default_rng(7), rank=2)
    value, ens = gconcurrence_mixed(rho, config=FAST)
    assert value == 0.0
    np.testing.assert_allclose(ens.reconstruct(spec).matrix, rho.matrix, atol=1e-10)


@pytest.mark.parametrize("d_a,d_b,rank,tol", [
    (2, 2, 2, 1e-12), (2, 2, 3, 1e-12), (3, 2, 2, 1e-12), (3, 3, 1, 1e-12), (3, 3, 2, 1e-5),
], ids=["2x2-rank2", "2x2-rank3", "3x2-rank2", "3x3-pure", "3x3-descent"])
def test_swapped_cut_matches_in_order(d_a, d_b, rank, tol):
    # the cut (B | A) takes the eigen-factor with its parties swapped; the
    # closed forms agree to rounding, the descent to its resolution
    spec = DimSpec.make(("A", d_a, "A"), ("B", d_b, "B"))
    rho = random_density(spec, np.random.default_rng(40 + rank), rank=rank)
    config = RoofConfig(restarts=4)
    value, _ = gconcurrence_mixed(rho, config=config)
    swapped, ens = gconcurrence_mixed(rho, (("B",), ("A",)), config)
    assert swapped == pytest.approx(value, abs=tol)
    # the members are in cut order
    assert all(s.dims.labels == ("B", "A") for s in ens.states)
    rebuilt = sum(p * np.outer(s.amplitudes, s.amplitudes.conj())
                  for p, s in zip(ens.weights, ens.states))
    np.testing.assert_allclose(rebuilt, permute_parties(rho, ("B", "A")).matrix, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_zero_operator_has_zero_roof(d):
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    zero = DensityOperator(np.zeros((d * d, d * d), dtype=complex), spec, normalized=False)
    value, ens = gconcurrence_mixed(zero, config=FAST)
    assert value == 0.0 and ens.value == 0.0 and ens.converged
    assert ens.weights.shape == (0,) and ens.states == ()


@pytest.mark.parametrize("d,rank,c", [(2, 1, 0.5), (3, 2, 2.0), (3, 2, 1.0)],
                         ids=["2x2-pure-half", "3x3-descent-double", "3x3-descent-unit"])
def test_reconstruct_carries_the_trace(d, rank, c):
    # the ensemble of c rho rebuilds c rho, normalized only where c = 1
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rho = random_density(spec, np.random.default_rng(60 + d), rank=rank)
    scaled = DensityOperator(c * rho.matrix, spec, normalized=c == 1.0)
    _, ens = gconcurrence_mixed(scaled, config=RoofConfig(restarts=2))
    rebuilt = ens.reconstruct(spec)
    assert rebuilt.normalized == (c == 1.0)
    assert rebuilt.trace == pytest.approx(c, abs=1e-12)
    np.testing.assert_allclose(rebuilt.matrix, scaled.matrix, atol=1e-10, rtol=0)


def test_zero_operator_ensemble_rebuilds_zero():
    spec = DimSpec.make(("A", 3, "A"), ("B", 3, "B"))
    zero = DensityOperator(np.zeros((9, 9), dtype=complex), spec, normalized=False)
    rebuilt = gconcurrence_mixed(zero)[1].reconstruct(spec)
    assert not rebuilt.normalized and not np.any(rebuilt.matrix)


def test_seed_determinism():
    rho = random_density(PAIR, np.random.default_rng(10), rank=2)
    v1, _ = _descend(rho, FAST)
    v2, _ = _descend(rho, FAST)
    assert v1 == v2


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_converged_flag_follows_returned_point(seed):
    # the winner's last polish stage converges on these rank-3 states
    rho = random_density(PAIR, np.random.default_rng(seed), rank=3)
    value, ens = _descend(rho)
    assert value == pytest.approx(wootters_concurrence(rho), abs=1e-7)
    assert ens.converged


@pytest.mark.parametrize("d,rank", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_gradient_matches_central_differences(d, rank, central_gradient):
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rng = np.random.default_rng(10 * d + rank)
    w = _ensemble_factor(random_density(spec, rng, rank=rank))
    m = rank + 2
    x = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    mats = _ensemble_stack(x, w, d)[2]
    assert np.all(np.abs(np.linalg.det(mats)) > 1e-6)  # away from the det = 0 cusp
    value, grad = _objective_and_gradient(x, w, d, 0.0)
    assert value == pytest.approx(float(_objective(x, w, d)), abs=1e-14)
    numeric = central_gradient(lambda y: float(_objective(y, w, d)), x)
    np.testing.assert_allclose(grad, numeric, atol=1e-8, rtol=0)


@pytest.mark.parametrize("eps", _EPS_SCHEDULE[:2])
@pytest.mark.parametrize("d,rank", [(2, 3), (3, 2)])
def test_smoothed_gradient_matches_central_differences(d, rank, eps, central_gradient):
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rng = np.random.default_rng(20 * d + rank)
    w = _ensemble_factor(random_density(spec, rng, rank=rank))
    x = rng.standard_normal((rank + 2, rank)) + 1j * rng.standard_normal((rank + 2, rank))
    value, grad = _objective_and_gradient(x, w, d, eps)
    # the smoothing lowers every member's term, and vanishes with eps
    exact = float(_objective(x, w, d))
    assert exact - (rank + 2) * d * eps ** (2 / d) <= value <= exact
    numeric = central_gradient(lambda y: float(_objective_and_gradient(y, w, d, eps)[0]), x)
    np.testing.assert_allclose(grad, numeric, atol=1e-8, rtol=0)


def test_smoothed_gradient_at_a_product_member():
    # a member with det C = 0 (a product vector) has zero smoothed gradient
    # and adds nothing to f_eps, where the exact f has its cusp
    w = np.eye(4, 2, dtype=complex)  # the factor columns |00> and |01>
    x = np.eye(2, dtype=complex)  # the ensemble {|00>, |01>}
    for eps in (0.0,) + _EPS_SCHEDULE:
        value, grad = _objective_and_gradient(x, w, 2, eps)
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(grad, 0.0)


def _reference_search(w, d, m, seed, restarts, max_iters):
    """A random search on -f run one restart at a time."""
    r = w.shape[1]
    finals = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        x = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        val = _objective(x, w, d)
        step, stale, converged = 0.5, 0, False
        for _ in range(max_iters):
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


@pytest.mark.parametrize("d,rank", [(2, 2), (3, 2)])
def test_lockstep_search_matches_per_restart_loop(d, rank):
    # the shared lockstep search maximizing -f
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    w = _ensemble_factor(random_density(spec, np.random.default_rng(5), rank=rank))
    seed, restarts, max_iters = 8, 6, 500
    vals, (xs,), flags, _ = lockstep_search(
        lambda x: -_objective(x[0], w, d), [(rank + 2, rank)], seed, restarts, max_iters,
        accept=1e-12, reset=0.0, shrink=0.6, patience=20, stop=1e-3)
    vals = -vals
    assert flags.any()  # restarts drop out of the lockstep at different iterations
    finals = _reference_search(w, d, rank + 2, seed, restarts, max_iters)
    for val, x, flag, (ref_val, ref_x, ref_flag) in zip(vals, xs, flags, finals):
        assert val == pytest.approx(ref_val, abs=1e-12)
        np.testing.assert_allclose(x, ref_x, atol=1e-12, rtol=0)
        assert flag == ref_flag


@pytest.mark.parametrize("d,rank", [(2, 3), (3, 2)])
def test_every_restart_polished_best_three_continued(d, rank):
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rho = random_density(spec, np.random.default_rng(21), rank=rank)
    config = RoofConfig(restarts=5, seed=2)
    value, ens = _descend(rho, config)
    # the first stage, rerun: every restart from its Gaussian start at the largest eps
    w, m = _ensemble_factor(rho), rank + 2

    def flatten(z):
        z = z.reshape(len(z), -1)
        return np.concatenate([z.real, z.imag], axis=1)

    def unflatten(flat):
        return (flat[:, :m * rank] + 1j * flat[:, m * rank:]).reshape(-1, m, rank)

    def fun_and_grad(flat):
        values, g = _objective_and_gradient(unflatten(flat), w, d, _EPS_SCHEDULE[0])
        return values, flatten(g)

    starts = np.stack([rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
                       for rng in spawn_rngs(config.seed, config.restarts)])
    flat, smoothed, _, evals, _, _ = lockstep_lbfgs(
        fun_and_grad, flatten(starts), ftol=_POLISH_FTOL, gtol=_POLISH_GTOL)
    stage1 = _objective(unflatten(flat), w, d)
    continued = np.argsort(smoothed, kind="stable")[:3]
    assert len(ens.restart_values) == len(ens.restart_evaluations) == config.restarts
    for i in range(config.restarts):
        if i in continued:
            # each later stage takes at least one evaluation
            assert ens.restart_evaluations[i] >= evals[i] + len(_EPS_SCHEDULE) - 1
        else:
            assert ens.restart_values[i] == stage1[i]
            assert ens.restart_evaluations[i] == evals[i]
    assert value == ens.value == ens.restart_values[ens.winner] == min(ens.restart_values)


@pytest.mark.parametrize("d,rank", [(2, 4), (3, 3)])
def test_restart_does_not_depend_on_the_others(d, rank):
    # restart i draws from child i of the seed and is polished as if alone,
    # so fewer restarts reproduce the first ones bit for bit (with at most
    # three restarts, every one goes through every stage)
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rho = random_density(spec, np.random.default_rng(30 + d), rank=rank)
    three = _descend(rho, RoofConfig(restarts=3, seed=7))[1]
    two = _descend(rho, RoofConfig(restarts=2, seed=7))[1]
    assert len(three.restart_values) == 3
    assert two.restart_values == three.restart_values[:2]
    assert two.restart_evaluations == three.restart_evaluations[:2]


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
    (2, 2, 1, "0x1.91fb99627dedep-2"),
    (2, 3, 3, "0x1.3b5010b4887c5p-2"),
    (3, 2, 4, "0x1.6190394353ea8p-5"),
    (3, 3, 5, "0x1.0dbb5cb0a97bep-20"),
], ids=["2x2-rank2-seed1", "2x2-rank3-seed3", "3x3-rank2-seed4", "3x3-rank3-seed5"])
def test_values_pinned_bit_for_bit(d, rank, seed, value_hex):
    # the roof shares its QR backward pass and its L-BFGS driver with the LE
    # polish; any change to either moves these values
    spec = DimSpec.make(("A", d, "A"), ("B", d, "B"))
    rho = random_density(spec, np.random.default_rng(seed), rank=rank)
    value, ens = _descend(rho, RoofConfig(restarts=4, seed=seed))
    assert value == float.fromhex(value_hex)
    assert ens.converged


def test_separable_3x3_reaches_zero():
    # a mixture of four random product vectors (rank 4): every member of the
    # optimal ensemble sits at the det = 0 cusp, where an unsmoothed descent stalls
    rng = np.random.default_rng(2007)
    mat = np.zeros((9, 9), dtype=complex)
    for p in rng.dirichlet(np.ones(4)):
        a, b = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        mat += p * np.outer(v, v.conj())
    rho = DensityOperator(mat, DimSpec.make(("A", 3, "A"), ("B", 3, "B")))
    value, ens = gconcurrence_mixed(rho, config=RoofConfig(restarts=8, seed=2007))
    assert 0.0 <= value <= 1e-4
    np.testing.assert_allclose(ens.reconstruct(rho.dims).matrix, mat, atol=1e-10)


def test_descent_is_homogeneous_in_the_trace():
    # an unnormalized state descends at unit trace and is scaled back, so
    # its value, weights and restart values are c times those of rho (within
    # the descent's sensitivity to the rounding of rho's eigen-factor; 8.2e-5
    # at worst here, where a descent at trace c missed by up to 5.9 relative)
    spec = DimSpec.make(("A", 3, "A"), ("B", 3, "B"))
    config = RoofConfig(restarts=4)
    for i, rng in enumerate(spawn_rngs(9, 10)):
        rho = random_density(spec, rng, rank=2 + i % 2)
        value, ens = gconcurrence_mixed(rho, config=config)
        for c in (0.25, 0.5, 2.0):
            scaled = DensityOperator(c * rho.matrix, spec, normalized=False)
            value_c, ens_c = gconcurrence_mixed(scaled, config=config)
            assert value_c == pytest.approx(c * value, rel=1e-3), (i, c)
            assert value_c == ens_c.value == ens_c.restart_values[ens_c.winner]
            rebuilt = sum(p * np.outer(m.amplitudes, m.amplitudes.conj())
                          for p, m in zip(ens_c.weights, ens_c.states))
            np.testing.assert_allclose(rebuilt, scaled.matrix, atol=1e-10)


@pytest.mark.parametrize("fields", [dict(restarts=0), dict(restarts=-1)])
def test_config_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        RoofConfig(**fields)
