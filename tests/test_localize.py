import time

import numpy as np
import pytest

from entloc import (
    DimSpec,
    DensityOperator,
    DimensionError,
    LEConfig,
    NullBranchError,
    ProductPOVM,
    PureState,
    average_root_entanglement,
    concurrence_measure,
    conditional_state,
    entropy_measure,
    gconcurrence_measure,
    grid_oracle_le,
    optimize_le,
    tensor_product,
)
from entloc.catalog import bell_state, ghz_state, w_state
from entloc.localize import (
    _FactorEvaluator,
    _povm_from_isometries,
    _rank1_factors,
)
from entloc.sampling import random_density, random_povm, random_pure, spawn_rngs

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)

FAST = LEConfig(restarts=6, max_iters=200, seed=0)


def bell_with_idle_helper(helper_rank=2):
    helper = random_density(DimSpec.make(("C", 2, "Z")), np.random.default_rng(2),
                            rank=helper_rank)
    return tensor_product(bell_state().to_density(), helper)


class TestProductPOVM:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            ProductPOVM.single_party("C", (P0, P0))

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            ProductPOVM.single_party("C", (np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    def test_multi_party_element(self):
        povm = ProductPOVM(("C1", "C2"), tuple(
            (a, b) for a in (P0, P1) for b in (P0, P1)
        ))
        assert povm.n_outcomes == 4
        np.testing.assert_allclose(povm.element(0), np.diag([1.0, 0, 0, 0]), atol=1e-14)


class TestAverage:
    def test_uncorrelated_helper(self):
        rho = bell_with_idle_helper()
        for elements in ((P0, P1), (PLUS, MINUS)):
            res = average_root_entanglement(
                rho, ProductPOVM.single_party("C", elements), entropy_measure()
            )
            assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_ghz_x_basis(self):
        res = average_root_entanglement(
            ghz_state(3).to_density(),
            ProductPOVM.single_party("q2", (PLUS, MINUS)),
            entropy_measure(),
        )
        # oracle: both branches are Bell states up to a local phase
        assert res.value == pytest.approx(1.0, abs=1e-10)
        for p, v in res.branches:
            assert p == pytest.approx(0.5, abs=1e-10)
            assert v == pytest.approx(1.0, abs=1e-10)

    def test_ghz_computational_basis(self):
        res = average_root_entanglement(
            ghz_state(3).to_density(),
            ProductPOVM.single_party("q2", (P0, P1)),
            entropy_measure(),
        )
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_value_recomputation_invariant(self):
        rng = np.random.default_rng(5)
        rho = random_density(
            DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng
        )
        povm = ProductPOVM.single_party("C", random_povm(2, 3, rng))
        res = average_root_entanglement(rho, povm, concurrence_measure())
        again = average_root_entanglement(rho, res.povm, concurrence_measure())
        assert res.value == pytest.approx(again.value, abs=1e-10)
        assert sum(p for p, _ in res.branches) == pytest.approx(1.0, abs=1e-10)

    def test_label_mismatch(self):
        with pytest.raises(DimensionError):
            average_root_entanglement(
                bell_with_idle_helper(),
                ProductPOVM.single_party("X", (P0, P1)),
                entropy_measure(),
            )


class TestOptimize:
    def test_ghz_entropy_reaches_one(self):
        res = optimize_le(ghz_state(3).to_density(), entropy_measure(), FAST)
        assert res.value >= 1.0 - 1e-6
        assert res.value <= 1.0 + 1e-9

    def test_uncorrelated_helper_flat(self):
        res = optimize_le(bell_with_idle_helper(), entropy_measure(), FAST)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_result_reproducible_and_recomputable(self):
        rho = ghz_state(3).to_density()
        r1 = optimize_le(rho, entropy_measure(), FAST)
        r2 = optimize_le(rho, entropy_measure(), FAST)
        assert r1.value == r2.value
        again = average_root_entanglement(rho, r1.povm, entropy_measure())
        assert again.value == pytest.approx(r1.value, abs=1e-10)

    def test_more_restarts_never_worse(self):
        rho = w_state(3).to_density()
        lo = optimize_le(rho, entropy_measure(),
                         LEConfig(restarts=2, max_iters=150, seed=4, polish=False))
        hi = optimize_le(rho, entropy_measure(),
                         LEConfig(restarts=8, max_iters=150, seed=4, polish=False))
        assert hi.value >= lo.value - 1e-12

    def test_no_helper_party_rejected(self):
        with pytest.raises(DimensionError):
            optimize_le(bell_state().to_density(), entropy_measure(), FAST)

    def test_two_helper_parties(self):
        res = optimize_le(ghz_state(4).to_density(), entropy_measure(), FAST)
        assert res.value >= 1.0 - 1e-5


class TestGridOracle:
    def test_ghz(self):
        val = grid_oracle_le(ghz_state(3).to_density(), entropy_measure(), resolution=64)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_uncorrelated_flat(self):
        val = grid_oracle_le(bell_with_idle_helper(), entropy_measure(), resolution=16)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_w_state_concurrence(self):
        rho = w_state(3).to_density()
        # computational-basis branch oracle: p=2/3 Bell-like (C=1), p=1/3 product
        comp = average_root_entanglement(
            rho, ProductPOVM.single_party("q2", (P0, P1)), concurrence_measure()
        )
        assert comp.value == pytest.approx(2 / 3, abs=1e-10)
        val = grid_oracle_le(rho, concurrence_measure(), resolution=32)
        assert val >= 2 / 3 - 1e-10

    def test_optimizer_dominates_grid(self):
        rho = w_state(3).to_density()
        grid = grid_oracle_le(rho, entropy_measure(), resolution=24)
        opt = optimize_le(rho, entropy_measure(), FAST)
        assert opt.value >= grid - 1e-6

    def test_wrong_helper_shape(self):
        with pytest.raises(DimensionError):
            grid_oracle_le(ghz_state(4).to_density(), entropy_measure())


class TestConvexity:
    """Mixing the state can only lower the fixed-POVM average (convex roots)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_transferred_convexity(self, seed):
        rng = np.random.default_rng(seed)
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
        parts = [random_density(dims, rng, rank=int(rng.integers(1, 3))) for _ in range(3)]
        t = rng.dirichlet(np.ones(3))
        mix = DensityOperator(sum(w * p.matrix for w, p in zip(t, parts)), dims)
        povm = ProductPOVM.single_party("C", random_povm(2, 4, rng))
        measure = concurrence_measure()
        lhs = average_root_entanglement(mix, povm, measure).value
        rhs = sum(w * average_root_entanglement(p, povm, measure).value
                  for w, p in zip(t, parts))
        assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_per_branch_convexity(self, seed):
        # branch-level inequality behind the mixture argument, on pure parts
        rng = np.random.default_rng(100 + seed)
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
        parts = [random_pure(dims, rng).to_density() for _ in range(2)]
        t = rng.dirichlet(np.ones(2))
        mix = DensityOperator(sum(w * p.matrix for w, p in zip(t, parts)), dims)
        povm = ProductPOVM.single_party("C", random_povm(2, 2, rng))
        measure = gconcurrence_measure()
        from entloc import conditional_state

        for k in range(povm.n_outcomes):
            q = povm.element(k)
            p_mix, sigma_mix = conditional_state(mix, q)
            rhs = 0.0
            for w, part in zip(t, parts):
                p_l, sigma_l = conditional_state(part, q)
                rhs += (w * p_l / p_mix) * measure.density(sigma_l)
            assert measure.density(sigma_mix) <= rhs + 1e-9


MEASURES = (entropy_measure(), concurrence_measure(), gconcurrence_measure())


def _isometry_with_null_row(d: int, rng) -> np.ndarray:
    """(d + 2) x d isometry whose last row is zero: an exactly null outcome."""
    x = rng.standard_normal((d + 1, d)) + 1j * rng.standard_normal((d + 1, d))
    return np.vstack([_rank1_factors([x])[0], np.zeros((1, d))])


def _reference_branches(rho, povm, measure):
    """Per-outcome loop: conditional_state, then RootMeasure.density."""
    cut = (rho.dims.a_labels, rho.dims.b_labels)
    out = []
    for k in range(povm.n_outcomes):
        try:
            p, sigma = conditional_state(rho, povm.element(k))
        except NullBranchError:
            out.append((0.0, 0.0))
            continue
        out.append((p, measure.density(sigma, cut)))
    return out


def _sweep_cases():
    """1-2 helpers of dimension 2-3, global ranks 1-3, every root, 2x2 and
    2x3 cuts; each helper POVM has one exactly null outcome."""
    for i, rng in enumerate(spawn_rngs(2024, 36)):
        helpers = [int(rng.integers(2, 4)) for _ in range(1 + i % 2)]
        rank = 1 + (i // 2) % 3
        d_b = 3 if rank == 1 and i % 4 == 1 else 2  # larger cuts on pure states only
        dims = DimSpec.make(("A", 2, "A"), ("B", d_b, "B"),
                            *[(f"Z{j}", d, "Z") for j, d in enumerate(helpers)])
        rho = random_density(dims, rng, rank=rank)
        isos = [_isometry_with_null_row(d, rng) for d in helpers]
        yield i, rho, rank, isos, MEASURES[(i // 6) % 3]


class TestBatchedEngine:
    """The batched branch engine against the per-outcome reference loop."""

    @pytest.mark.parametrize("case", list(_sweep_cases()), ids=lambda c: f"case{c[0]}")
    def test_matches_per_branch_reference(self, case):
        _, rho, rank, isos, measure = case
        povm = _povm_from_isometries(rho.dims.z_labels, isos)
        d_a = rho.dims.dim_of_labels(rho.dims.a_labels)
        d_b = rho.dims.dim_of_labels(rho.dims.b_labels)

        def evaluator():
            return _FactorEvaluator(rho, measure)

        if measure.kind == "concurrence" and (d_a, d_b) != (2, 2):
            for call in (lambda: _reference_branches(rho, povm, measure),
                         lambda: average_root_entanglement(rho, povm, measure),
                         evaluator):
                with pytest.raises(DimensionError):
                    call()
            return
        if measure.kind == "entropy" and rank > 1:
            for call in (lambda: _reference_branches(rho, povm, measure),
                         lambda: average_root_entanglement(rho, povm, measure),
                         lambda: evaluator().average(isos)):
                with pytest.raises(ValueError, match="pure states only"):
                    call()
            return
        ref = _reference_branches(rho, povm, measure)
        tol = 1e-12
        ref_value = sum(p * v for p, v in ref)
        res = average_root_entanglement(rho, povm, measure)
        assert res.branches[-1] == (0.0, 0.0)
        assert len(res.branches) == len(ref)
        for (p, v), (p_ref, v_ref) in zip(res.branches, ref):
            assert p == pytest.approx(p_ref, abs=1e-12)
            assert v == pytest.approx(v_ref, abs=tol)
        assert res.value == pytest.approx(ref_value, abs=tol)
        assert evaluator().average(isos) == pytest.approx(ref_value, abs=tol)
        if rank == 1:
            # the vector form scores pure branches by their Schmidt spectrum,
            # so the pure-state measure of each branch is an exact reference
            exact = sum(p * measure.pure(sigma.as_pure()) for p, sigma in
                        (conditional_state(rho, povm.element(k))
                         for k in range(povm.n_outcomes) if ref[k][0] > 0))
            assert evaluator().average(isos) == pytest.approx(exact, abs=1e-12)

    def test_vector_form_outcome_order(self):
        # two helpers: outcome k of the vector form is combo k of np.ndindex
        rng = np.random.default_rng(8)
        rho = random_pure(DimSpec.make(("A", 2, "A"), ("B", 2, "B"),
                                       ("C", 2, "Z"), ("D", 3, "Z")), rng)
        isos = [_rank1_factors([rng.standard_normal((k, d)) + 0j])[0]
                for k, d in ((3, 2), (4, 3))]
        povm = _povm_from_isometries(("C", "D"), isos)
        measure = entropy_measure()
        want = sum(p * v for p, v in _reference_branches(rho.to_density(), povm, measure))
        assert _FactorEvaluator(rho.to_density(), measure).average(isos) == pytest.approx(
            want, abs=1e-12)


class TestFailFast:
    # the budget makes a full ascent take seconds, so a late raise shows
    BIG = LEConfig(restarts=64, max_iters=300)

    def _qutrit_pair(self):
        dims = DimSpec.make(("A", 3, "A"), ("B", 3, "B"), ("C", 2, "Z"))
        return random_pure(dims, np.random.default_rng(0)).to_density()

    @pytest.mark.parametrize("mixed", [False, True])
    def test_concurrence_root_on_large_cut(self, mixed):
        rho = self._qutrit_pair()
        if mixed:
            rho = random_density(rho.dims, np.random.default_rng(1), rank=2)
        t0 = time.perf_counter()
        with pytest.raises(DimensionError):
            optimize_le(rho, concurrence_measure(), self.BIG)
        assert time.perf_counter() - t0 < 1.0

    def test_average_rejects_before_scoring(self):
        povm = ProductPOVM.single_party("C", (P0, P1))
        with pytest.raises(DimensionError):
            average_root_entanglement(self._qutrit_pair(), povm, concurrence_measure())


class TestConfig:
    @pytest.mark.parametrize("kwargs", [dict(restarts=0), dict(restarts=-1),
                                        dict(max_iters=-1)])
    def test_bad_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LEConfig(**kwargs)

    def test_zero_iterations_allowed(self):
        res = optimize_le(ghz_state(3).to_density(), entropy_measure(),
                          LEConfig(restarts=2, max_iters=0, polish=False))
        assert res.iterations == 0
        assert not res.converged

    def test_flat_landscape_converges(self):
        # no proposal ever improves, so every restart shrinks its step to the end
        res = optimize_le(bell_with_idle_helper(), entropy_measure(),
                          LEConfig(restarts=3, max_iters=300))
        assert res.converged


def _gradient_cases():
    """Every root with a closed-form gradient: pure states on 2x2, 2x3 and
    3x3 cuts (concurrence on 2x2 only), mixed 2x2 states of rank 2, 3, 5;
    one or two helpers."""
    cases = []
    for measure in MEASURES:
        for cut in ((2, 2), (2, 3), (3, 3)):
            if measure.kind != "concurrence" or cut == (2, 2):
                cases += [(measure, cut, helpers, 1) for helpers in ((2,), (2, 3))]
    for measure in MEASURES[1:]:
        for rank in (2, 3, 5):
            cases += [(measure, (2, 2), helpers, rank) for helpers in ((2,), (2, 2))]
    return cases


@pytest.mark.parametrize(
    "seed,case", list(enumerate(_gradient_cases())),
    ids=lambda c: (f"{c[0].kind}-{c[1][0]}x{c[1][1]}-z{''.join(map(str, c[2]))}-r{c[3]}"
                   if isinstance(c, tuple) else str(c)))
def test_evaluator_gradient_matches_central_differences(seed, case, central_gradient):
    measure, (d_a, d_b), helpers, rank = case
    rng = np.random.default_rng(300 + seed)
    dims = DimSpec.make(("A", d_a, "A"), ("B", d_b, "B"),
                        *[(f"Z{j}", d, "Z") for j, d in enumerate(helpers)])
    evaluator = _FactorEvaluator(random_density(dims, rng, rank=rank), measure)
    assert evaluator.r == rank and evaluator.exact_gradient
    params = [rng.standard_normal((d + 1, d)) + 1j * rng.standard_normal((d + 1, d))
              for d in helpers]
    value, grads = evaluator.average_and_gradient(params)
    assert value == pytest.approx(evaluator.average(_rank1_factors(params)), abs=1e-12)
    for j, x in enumerate(params):
        def average(y, j=j):
            return evaluator.average(_rank1_factors(params[:j] + [y] + params[j + 1:]))

        np.testing.assert_allclose(grads[j], central_gradient(average, x), atol=1e-8, rtol=0)


SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


class TestPolish:
    @pytest.mark.parametrize("measure", MEASURES[1:], ids=lambda m: m.kind)
    def test_reaches_concurrence_of_assistance(self, measure):
        # one helper on a pure state: the LE is the concurrence of assistance
        # of rho_AB = M M^dag, the sum of the singular values of M^T (sy ⊗ sy) M
        for i, rng in enumerate(spawn_rngs(2025, 20)):
            d_z = 2 + i % 2
            dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", d_z, "Z"))
            psi = random_pure(dims, rng)
            m = psi.amplitudes.reshape(4, d_z)
            coa = np.linalg.svd(m.T @ SIGMA_YY @ m, compute_uv=False).sum()
            res = optimize_le(psi.to_density(), measure,
                              LEConfig(restarts=2, max_iters=100, seed=i))
            assert coa - 1e-6 <= res.value <= coa + 1e-12

    @pytest.mark.parametrize("case", [
        ("ghz entropy", lambda: ghz_state(3).to_density(), entropy_measure()),
        ("w concurrence", lambda: w_state(3).to_density(), concurrence_measure()),
        ("pure 2x2x3 G", lambda: random_pure(DimSpec.make(
            ("A", 2, "A"), ("B", 2, "B"), ("C", 3, "Z")), np.random.default_rng(4)).to_density(),
         gconcurrence_measure()),
        ("rank-2 2x2x2x2 concurrence", lambda: random_density(DimSpec.make(
            ("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"), ("D", 2, "Z")),
            np.random.default_rng(5), rank=2), concurrence_measure()),
        ("mixed helper entropy", bell_with_idle_helper, entropy_measure()),
    ], ids=lambda c: c[0])
    def test_polish_never_below_ascent(self, case):
        _, make, measure = case
        rho = make()
        config = LEConfig(restarts=3, max_iters=60, seed=11, polish=False)
        ascent = optimize_le(rho, measure, config)
        assert ascent.evaluations == config.restarts + ascent.iterations
        polished = optimize_le(rho, measure, LEConfig(restarts=3, max_iters=60, seed=11))
        assert polished.iterations == ascent.iterations
        assert polished.evaluations > ascent.evaluations
        assert polished.value >= ascent.value - 1e-12
