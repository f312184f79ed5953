import time

import numpy as np
import pytest

from entloc import (
    checks,
    DimSpec,
    DensityOperator,
    DimensionError,
    Instrument,
    LEConfig,
    NullBranchError,
    ProductPOVM,
    PureState,
    average_root_entanglement,
    concurrence_measure,
    concurrence_of_assistance,
    conditional_state,
    entropy_measure,
    gconcurrence_measure,
    optimize_le,
    partial_trace,
)
from entloc.catalog import bell_state, build_locked_state, ghz_state, w_state
from entloc.jamiolkowski import from_state
from entloc.localize import _FactorEvaluator, _kron, _povm_from_isometries, _search
from entloc.protocols import (apply_instrument, evaluate_protocol, locked_state_protocol,
                              monotonicity_gap)
from entloc.sampling import (
    gram_cholesky_qr,
    gram_cholesky_qr_backward,
    lockstep_search,
    phase_fixed_qr,
    random_density,
    random_instrument,
    random_povm,
    random_pure,
    seeded_starts,
    spawn_rngs,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

FAST = LEConfig(restarts=6, max_iters=200, seed=0)


def bell_with_idle_helper(helper_rank=2):
    helper = random_density(DimSpec.make(("C", 2, "Z")), np.random.default_rng(2),
                            rank=helper_rank)
    bell = bell_state().to_density()
    return DensityOperator(np.kron(bell.matrix, helper.matrix), bell.dims.concat(helper.dims))


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
        np.testing.assert_array_equal(povm.elements(),
                                      [povm.element(k) for k in range(povm.n_outcomes)])

    @staticmethod
    def _two_party_factors():
        """(outcome, factor) lists of a valid POVM on C (computational
        projectors) and D (a rank-one trine of a random isometry), outcomes
        in (C, D) order: six outcomes, each factor its own array."""
        rows = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 2))
                            + 1j * np.random.default_rng(8).standard_normal((3, 2)))[0]
        trine = [np.outer(v, v.conj()) for v in rows]
        return [[c.copy(), t.copy()] for c in (P0, P1) for t in trine]

    @staticmethod
    def _bump(delta, outcome, party, entry):
        def edit(factors):
            factors[outcome][party][entry] += delta
        return edit

    @staticmethod
    def _negative_in_the_middle(factors):
        # outcome 3 of 6: C's factor P1 gains the eigenvalue -2e-10 on |0>
        factors[3][0] = P1 - 2e-10 * P0

    @staticmethod
    def _complete_off_by(delta):
        def edit(factors):
            # C's P0 on every outcome with C outcome 0: the sum is off by delta P0 ⊗ I
            for out in factors[:3]:
                out[0] = (1 + delta) * P0
        return edit

    @staticmethod
    def _missing_factor(factors):
        factors[2] = factors[2][:1]

    @staticmethod
    def _non_finite(factors):
        factors[1][1][0, 0] = np.nan

    @staticmethod
    def _ragged_factor(factors):
        factors[4][1] = np.zeros((3, 3))

    @staticmethod
    def _non_square_factors(factors):
        # every factor on D of shape (2, 3): one stack, but not of operators
        for out in factors:
            out[1] = np.pad(out[1], ((0, 0), (0, 1)))

    REJECTED = [
        ("non-finite entry", "_non_finite", ValueError, "POVM factor has non-finite entries"),
        ("non-Hermitian 2e-10", (2e-10, 5, 1, (0, 1)), ValueError, "POVM factor not Hermitian"),
        ("eigenvalue -2e-10", "_negative_in_the_middle", ValueError,
         "POVM factor not positive semidefinite"),
        ("completeness 2e-8", 2e-8, ValueError, "POVM outcomes do not sum to the identity"),
        ("missing factor", "_missing_factor", DimensionError,
         "each outcome needs one factor per helper party"),
        ("ragged factor", "_ragged_factor", DimensionError,
         "all POVM factors of a party must be square of equal size"),
        ("non-square factors", "_non_square_factors", DimensionError,
         "all POVM factors of a party must be square of equal size"),
    ]
    ACCEPTED = [("Hermiticity 5e-11", (5e-11, 5, 1, (0, 1))), ("completeness 5e-9", 5e-9)]

    def _edited(self, fault):
        factors = self._two_party_factors()
        if isinstance(fault, str):
            getattr(self, fault)(factors)
        elif isinstance(fault, tuple):
            self._bump(*fault)(factors)
        else:
            self._complete_off_by(fault)(factors)
        return ("C", "D"), tuple(tuple(out) for out in factors)

    @pytest.mark.parametrize("case", REJECTED, ids=lambda c: c[0])
    def test_rejects(self, case):
        _, fault, error, message = case
        with pytest.raises(error) as info:
            ProductPOVM(*self._edited(fault))
        assert str(info.value) == message

    @pytest.mark.parametrize("case", ACCEPTED, ids=lambda c: c[0])
    def test_accepts_within_tolerance(self, case):
        assert ProductPOVM(*self._edited(case[1])).n_outcomes == 6


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

    def test_helper_dimension_mismatch(self):
        # a qutrit POVM on a qubit helper, and two helpers' factors swapped
        # (the joint helper dimension still matches)
        rng = np.random.default_rng(9)
        qubit = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng)
        pair = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"),
                                           ("D", 3, "Z")), rng)
        swapped = ProductPOVM(("C", "D"), tuple(
            (e3, e2) for e3 in random_povm(3, 2, rng) for e2 in random_povm(2, 2, rng)))
        for rho, povm in ((qubit, ProductPOVM.single_party("C", random_povm(3, 3, rng))),
                          (pair, swapped)):
            with pytest.raises(DimensionError):
                average_root_entanglement(rho, povm, concurrence_measure())
            with pytest.raises(DimensionError):
                monotonicity_gap(rho, Instrument.unitary("A", np.eye(2)), concurrence_measure(),
                                 povm=povm)


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
                         LEConfig(restarts=2, max_iters=150, seed=4))
        hi = optimize_le(rho, entropy_measure(),
                         LEConfig(restarts=8, max_iters=150, seed=4))
        assert hi.value >= lo.value - 1e-12

    @pytest.mark.parametrize("measure", [gconcurrence_measure(), concurrence_measure()],
                             ids=lambda m: m.kind)
    def test_reported_value_is_the_optimizers(self, measure):
        # the fixed-POVM recompute builds the branches in the factor form the
        # ascent scores, so mixed 2 x 2 branches report the value it reached
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
        for seed in range(6):
            rho = random_density(dims, np.random.default_rng(100 + seed), rank=2)
            res = optimize_le(rho, measure, LEConfig(restarts=2, max_iters=100, seed=seed))
            # outcome k is v_k v_k^dag: v_k is its top eigenvector, up to a phase
            evals, evecs = np.linalg.eigh(np.stack([out[0] for out in res.povm.factors]))
            iso = evecs[:, :, -1] * np.sqrt(evals[:, -1:])
            reached = _FactorEvaluator(rho, measure).average([iso])
            assert res.value == pytest.approx(reached, abs=1e-14)

    def test_no_helper_party_rejected(self):
        with pytest.raises(DimensionError):
            optimize_le(bell_state().to_density(), entropy_measure(), FAST)

    def test_two_helper_parties(self):
        res = optimize_le(ghz_state(4).to_density(), entropy_measure(), FAST)
        assert res.value >= 1.0 - 1e-5


def grid_oracle_le(rho, measure, resolution=64):
    """Brute-force LE lower bound for a single helper qubit, independent of
    the LE search: the best average over a Bloch-angle grid of two-outcome
    projective measurements (resolution counts the theta intervals, so an
    even one samples theta = pi / 2 exactly)."""
    z_labels = rho.dims.z_labels
    if len(z_labels) != 1 or rho.dims.dim_of(z_labels[0]) != 2:
        raise DimensionError("grid oracle requires exactly one helper qubit")
    evaluator = _FactorEvaluator(rho, measure)
    best = -np.inf
    for theta in np.linspace(0.0, np.pi, resolution + 1):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        for phi in np.linspace(0.0, 2 * np.pi, resolution, endpoint=False):
            up = np.array([c, np.exp(1j * phi) * s])
            down = np.array([-np.exp(-1j * phi) * s, c])
            best = max(best, evaluator.average([np.vstack([up, down])]))
    return float(best)


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
        assert checks.povm_convexity(4, seed)[1] == []

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
    return np.vstack([phase_fixed_qr(x)[0], np.zeros((1, d))])


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


# eigenvalues of the non-normal product rho rho~ of a rank-deficient branch
# carry square-root-level rounding: up to 1.3e-8 measured on the sweep below
WOOTTERS_EIGVALS_TOL = 1e-7


def _independent_branch_value(kind, sigma, cut, schmidt_numbers):
    """Branch value without ``RootMeasure``: entropy and G from the
    ``schmidt_numbers`` spectrum of a pure branch, the concurrence of a
    mixed two-qubit branch from the eigenvalues of rho (sy ⊗ sy) rho* (sy ⊗ sy)."""
    evals, evecs = sigma.eigensystem()
    if np.count_nonzero(evals > 1e-10) == 1:
        lam = schmidt_numbers(PureState(evecs[:, -1], sigma.dims), *cut)  # zero-padded
        if kind == "entropy":
            lam = lam[lam > 1e-15]
            return float(-np.sum(lam * np.log2(lam)))
        return lam.size * float(np.prod(lam)) ** (1 / lam.size)
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    mat = sigma.matrix
    ev = np.sort(np.linalg.eigvals(mat @ yy @ mat.conj() @ yy).real)[::-1]
    mu = np.sqrt(np.clip(ev, 0.0, None))
    return max(0.0, mu[0] - np.sum(mu[1:]))


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
    def test_matches_per_branch_reference(self, case, schmidt_numbers):
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
        # the reference above scores through ``factor_branches`` too, so the
        # branches are also checked against a scorer that shares no code with it
        cut = (rho.dims.a_labels, rho.dims.b_labels)
        indep_tol = 1e-12 if rank == 1 else WOOTTERS_EIGVALS_TOL
        exact = 0.0
        for k, (p, v) in enumerate(res.branches):
            if ref[k][0] > 0:
                p_k, sigma = conditional_state(rho, povm.element(k))
                v_k = _independent_branch_value(measure.kind, sigma, cut, schmidt_numbers)
                assert v == pytest.approx(v_k, abs=indep_tol)
                exact += p_k * v_k
        assert res.value == pytest.approx(exact, abs=indep_tol)
        assert evaluator().average(isos) == pytest.approx(exact, abs=indep_tol)

    def test_vector_form_outcome_order(self):
        # two helpers: outcome k of the vector form is combo k of np.ndindex
        rng = np.random.default_rng(8)
        rho = random_pure(DimSpec.make(("A", 2, "A"), ("B", 2, "B"),
                                       ("C", 2, "Z"), ("D", 3, "Z")), rng)
        isos = [phase_fixed_qr(rng.standard_normal((k, d)) + 0j)[0]
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


def _reference_ascent(rho, measure, config, tol):
    """The LE random search run one restart at a time, drawing its noise step
    by step; a gain above tol / 10 is taken, one below tol counts as stale."""
    evaluator = _FactorEvaluator(rho, measure)
    shapes = [(d * d, d) for d in (rho.dims.dim_of(lab) for lab in rho.dims.z_labels)]

    def score(params):
        return evaluator.average([phase_fixed_qr(x)[0] for x in params])

    finals = []
    for seed in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(seed)
        params = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
        val = score(params)
        step, stale, converged, iters = 0.5, 0, False, 0
        for it in range(config.max_iters):
            iters += 1
            idx = it % len(params)
            prop = list(params)
            prop[idx] = params[idx] + step * (rng.standard_normal(shapes[idx])
                                              + 1j * rng.standard_normal(shapes[idx]))
            pval = score(prop)
            if pval > val + tol / 10:
                gain = pval - val
                params, val = prop, pval
                stale = stale + 1 if gain < tol else 0
            else:
                stale += 1
                if stale % (8 * len(params)) == 0:
                    step *= 0.5
            if step < 1e-5:
                converged = True
                break
        finals.append((val, params, converged, iters))
    return finals


def with_mixed_helper(rho, rank=2):
    """rho with one more helper qubit, uncorrelated and mixed: the branches
    stay pure, the global state is mixed, so entropy has no exact gradient."""
    helper = random_density(DimSpec.make(("W", 2, "Z")), np.random.default_rng(7), rank=rank)
    return DensityOperator(np.kron(rho.matrix, helper.matrix), rho.dims.concat(helper.dims))


def _lockstep_cases():
    """(name, state, root, budget, search tol, restarts stop at different
    iterations)"""
    def dims(*helpers):
        return DimSpec.make(("A", 2, "A"), ("B", 2, "B"),
                            *[(f"Z{j}", d, "Z") for j, d in enumerate(helpers)])

    return [
        ("pure z2 entropy", random_pure(dims(2), np.random.default_rng(1)).to_density(),
         entropy_measure(), LEConfig(restarts=4, max_iters=300, seed=9), 1e-4, True),
        ("pure z22 G", random_pure(dims(2, 2), np.random.default_rng(2)).to_density(),
         gconcurrence_measure(), LEConfig(restarts=4, max_iters=290, seed=9), 1e-2, True),
        ("mixed z2 concurrence", random_density(dims(2), np.random.default_rng(3), rank=3),
         concurrence_measure(), LEConfig(restarts=3, max_iters=250, seed=9), 1e-4, True),
        ("mixed z22 G", random_density(dims(2, 2), np.random.default_rng(4), rank=2),
         gconcurrence_measure(), LEConfig(restarts=4, max_iters=300, seed=9), 1e-2, True),
        ("mixed helper ghz entropy", with_mixed_helper(ghz_state(3).to_density()),
         entropy_measure(), LEConfig(restarts=4, max_iters=500, seed=9), 1e-9, True),
        ("one restart",
         with_mixed_helper(random_pure(dims(3), np.random.default_rng(5)).to_density()),
         entropy_measure(), LEConfig(restarts=1, max_iters=45, seed=2), 1e-9, False),
        ("no iterations", bell_with_idle_helper(), entropy_measure(),
         LEConfig(restarts=3, max_iters=0, seed=2), 1e-9, False),
    ]


@pytest.mark.parametrize("case", _lockstep_cases(), ids=lambda c: c[0])
def test_lockstep_ascent_matches_per_restart_loop(case):
    _, rho, measure, config, tol, staggered = case
    finals = _reference_ascent(rho, measure, config, tol)
    ref_vals = [val for val, _, _, _ in finals]
    ref_iters = tuple(iters for _, _, _, iters in finals)
    assert (len(set(ref_iters)) > 1) == staggered

    # the shared driver under the LE's rules: every restart's end point
    evaluator = _FactorEvaluator(rho, measure)
    shapes = [x.shape for x in finals[0][1]]
    vals, xs, flags, iters = lockstep_search(
        lambda ps: evaluator.averages([phase_fixed_qr(x)[0] for x in ps]), shapes,
        config.seed, config.restarts, config.max_iters, accept=tol / 10,
        reset=tol, shrink=0.5, patience=8 * len(shapes), stop=1e-5)
    for i, (ref_val, ref_params, ref_flag, ref_iter) in enumerate(finals):
        assert vals[i] == ref_val
        for x, ref_x in zip(xs, ref_params):
            np.testing.assert_array_equal(x[i], ref_x)
        assert (flags[i], iters[i]) == (ref_flag, ref_iter)
    if evaluator.exact_gradient:
        return

    # without an exact gradient optimize_le runs this search alone, at tol
    # 1e-9, and returns the first best restart
    assert tol == 1e-9
    res = optimize_le(rho, measure, config)
    winner = int(np.argmax(ref_vals))
    assert res.restart_values == tuple(ref_vals)
    assert res.restart_iterations == ref_iters
    assert res.winner == winner and res.converged == finals[winner][2]
    assert res.iterations == sum(ref_iters)
    assert res.evaluations == config.restarts + sum(ref_iters)
    want = _povm_from_isometries(rho.dims.z_labels,
                                 [phase_fixed_qr(x)[0] for x in finals[winner][1]])
    for out, ref_out in zip(res.povm.factors, want.factors):
        for f, ref_f in zip(out, ref_out):
            np.testing.assert_array_equal(f, ref_f)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [dict(restarts=0), dict(restarts=-1),
                                        dict(max_iters=-1)])
    def test_bad_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LEConfig(**kwargs)

    def test_zero_iterations_allowed(self):
        res = optimize_le(ghz_state(3).to_density(), entropy_measure(),
                          LEConfig(restarts=2, max_iters=0))
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

    def average(xs):
        return evaluator.average([phase_fixed_qr(x)[0] for x in xs])

    value, grads = evaluator.average_and_gradient(params)
    assert value == pytest.approx(average(params), abs=1e-12)
    for j, x in enumerate(params):
        def partial(y, j=j):
            return average(params[:j] + [y] + params[j + 1:])

        np.testing.assert_allclose(grads[j], central_gradient(partial, x), atol=1e-8, rtol=0)


class TestPolish:
    """The one descent every restart runs: L-BFGS on the exact gradient, or
    the random search where the input has none."""

    @pytest.mark.parametrize("measure", MEASURES[1:], ids=lambda m: m.kind)
    def test_reaches_concurrence_of_assistance(self, measure):
        # one helper on a pure state: the LE is the concurrence of assistance
        # of rho_AB = M M^dag, the sum of the Takagi values of M^T (sy ⊗ sy) M;
        # optimize_le returns it in closed form, and the search reaches it
        for i, rng in enumerate(spawn_rngs(2025, 20)):
            d_z = 2 + i % 2
            dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", d_z, "Z"))
            rho = random_pure(dims, rng).to_density()
            coa = concurrence_of_assistance(partial_trace(rho, ("A", "B")))
            config = LEConfig(restarts=2, max_iters=100, seed=i)
            assert optimize_le(rho, measure, config).value == pytest.approx(coa, abs=1e-12)
            res = _search(rho, _FactorEvaluator(rho, measure), config)
            assert coa - 1e-6 <= res.value <= coa + 1e-12

    # the search itself, also where optimize_le takes the closed form (w
    # concurrence, pure 2x2x3 G)
    DESCENT_CASES = [
        ("ghz entropy", lambda: ghz_state(3).to_density(), entropy_measure()),
        ("w concurrence", lambda: w_state(3).to_density(), concurrence_measure()),
        ("pure 2x2x3 G", lambda: random_pure(DimSpec.make(
            ("A", 2, "A"), ("B", 2, "B"), ("C", 3, "Z")), np.random.default_rng(4)).to_density(),
         gconcurrence_measure()),
        ("rank-2 2x2x2x2 concurrence", lambda: random_density(DimSpec.make(
            ("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"), ("D", 2, "Z")),
            np.random.default_rng(5), rank=2), concurrence_measure()),
        # entropy on a mixed state: no exact gradient, the random search alone
        ("mixed helper entropy", bell_with_idle_helper, entropy_measure()),
    ]

    @pytest.mark.parametrize("case", DESCENT_CASES, ids=lambda c: c[0])
    def test_polish_never_below_ascent(self, case):
        # each restart's descent (L-BFGS or the random search) ends no lower
        # than its seeded start
        _, make, measure = case
        rho = make()
        config = LEConfig(restarts=3, max_iters=60, seed=11)
        res = _search(rho, _FactorEvaluator(rho, measure), config)
        shapes = [(d * d, d) for d in (rho.dims.dim_of(lab) for lab in rho.dims.z_labels)]
        starts = seeded_starts(config.seed, config.restarts, shapes)[1]
        at_start = _FactorEvaluator(rho, measure).averages([phase_fixed_qr(x)[0] for x in starts])
        assert np.all(np.array(res.restart_values) >= at_start - 1e-12)
        assert res.value >= max(at_start) - 1e-12

    @pytest.mark.parametrize("case", [DESCENT_CASES[2], DESCENT_CASES[4]], ids=lambda c: c[0])
    def test_polish_diagnostics(self, case):
        # the one descent's diagnostics: per restart, the winner, and the
        # evaluations (the random search: one per start and per iteration)
        _, make, measure = case
        rho = make()
        config = LEConfig(restarts=3, max_iters=60, seed=11)
        res = _search(rho, _FactorEvaluator(rho, measure), config)
        exact = _FactorEvaluator(rho, measure).exact_gradient
        assert exact == (measure.kind != "entropy")
        assert len(res.restart_values) == len(res.restart_iterations) == config.restarts
        assert res.winner == int(np.argmax(res.restart_values))
        assert res.value == pytest.approx(res.restart_values[res.winner], abs=1e-12)
        assert res.iterations == sum(res.restart_iterations)
        if exact:
            assert res.evaluations >= config.restarts + res.iterations
            assert max(res.restart_iterations) <= config.max_iters
        else:
            assert res.evaluations == config.restarts + res.iterations
        payload = res.to_dict("m")
        assert (payload["iterations"], payload["evaluations"], payload["winner"],
                payload["converged"]) == (res.iterations, res.evaluations, res.winner,
                                          res.converged)

    def test_converged_when_a_restart_at_the_best_value_stopped_on_its_test(self, monkeypatch):
        # criterion 2's locked state at seed 7: all 64 restarts end within
        # 1e-12 of 1.9713346288184743 (within 4.3e-15 of each other), three
        # of them on "line search", the others, the winner (restart 35)
        # among them, on gtol or ftol
        import entloc.localize as localize

        runs, descend = [], localize.lockstep_lbfgs

        def spy(*args, **kwargs):
            runs.append(descend(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(localize, "lockstep_lbfgs", spy)
        res = optimize_le(build_locked_state().to_density(), entropy_measure(),
                          LEConfig(restarts=64, seed=7))
        stops = runs[0][5]
        assert res.winner == 35
        assert stops[res.winner] in ("gtol", "ftol")
        assert "line search" in stops
        assert res.value == pytest.approx(1.9713346288184743, abs=1e-12)
        assert np.ptp(res.restart_values) <= 1e-12
        assert res.converged

    def test_converged_at_the_rounding_floor(self):
        # pure 2 x 2 x 2 states under G: a restart at the top, whose next
        # search predicts a decrease below the rounding of f, stops on ftol
        # rather than on a line search that cannot resolve one, so every
        # result reports converged (a stall on states 0 and 9 read False);
        # optimize_le takes the closed form here, so the search is run itself
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
        for i, rng in enumerate(spawn_rngs(17, 12)):
            rho = random_pure(dims, rng).to_density()
            res = _search(rho, _FactorEvaluator(rho, gconcurrence_measure()),
                          LEConfig(restarts=2, max_iters=100, seed=i))
            assert res.converged, i


def _qubit_pair(*helpers):
    return DimSpec.make(("A", 2, "A"), ("B", 2, "B"),
                        *[(f"Z{j}", d, "Z") for j, d in enumerate(helpers)])


def _product_state(d_z, rng) -> PureState:
    vec = np.ones(1, dtype=complex)
    for d in (2, 2, d_z):
        vec = np.kron(vec, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return PureState(vec / np.linalg.norm(vec), _qubit_pair(d_z))


# (name, state, root, closed form): optimize_le takes the concurrence of
# assistance on a pure state with one helper and a 2 x 2 cut, under the
# concurrence or G, and searches everywhere else
LE_ROUTES = [
    ("pure z2 concurrence", random_pure(_qubit_pair(2), np.random.default_rng(80)).to_density(),
     concurrence_measure(), True),
    ("pure z3 G", random_pure(_qubit_pair(3), np.random.default_rng(81)).to_density(),
     gconcurrence_measure(), True),
    ("pure z5 concurrence", random_pure(_qubit_pair(5), np.random.default_rng(82)).to_density(),
     concurrence_measure(), True),
    ("product z3 G", _product_state(3, np.random.default_rng(83)).to_density(),
     gconcurrence_measure(), True),
    ("w concurrence", w_state(3).to_density(), concurrence_measure(), True),
    ("pure z2 entropy", random_pure(_qubit_pair(2), np.random.default_rng(84)).to_density(),
     entropy_measure(), False),
    ("pure 3x3 G", random_pure(DimSpec.make(("A", 3, "A"), ("B", 3, "B"), ("C", 2, "Z")),
                               np.random.default_rng(85)).to_density(),
     gconcurrence_measure(), False),
    ("pure 2x3 G", random_pure(DimSpec.make(("A", 2, "A"), ("B", 3, "B"), ("C", 2, "Z")),
                               np.random.default_rng(86)).to_density(),
     gconcurrence_measure(), False),
    ("rank-2 z2 concurrence", random_density(_qubit_pair(2), np.random.default_rng(87), rank=2),
     concurrence_measure(), False),
    ("pure z22 G", random_pure(_qubit_pair(2, 2), np.random.default_rng(88)).to_density(),
     gconcurrence_measure(), False),
]


class TestLERoute:
    """``_FactorEvaluator.closed_form`` decides, once, whether the LE is the
    concurrence of assistance or the search's."""

    @pytest.mark.parametrize("case", LE_ROUTES, ids=lambda c: c[0])
    def test_each_input_takes_one_route(self, case, monkeypatch):
        import entloc.localize as localize

        _, rho, measure, closed = case
        assert _FactorEvaluator(rho, measure).closed_form == closed
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(localize, "_search", spy("search", localize._search))
        monkeypatch.setattr(localize, "takagi_factorization",
                            spy("takagi", localize.takagi_factorization))
        config = LEConfig(restarts=2, max_iters=20, seed=3)
        res = optimize_le(rho, measure, config)
        assert calls == (["takagi"] if closed else ["search"])
        if not closed:
            assert len(res.restart_values) == config.restarts and res.bound == "lower"
            return
        # one projective measurement of d_Z outcomes, exact, with no restarts
        d_z = rho.dims.dim_of(rho.dims.z_labels[0])
        assert len(res.povm.factors) == len(res.branches) == d_z
        assert (res.bound, res.converged, res.winner) == ("exact", True, None)
        assert res.restart_values == res.restart_iterations == ()
        assert res.iterations == res.evaluations == 0
        assert res.to_dict("m")["bound"] == "exact"
        ab = partial_trace(rho, rho.dims.a_labels + rho.dims.b_labels)
        assert res.value == pytest.approx(concurrence_of_assistance(ab), abs=1e-12)
        assert res.value == pytest.approx(sum(p * v for p, v in res.branches), abs=1e-15)
        # the reported POVM gives the reported value as a fixed POVM
        again = average_root_entanglement(rho, res.povm, measure)
        assert again.value == pytest.approx(res.value, abs=1e-12)

    def test_closed_form_ignores_the_config(self):
        rho = LE_ROUTES[1][1]
        a = optimize_le(rho, gconcurrence_measure(), LEConfig(restarts=1, max_iters=0, seed=1))
        b = optimize_le(rho, gconcurrence_measure(), LEConfig(restarts=9, max_iters=500, seed=2))
        assert (a.value, a.branches, a.seed) == (b.value, b.branches, None)
        for out_a, out_b in zip(a.povm.factors, b.povm.factors):
            np.testing.assert_array_equal(out_a[0], out_b[0])


def _assistance_panel():
    """(state, root) pairs, one helper on a pure state with a 2 x 2 cut: 160
    random states with d_Z = 2-5 (tau has rank at most 4, so d_Z = 5 is
    rank deficient), 20 whose A-B marginal has rank 1 or 2 (tau rank
    deficient at d_Z = 3-5), 10 products (tau = 0), 10 at trace 0.37, GHZ
    and W."""
    roots = (concurrence_measure(), gconcurrence_measure())
    states = []
    for i, rng in enumerate(spawn_rngs(2026, 160)):
        states.append(random_pure(_qubit_pair(2 + i % 4), rng).to_density())
    for i, rng in enumerate(spawn_rngs(2027, 20)):
        d_z, k = 3 + i % 3, 1 + i % 2
        m = ((rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k)))
             @ (rng.standard_normal((k, d_z)) + 1j * rng.standard_normal((k, d_z))))
        states.append(PureState(m.ravel() / np.linalg.norm(m), _qubit_pair(d_z)).to_density())
    for i, rng in enumerate(spawn_rngs(2028, 10)):
        states.append(_product_state(2 + i % 4, rng).to_density())
    for i, rng in enumerate(spawn_rngs(2029, 10)):
        psi = random_pure(_qubit_pair(2 + i % 4), rng)
        states.append(DensityOperator(0.37 * psi.to_density().matrix, psi.dims,
                                      normalized=False))
    states += [ghz_state(3).to_density(), w_state(3).to_density()]
    return [(rho, roots[i % 2]) for i, rho in enumerate(states)]


def test_closed_form_is_the_concurrence_of_assistance(assistance_reference):
    # against Tr sqrt(sqrt(rho) rho~ sqrt(rho)) of the A-B marginal, computed
    # without entloc; the Takagi-basis measurement is complete
    panel = _assistance_panel()
    assert len(panel) >= 200
    worst_value = worst_povm = 0.0
    for rho, measure in panel:
        res = optimize_le(rho, measure)
        ab = partial_trace(rho, rho.dims.a_labels + rho.dims.b_labels)
        want = assistance_reference(ab.matrix)
        d_z = rho.dims.dim_of(rho.dims.z_labels[0])
        total = sum(res.povm.element(k) for k in range(res.povm.n_outcomes))
        assert res.bound == "exact" and res.povm.n_outcomes == d_z
        worst_value = max(worst_value, abs(res.value - want),
                          abs(concurrence_of_assistance(ab) - want))
        worst_povm = max(worst_povm, float(np.max(np.abs(total - np.eye(d_z)))))
    assert worst_value <= 1e-12
    assert worst_povm <= 1e-12


def test_ascent_transforms_only_the_moved_party(monkeypatch):
    # two helpers on a mixed state without an exact gradient: one QR per
    # party for the starts, then one per lockstep iteration of the random
    # search (the moved party's proposals), then one per party for the POVM
    import entloc.localize as localize

    calls = []

    def counting_qr(x):
        calls.append(x.shape)
        return phase_fixed_qr(x)

    monkeypatch.setattr(localize, "phase_fixed_qr", counting_qr)
    dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
    rho = with_mixed_helper(random_pure(dims, np.random.default_rng(8)).to_density())
    assert not _FactorEvaluator(rho, entropy_measure()).exact_gradient
    res = optimize_le(rho, entropy_measure(), LEConfig(restarts=3, max_iters=120, seed=5))
    assert len(calls) == 2 + max(res.restart_iterations) + 2


def _independence_cases():
    def dims(*helpers):
        return DimSpec.make(("A", 2, "A"), ("B", 2, "B"),
                            *[(f"Z{j}", d, "Z") for j, d in enumerate(helpers)])

    return [
        ("pure z23 G", random_pure(dims(2, 3), np.random.default_rng(40)).to_density(),
         gconcurrence_measure()),
        ("rank-2 z2 concurrence", random_density(dims(2), np.random.default_rng(41), rank=2),
         concurrence_measure()),
        ("rank-3 z22 G", random_density(dims(2, 2), np.random.default_rng(42), rank=3),
         gconcurrence_measure()),
    ]


@pytest.mark.parametrize("case", _independence_cases(), ids=lambda c: c[0])
def test_le_restart_does_not_depend_on_the_others(case):
    # restart i starts from child i of the seed and descends as if alone, so
    # fewer restarts reproduce the first ones bit for bit
    _, rho, measure = case
    assert _FactorEvaluator(rho, measure).exact_gradient
    two = optimize_le(rho, measure, LEConfig(restarts=2, seed=4))
    five = optimize_le(rho, measure, LEConfig(restarts=5, seed=4))
    assert two.restart_values == five.restart_values[:2]
    assert two.restart_iterations == five.restart_iterations[:2]
    for res in (two, five):
        assert res.value == pytest.approx(res.restart_values[res.winner], abs=1e-12)
        assert res.iterations == sum(res.restart_iterations)
        assert res.evaluations > res.iterations


@pytest.mark.parametrize("rank,measure", [(1, entropy_measure()), (2, gconcurrence_measure())],
                         ids=["pure-entropy", "rank2-G"])
def test_batched_gradient_matches_each_row(rank, measure):
    # one pass over a stack of restarts gives each row's value and gradient
    dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"), ("D", 3, "Z"))
    rng = np.random.default_rng(50 + rank)
    evaluator = _FactorEvaluator(random_density(dims, rng, rank=rank), measure)
    params = [rng.standard_normal((4, k, d)) + 1j * rng.standard_normal((4, k, d))
              for k, d in ((3, 2), (4, 3))]
    values, grads = evaluator.average_and_gradient(params)
    assert values.shape == (4,)
    for i in range(4):
        value, row_grads = evaluator.average_and_gradient([x[i] for x in params])
        assert values[i] == pytest.approx(value, abs=1e-14)
        for g, row_g in zip(grads, row_grads):
            np.testing.assert_allclose(g[i], row_g, atol=1e-13, rtol=0)


class TestBoundLabel:
    """An average is a lower bound unless a live branch took a roof solve."""

    def test_mixed_qutrit_branches_are_estimates(self):
        from entloc import RoofConfig

        dims = DimSpec.make(("A", 3, "A"), ("B", 3, "B"), ("C", 2, "Z"))
        rho = random_density(dims, spawn_rngs(5, 2)[0], rank=2)
        measure = gconcurrence_measure(RoofConfig(restarts=2))
        res = average_root_entanglement(rho, ProductPOVM.single_party("C", (P0, P1)), measure)
        assert res.bound == "estimate"
        assert res.to_dict("gconc")["bound"] == "estimate"

    def test_pure_state_is_a_lower_bound(self):
        dims = DimSpec.make(("A", 3, "A"), ("B", 3, "B"), ("C", 2, "Z"))
        rho = random_pure(dims, np.random.default_rng(5)).to_density()
        res = average_root_entanglement(rho, ProductPOVM.single_party("C", (P0, P1)),
                                        gconcurrence_measure())
        assert res.bound == "lower"
        assert optimize_le(rho, gconcurrence_measure(),
                           LEConfig(restarts=2, max_iters=20)).to_dict()["bound"] == "lower"

    def test_mixed_two_qubit_branches_are_closed_form(self):
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
        rho = random_density(dims, np.random.default_rng(6), rank=3)
        res = optimize_le(rho, gconcurrence_measure(), LEConfig(restarts=2, max_iters=20))
        assert res.bound == "lower"


# ---------------------------------------------------------------------------
# a pure input is its own one-column factor

PURE_INPUTS = [
    ("2x2x2 G closed form", _qubit_pair(2), gconcurrence_measure()),
    ("2x2x3 G closed form", _qubit_pair(3), gconcurrence_measure()),
    ("2x2x2 entropy", _qubit_pair(2), entropy_measure()),
    ("2x2x3 entropy", _qubit_pair(3), entropy_measure()),
    ("2x2x2x2 G", _qubit_pair(2, 2), gconcurrence_measure()),
    ("2x2x2x2 entropy", _qubit_pair(2, 2), entropy_measure()),
]
# a short budget: on a flat landscape (entropy, a qutrit helper) restarts far
# from their stop amplify the two inputs' rounding past 1e-12
PURE_BUDGET = LEConfig(restarts=2, max_iters=20, seed=4)


class TestPureInput:
    """Every LE entry point takes a ``PureState`` as its own one-column
    factor and agrees with its ``to_density()`` path."""

    @pytest.mark.parametrize("seed,case", list(enumerate(PURE_INPUTS)),
                             ids=[c[0] for c in PURE_INPUTS])
    def test_matches_the_density_path(self, seed, case):
        name, dims, measure = case
        rng = np.random.default_rng(600 + seed)
        psi = random_pure(dims, rng)
        rho = psi.to_density()
        a, b = optimize_le(psi, measure, PURE_BUDGET), optimize_le(rho, measure, PURE_BUDGET)
        assert a.bound == b.bound == ("exact" if "closed" in name else "lower")
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=0)
        fixed = [average_root_entanglement(state, b.povm, measure) for state in (psi, rho)]
        assert fixed[0].bound == fixed[1].bound
        assert fixed[0].value == pytest.approx(fixed[1].value, rel=1e-12, abs=0)
        np.testing.assert_allclose(from_state(psi).reconstruct().matrix,
                                   from_state(rho).reconstruct().matrix, rtol=0, atol=1e-12)
        ab = dims.a_labels + dims.b_labels
        assert measure.density(psi, (ab[:1], ab[1:] + dims.z_labels)) == pytest.approx(
            measure.density(rho, (ab[:1], ab[1:] + dims.z_labels)), rel=1e-12, abs=0)
        inst = Instrument("A", tuple(tuple(ms) for ms in random_instrument(2, 2, [1, 2], rng)))
        for (q_a, post_a), (q_b, post_b) in zip(apply_instrument(psi, inst),
                                                apply_instrument(rho, inst)):
            assert q_a == pytest.approx(q_b, rel=1e-12, abs=0)
            np.testing.assert_allclose(post_a.matrix, post_b.matrix, rtol=0, atol=1e-12)

    def test_locked_state_and_its_protocol(self):
        psi = build_locked_state()
        rho = psi.to_density()
        for measure in (entropy_measure(), gconcurrence_measure()):
            a, b = (evaluate_protocol(state, locked_state_protocol(), measure)
                    for state in (psi, rho))
            assert a.bound == b.bound
            assert a.average == pytest.approx(b.average, rel=1e-12, abs=0)
            for (p_a, v_a, path_a), (p_b, v_b, path_b) in zip(a.leaves, b.leaves, strict=True):
                assert path_a == path_b
                assert (p_a, v_a) == pytest.approx((p_b, v_b), rel=1e-12, abs=0)
        a, b = (optimize_le(state, entropy_measure(), PURE_BUDGET) for state in (psi, rho))
        assert a.bound == b.bound == "lower"
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# one stacked isometry pass per round


def _per_party_average_and_gradient(evaluator, params):
    """``average_and_gradient`` one party at a time: a Gram-Cholesky QR and
    its backward per party, each party's gradient of the outcome vectors by
    its own einsum."""
    import string

    qrs = [gram_cholesky_qr(x) for x in params]
    isos = [q for q, _ in qrs]
    w = _kron(isos)
    _, values, g_f = evaluator.kernel(evaluator.jam.branch_factors(w.reshape(-1, w.shape[-1])))
    g_w = g_f.reshape(w.shape[:-1] + (-1,)).conj() @ evaluator.jam.factor.reshape(
        evaluator.jam.d_z, -1).T
    n = len(isos)
    ks, zs = string.ascii_lowercase[:n], string.ascii_uppercase[:n]
    g = g_w.reshape(g_w.shape[:-2] + tuple(v.shape[-2] for v in isos)
                    + tuple(v.shape[-1] for v in isos))
    grads = []
    for j in range(n):
        others = [i for i in range(n) if i != j]
        spec = ("..." + ks + zs + "".join(f",...{ks[i]}{zs[i]}" for i in others)
                + f"->...{ks[j]}{zs[j]}")
        grads.append(np.einsum(spec, g, *[isos[i].conj() for i in others]))
    return values.reshape(w.shape[:-1]).sum(axis=-1), [
        gram_cholesky_qr_backward(q, l_inv, gj) for (q, l_inv), gj in zip(qrs, grads)]


@pytest.mark.parametrize("helpers", [(2, 2), (2, 2, 2), (3, 3), (2, 3)],
                         ids=lambda h: "z" + "".join(map(str, h)))
@pytest.mark.parametrize("rank,measure", [(1, gconcurrence_measure()), (1, entropy_measure()),
                                          (2, concurrence_measure())],
                         ids=["pure-G", "pure-entropy", "rank2-concurrence"])
def test_stacked_pass_matches_each_party(helpers, rank, measure):
    rng = np.random.default_rng(70 + len(helpers) + rank)
    evaluator = _FactorEvaluator(random_density(_qubit_pair(*helpers), rng, rank=rank), measure)
    params = [rng.standard_normal((3, d * d, d)) + 1j * rng.standard_normal((3, d * d, d))
              for d in helpers]
    values, grads = evaluator.average_and_gradient(params)
    want_values, want_grads = _per_party_average_and_gradient(evaluator, params)
    np.testing.assert_allclose(values, want_values, rtol=1e-14, atol=0)
    for g, want in zip(grads, want_grads, strict=True):
        np.testing.assert_allclose(g, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


def test_three_helper_gradient_matches_central_differences(central_gradient):
    rng = np.random.default_rng(77)
    evaluator = _FactorEvaluator(random_pure(_qubit_pair(2, 2, 2), rng), gconcurrence_measure())
    params = [rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)) for _ in range(3)]

    def average(xs):
        return evaluator.average([phase_fixed_qr(x)[0] for x in xs])

    value, grads = evaluator.average_and_gradient(params)
    assert value == pytest.approx(average(params), abs=1e-12)
    for j, x in enumerate(params):
        np.testing.assert_allclose(
            grads[j], central_gradient(lambda y, j=j: average(params[:j] + [y] + params[j + 1:]), x),
            atol=1e-8, rtol=0)


# ---------------------------------------------------------------------------
# one Jamiolkowski map per LE


class TestOneMap:
    """``optimize_le`` builds the state's map once and scores its winner from
    the search's own branches."""

    @pytest.mark.parametrize("case", [c for c in LE_ROUTES if c[0] in (
        "pure z2 concurrence", "pure z2 entropy", "pure z22 G", "rank-2 z2 concurrence")],
                             ids=lambda c: c[0])
    def test_one_map_and_no_element_eigh(self, case, monkeypatch):
        import sys

        import entloc.localize as localize

        _, rho, measure, _ = case
        maps, eigh_callers = [], []
        build, eigh = localize.from_state, np.linalg.eigh

        def spy_map(*args, **kwargs):
            maps.append(args)
            return build(*args, **kwargs)

        def spy_eigh(*args, **kwargs):
            eigh_callers.append(sys._getframe(1).f_code.co_name)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(localize, "from_state", spy_map)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        res = optimize_le(rho, measure, LEConfig(restarts=2, max_iters=20, seed=5))
        monkeypatch.undo()
        assert len(maps) == 1
        assert "povm_branch_factors" not in eigh_callers
        again = average_root_entanglement(rho, res.povm, measure)
        # a fixed POVM's average is a lower bound; the closed form's is exact
        assert again.bound == "lower" and res.bound in ("lower", "exact")
        assert res.value == pytest.approx(again.value, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(res.branches, again.branches, rtol=1e-12, atol=1e-15)
