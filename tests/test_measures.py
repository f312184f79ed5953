import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entloc import (
    checks,
    measures,
    roof,
    DimSpec,
    DensityOperator,
    DimensionError,
    Instrument,
    PureState,
    RoofConfig,
    RootMeasure,
    concurrence_measure,
    concurrence_of_assistance,
    entropy_measure,
    entropy_of_entanglement,
    f_factor,
    gconcurrence_measure,
    gconcurrence_mixed,
    gconcurrence_pure,
    wootters_concurrence,
)
from entloc.catalog import bell_state, phi_plus_4_state, phi_plus_vector, werner_state
from entloc.localize import _FactorEvaluator
from entloc.measures import NULL_BRANCH_TOL, determinant_kernel, schmidt_kernel
from entloc.sampling import (
    random_density,
    random_instrument,
    random_pure,
    random_unitary,
    spawn_rngs,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def pair_spec(da, db):
    return DimSpec.make(("A", da, "A"), ("B", db, "B"))


def max_entangled(d):
    return PureState(phi_plus_vector(d), pair_spec(d, d))


class TestEntropy:
    def test_bell(self):
        assert entropy_of_entanglement(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_phi_plus_4(self):
        assert entropy_of_entanglement(phi_plus_4_state()) == pytest.approx(2.0, abs=1e-12)

    def test_skewed(self):
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = np.sqrt(0.9), np.sqrt(0.1)
        psi = PureState(vec, pair_spec(2, 2))
        expected = -0.9 * np.log2(0.9) - 0.1 * np.log2(0.1)
        assert entropy_of_entanglement(psi) == pytest.approx(expected, abs=1e-12)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure(pair_spec(3, 3), rng)
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rotated = PureState(u @ psi.amplitudes, psi.dims)
        assert entropy_of_entanglement(rotated) == pytest.approx(
            entropy_of_entanglement(psi), abs=1e-10
        )


class TestGConcurrencePure:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled(self, d):
        assert gconcurrence_pure(max_entangled(d)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        assert gconcurrence_pure(PureState(vec, pair_spec(2, 2))) == 0.0

    def test_skewed(self):
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = np.sqrt(0.9), np.sqrt(0.1)
        assert gconcurrence_pure(PureState(vec, pair_spec(2, 2))) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_unequal_dimensions_vanish(self):
        rng = np.random.default_rng(17)
        psi = random_pure(pair_spec(3, 2), rng)
        assert gconcurrence_pure(psi) == 0.0

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        psi = random_pure(pair_spec(d, d), rng)
        c = float(rng.uniform(0.1, 3.0))
        scaled = PureState(c * psi.amplitudes, psi.dims, normalized=False)
        assert gconcurrence_pure(scaled) == pytest.approx(
            c * c * gconcurrence_pure(psi), abs=1e-12
        )

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_determinant_multiplicativity(self, seed):
        assert checks.gconcurrence_algebra(1, seed)[1] == []


class TestWootters:
    def test_bell(self):
        assert wootters_concurrence(bell_state().to_density()) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4) / 4, pair_spec(2, 2))
        assert wootters_concurrence(rho) == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.25, 1 / 3, 0.5, 0.7, 0.9, 1.0])
    def test_werner_closed_form(self, p):
        expected = max(0.0, (3 * p - 1) / 2)
        assert wootters_concurrence(werner_state(p)) == pytest.approx(expected, abs=1e-10)

    def test_pure_matches_gconcurrence(self):
        rng = np.random.default_rng(8)
        psi = random_pure(pair_spec(2, 2), rng)
        # eigvals of the nonnormal product matrix carry sqrt-level noise
        assert wootters_concurrence(psi.to_density()) == pytest.approx(
            gconcurrence_pure(psi), abs=1e-7
        )

    def test_wrong_dimensions(self):
        rng = np.random.default_rng(9)
        psi = random_pure(pair_spec(3, 3), rng)
        with pytest.raises(DimensionError):
            wootters_concurrence(psi.to_density())


class TestRootMeasure:
    def test_roof_branch_is_gconcurrence_mixed(self):
        # on a mixed state across a cut larger than 2 x 2, density hands the
        # roof the eigen-factor gconcurrence_mixed takes, so the two agree bit
        # for bit
        config = RoofConfig(restarts=4)
        for rng in spawn_rngs(31, 3):
            rho = random_density(pair_spec(3, 3), rng, rank=2)
            assert gconcurrence_measure(config).density(rho) == \
                gconcurrence_mixed(rho, config=config)[0]

    def test_roof_takes_one_eigendecomposition(self, monkeypatch):
        # density hands the roof the eigen-factor it already holds, so the
        # state is eigendecomposed once, and the value is gconcurrence_mixed's
        rho = random_density(pair_spec(3, 3), np.random.default_rng(4), rank=2)
        config = RoofConfig(restarts=2)
        shapes, eigh = [], np.linalg.eigh

        def spy(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", spy)
            value = gconcurrence_measure(config).density(rho)
        assert shapes == [(9, 9)]
        assert value == gconcurrence_mixed(rho, config=config)[0]

    def test_roofed_branches_descend_on_their_factors(self, monkeypatch):
        # each roofed branch takes the roof on its factor from the SVD: no
        # density operator is built and nothing is eigendecomposed
        rng = np.random.default_rng(8)
        factors = rng.standard_normal((3, 9, 3)) + 1j * rng.standard_normal((3, 9, 3))

        def refuse(*args, **kwargs):
            raise AssertionError("called")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", refuse)
            patch.setattr(DensityOperator, "__post_init__", refuse)
            p, values, roofed = gconcurrence_measure(RoofConfig(restarts=2)).factor_branches(
                factors, pair_spec(3, 3), (("A",), ("B",)))
        assert roofed.all()
        np.testing.assert_allclose(p, np.sum(np.abs(factors) ** 2, axis=(1, 2)), rtol=1e-14)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_parties_put_in_cut_order(self):
        # parties listed B, A, D, C and scored across the 4 x 4 cut AC | BD
        dims = DimSpec.make(("B", 2, "B"), ("A", 2, "A"), ("D", 2, "B"), ("C", 2, "A"))
        psi = random_pure(dims, np.random.default_rng(12))
        cut = (("A", "C"), ("B", "D"))
        rho = psi.to_density()
        assert entropy_measure().density(rho, cut) == pytest.approx(
            entropy_of_entanglement(psi, cut), abs=1e-12)
        assert gconcurrence_measure().density(rho, cut) == pytest.approx(
            gconcurrence_pure(psi, cut), abs=1e-12)
        # calling the measure scores the vector itself, as density does
        assert entropy_measure()(psi, cut) == entropy_measure().density(psi, cut)

    def test_a_state_vector_is_not_eigendecomposed(self, monkeypatch):
        # calling a measure on a vector scores its one column, as density does
        def refuse(*args, **kwargs):
            raise AssertionError("a state vector was eigendecomposed")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert entropy_measure()(bell_state()) == pytest.approx(1.0, abs=1e-12)
        assert gconcurrence_measure()(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_roof_rule(self):
        measure = gconcurrence_measure()
        mixed, pure = np.array([0.5, 0.5, 0.0]), np.array([1.0, 1e-12, 0.0])
        assert measure.needs_roof(pair_spec(3, 3), None, mixed)
        assert not measure.needs_roof(pair_spec(3, 3), None, pure)
        assert not measure.needs_roof(pair_spec(2, 3), None, mixed)  # zero padding: 0
        assert not measure.needs_roof(pair_spec(2, 2), None, mixed)  # Wootters
        assert not concurrence_measure().needs_roof(pair_spec(3, 3), None, mixed)
        np.testing.assert_array_equal(
            measure.needs_roof(pair_spec(3, 3), None, np.stack([mixed, pure])), [True, False])


# (root, d_left, d_right, factor rank, route): the kernel of ``RootMeasure.kernel``,
# the top singular vector, the roof, or None where the root rejects the cut
ROUTES = [
    ("entropy", 2, 2, 1, "schmidt"), ("entropy", 2, 3, 1, "schmidt"),
    ("entropy", 3, 3, 1, "schmidt"), ("entropy", 2, 2, 2, "top"),
    ("entropy", 2, 3, 2, "top"), ("entropy", 3, 3, 2, "top"),
    ("concurrence", 2, 2, 1, "determinant"), ("concurrence", 2, 2, 2, "takagi"),
    ("concurrence", 2, 3, 1, None), ("concurrence", 2, 3, 2, None),
    ("concurrence", 3, 3, 1, None), ("concurrence", 3, 3, 2, None),
    ("gconcurrence", 2, 2, 1, "determinant"), ("gconcurrence", 2, 2, 2, "takagi"),
    ("gconcurrence", 2, 3, 1, "schmidt"), ("gconcurrence", 2, 3, 2, "top"),
    ("gconcurrence", 3, 3, 1, "determinant"), ("gconcurrence", 3, 3, 2, "roof"),
]


class TestOneRule:
    """``RootMeasure.kernel`` decides, once, which branches have a closed form;
    ``factor_branches`` and the LE evaluator both follow it."""

    @pytest.mark.parametrize("seed,case", list(enumerate(ROUTES)),
                             ids=lambda c: "-".join(map(str, c)) if isinstance(c, tuple) else "")
    def test_each_input_takes_one_route(self, seed, case, monkeypatch):
        kind, dl, dr, rank, route = case
        rng = np.random.default_rng(500 + seed)
        measure = RootMeasure(kind, RoofConfig(restarts=2))
        dims = pair_spec(dl, dr)
        # three random branch factors and a null one; under entropy the second
        # column is 1e-6 of the first, so the branches pass as pure
        factors = (rng.standard_normal((4, dl * dr, rank))
                   + 1j * rng.standard_normal((4, dl * dr, rank)))
        if kind == "entropy" and rank > 1:
            factors[:, :, 1:] *= 1e-6
        factors[3] = 0.0
        state = random_density(DimSpec.make(("A", dl, "A"), ("B", dr, "B"), ("C", 2, "Z")),
                               rng, rank=rank)
        if route is None:
            with pytest.raises(DimensionError):
                measure.factor_branches(factors, dims, (("A",), ("B",)))
            with pytest.raises(DimensionError):
                _FactorEvaluator(state, measure)
            return
        evaluator = _FactorEvaluator(state, measure)
        assert evaluator.r == rank
        assert evaluator.exact_gradient == (route in ("determinant", "schmidt", "takagi"))
        assert evaluator.exact_gradient == (measure.kernel(dl, dr, rank) is not None)

        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(measures, "determinant_kernel",
                            spy("determinant", measures.determinant_kernel))
        monkeypatch.setattr(measures, "schmidt_kernel", spy("schmidt", measures.schmidt_kernel))
        monkeypatch.setattr(measures, "takagi_kernel", spy("takagi", measures.takagi_kernel))
        monkeypatch.setattr(roof, "descend", spy("roof", roof.descend))
        p, values, roofed = measure.factor_branches(factors, dims, (("A",), ("B",)))
        assert calls == {"determinant": ["determinant"], "schmidt": ["schmidt"],
                         "takagi": ["takagi"], "top": [], "roof": ["roof"] * 3}[route]

        assert (p[3], values[3]) == (0.0, 0.0) and np.all(p[:3] > 0)
        spectra = np.linalg.svd(factors, compute_uv=False) ** 2
        np.testing.assert_array_equal(roofed, (p > 0) & measure.needs_roof(dims, None, spectra))
        kernel = measure.kernel(dl, dr, rank)
        if kernel is not None:
            p_k, pv_k, _ = kernel(factors)
            np.testing.assert_array_equal(p[:3], p_k[:3])
            np.testing.assert_array_equal(values[:3], pv_k[:3] / p_k[:3])
            assert p_k[3] < NULL_BRANCH_TOL and pv_k[3] == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_determinant_kernel_is_the_schmidt_kernel(self, d):
        # p v = d |det C|^(2/d) and its gradient 2 |det C|^(2/d) C^-H equal the
        # SVD's p v and U diag(2 p v / (d s)) V^H; a product branch (det C = 0
        # exactly) and a null branch score 0 with gradient 0
        rng = np.random.default_rng(70 + d)
        factors = (rng.standard_normal((6, d * d, 1))
                   + 1j * rng.standard_normal((6, d * d, 1)))
        factors[4] = 0.0
        factors[5] = np.kron(np.eye(d)[0], rng.standard_normal(d) + 1j)[:, None]
        p, pv, grad = determinant_kernel(d, factors)
        p_s, pv_s, grad_s = schmidt_kernel("gconcurrence", d, d, factors)
        np.testing.assert_allclose(p, p_s, rtol=1e-14, atol=0)
        np.testing.assert_allclose(pv[:4], pv_s[:4], rtol=1e-13, atol=0)
        scale = np.max(np.abs(grad_s[:4]), axis=(1, 2))[:, None, None]
        assert np.max(np.abs(grad[:4] - grad_s[:4]) / scale) <= 1e-12
        assert np.all(pv[:4] > 0.01) and p[5] > 0.1
        assert pv[4] == pv[5] == 0.0
        assert not np.any(grad[4:])

    @pytest.mark.parametrize("kind,d,rank", [
        ("entropy", 3, 1), ("concurrence", 2, 2), ("gconcurrence", 2, 3),
        ("gconcurrence", 3, 1), ("gconcurrence", 3, 2)])
    def test_density_is_homogeneous(self, kind, d, rank):
        # p v of the kept trace, not renormalized: density(c rho) = c density(rho).
        # The roof route descends at unit trace and scales back, so it holds
        # this to the rounding of rho's eigen-factor (1.5e-14 c here); on
        # other states the descent can amplify that rounding (up to 8.2e-5
        # relative, tests/test_roof.py)
        rho = random_density(pair_spec(d, d), np.random.default_rng(40 + d + rank), rank=rank)
        measure = RootMeasure(kind, RoofConfig(restarts=4))
        value = measure.density(rho)
        assert value > 0.01
        on_roof = measure.needs_roof(rho.dims, None, rho.eigensystem()[0])
        assert on_roof == (kind == "gconcurrence" and d == 3 and rank == 2)
        for c in (0.5, 2.0):
            scaled = DensityOperator(c * rho.matrix, rho.dims, normalized=False)
            assert measure.density(scaled) == pytest.approx(
                c * value, abs=c * (1e-12 if on_roof else 1e-14))

    @pytest.mark.parametrize("kind,d", [("gconcurrence", 3), ("gconcurrence", 4),
                                        ("gconcurrence", 2), ("concurrence", 2)])
    def test_zero_operator_scores_zero(self, kind, d):
        # its eigen-factor has no columns
        zero = DensityOperator(np.zeros((d * d, d * d)), pair_spec(d, d), normalized=False)
        assert RootMeasure(kind).density(zero) == 0.0

    @pytest.mark.parametrize("tiny", [9e-13, 5e-12, 9e-12])
    def test_one_eigen_cut_on_two_qubits(self, tiny):
        # an eigenvalue below the state's rank cut (1e-11): the roof's closed
        # form, the Wootters closed form and density all drop it, and all
        # take one kernel on one eigen-factor
        for rng in spawn_rngs(7, 200):
            ev = np.append(rng.dirichlet(np.ones(3)) * (1 - tiny), tiny)
            u = random_unitary(4, rng)
            rho = DensityOperator((u * ev) @ u.conj().T, pair_spec(2, 2))
            conc = wootters_concurrence(rho)
            assert concurrence_measure().density(rho) == conc
            assert gconcurrence_measure().density(rho) == conc
            assert gconcurrence_mixed(rho)[0] == conc


class TestConcurrenceOfAssistance:
    """The largest average concurrence over a two-qubit state's pure-state
    decompositions, the sum of the Takagi values of its eigen-factor's tau."""

    def test_matches_reference(self, assistance_reference):
        # ranks 1-4, at trace 1 and 0.37 (homogeneous of degree one)
        for i, rng in enumerate(spawn_rngs(12, 40)):
            rho = random_density(pair_spec(2, 2), rng, rank=1 + i % 4)
            want = assistance_reference(rho.matrix)
            assert concurrence_of_assistance(rho) == pytest.approx(want, abs=1e-12)
            scaled = DensityOperator(0.37 * rho.matrix, rho.dims, normalized=False)
            assert concurrence_of_assistance(scaled) == pytest.approx(0.37 * want, abs=1e-12)
            swapped = concurrence_of_assistance(rho, (("B",), ("A",)))
            assert swapped == pytest.approx(want, abs=1e-12)
            assert concurrence_of_assistance(rho) >= wootters_concurrence(rho) - 1e-12

    def test_known_values(self):
        assert concurrence_of_assistance(bell_state().to_density()) == pytest.approx(1.0, abs=1e-14)
        # I/4 is an equal mixture of four Bell states
        mixed = DensityOperator(np.eye(4) / 4, pair_spec(2, 2))
        assert concurrence_of_assistance(mixed) == pytest.approx(1.0, abs=1e-14)
        zero = DensityOperator(np.zeros((4, 4)), pair_spec(2, 2), normalized=False)
        assert concurrence_of_assistance(zero) == 0.0

    def test_qubit_pair_only(self):
        with pytest.raises(DimensionError):
            concurrence_of_assistance(random_density(pair_spec(2, 3), np.random.default_rng(1)))


class TestFFactor:
    def test_identity(self):
        assert f_factor([np.eye(3)]) == pytest.approx(1.0, abs=1e-14)

    def test_scaled_unitary(self):
        u = random_unitary(4, np.random.default_rng(2))
        assert f_factor([0.3 * u]) == pytest.approx(0.09, abs=1e-12)

    def test_flip_coin_instrument(self):
        p = 0.37
        fs = [f_factor([np.sqrt(p) * np.eye(3)]), f_factor([np.sqrt(1 - p) * np.eye(3)])]
        assert fs[0] == pytest.approx(p, abs=1e-12)
        assert fs[1] == pytest.approx(1 - p, abs=1e-12)
        assert sum(fs) == pytest.approx(1.0, abs=1e-12)

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionError):
            f_factor([np.ones((2, 3))])

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_trace_preserving_sum_below_one(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        n_out = int(rng.integers(1, 5))
        kraus = [int(rng.integers(1, 4)) for _ in range(n_out)]
        inst = random_instrument(d, n_out, kraus, rng)
        total = sum(f_factor(ms, d) for ms in inst)
        assert total <= 1 + 1e-10


class TestInstrument:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            Instrument("A", ((np.eye(2) * 0.5,),))

    def test_projective(self):
        inst = Instrument.projective("A", (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert len(inst.outcomes) == 2
        assert inst.f_factors() == [0.0, 0.0]

    def test_unequal_kraus_sizes_rejected(self):
        with pytest.raises(DimensionError):
            Instrument("A", ((np.eye(2),), (np.eye(3),)))


class TestKrausBound:
    """One-outcome contraction: G(E_j(rho))/norm <= f(E_j) G(rho)."""

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_pure_state_single_kraus(self, seed):
        # rank-1 outcome on a pure state keeps the branch pure, so G is exact
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        psi = random_pure(pair_spec(d, d), rng)
        inst = random_instrument(d, 2, 1, rng)
        m = inst[0][0]
        branch = PureState(np.kron(m, np.eye(d)) @ psi.amplitudes, psi.dims,
                           normalized=False)
        lhs = gconcurrence_pure(branch)  # homogeneous: equals q * G(branch normalized)
        rhs = f_factor([m], d) * gconcurrence_pure(psi)
        assert lhs <= rhs + 1e-10
