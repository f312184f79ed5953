import dataclasses

import numpy as np
import pytest

from entloc import (
    checks,
    DensityOperator,
    DimSpec,
    DimensionError,
    Instrument,
    LEConfig,
    ProductPOVM,
    ProtocolNode,
    apply_instrument,
    average_root_entanglement,
    concurrence_measure,
    entropy_measure,
    evaluate_protocol,
    gconcurrence_measure,
    monotonicity_gap,
    locked_state_protocol,
    partial_trace,
    wootters_concurrence,
)
from entloc.catalog import (
    LockedStateSpec,
    bell_state,
    build_locked_state,
    ghz_state,
    phi_plus_vector,
)
from entloc.states import embed_operator
from entloc.sampling import random_density, random_instrument, random_pure, random_unitary

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_empty_protocol_scores_reduced_state():
    helper = random_density(DimSpec.make(("C", 2, "Z")), np.random.default_rng(1))
    bell = bell_state().to_density()
    rho = DensityOperator(np.kron(bell.matrix, helper.matrix), bell.dims.concat(helper.dims))
    res = evaluate_protocol(rho, None, entropy_measure())
    assert res.average == pytest.approx(1.0, abs=1e-10)
    assert len(res.leaves) == 1


def test_ghz_x_measurement_matches_povm_average():
    rho = ghz_state(3).to_density()
    # X basis = Hadamard then computational projectors
    tree = ProtocolNode(
        "q2", Instrument.unitary("q2", H),
        (ProtocolNode("q2", Instrument.projective("q2", (P0, P1)), (None, None)),),
    )
    res = evaluate_protocol(rho, tree, entropy_measure())
    assert res.average == pytest.approx(1.0, abs=1e-10)
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    povm_res = average_root_entanglement(
        rho, ProductPOVM.single_party("q2", (plus, minus)), entropy_measure()
    )
    assert res.average == pytest.approx(povm_res.value, abs=1e-10)


def test_probability_conservation():
    rho = build_locked_state().to_density()
    res = evaluate_protocol(rho, locked_state_protocol(), entropy_measure())
    assert sum(p for p, _, _ in res.leaves) == pytest.approx(1.0, abs=1e-10)
    assert res.average == pytest.approx(
        sum(p * v for p, v, _ in res.leaves), abs=1e-12
    )


class TestBoundLabel:
    """A protocol's average is a lower bound unless a leaf took a roof solve."""

    def test_mixed_qutrit_leaf_is_an_estimate(self):
        from entloc import RoofConfig

        dims = DimSpec.make(("A", 3, "A"), ("B", 3, "B"), ("C", 2, "Z"))
        rho = random_density(dims, np.random.default_rng(3), rank=2)
        tree = ProtocolNode("C", Instrument.projective("C", (P0, P1)), (None, None))
        res = evaluate_protocol(rho, tree, gconcurrence_measure(RoofConfig(restarts=2)))
        assert res.bound == "estimate"
        assert res.to_dict("gconc")["bound"] == "estimate"

    def test_pure_leaves_are_a_lower_bound(self):
        res = evaluate_protocol(build_locked_state().to_density(), locked_state_protocol(),
                                gconcurrence_measure())
        assert res.bound == "lower"
        assert res.to_dict("gconc")["bound"] == "lower"


class TestLockedStateProtocol:
    def test_entropy_average_is_two(self):
        res = evaluate_protocol(
            build_locked_state().to_density(), locked_state_protocol(), entropy_measure()
        )
        assert res.average == pytest.approx(2.0, abs=1e-9)
        for p, v, _ in res.leaves:
            assert p == pytest.approx(0.25, abs=1e-10)
            assert v == pytest.approx(2.0, abs=1e-9)

    def test_leaf_states_are_twisted_max_entangled(self):
        spec = LockedStateSpec()
        res = evaluate_protocol(
            build_locked_state(spec).to_density(), locked_state_protocol(spec),
            entropy_measure(),
        )
        phi = phi_plus_vector(4)
        for (p, v, path), sigma in zip(res.leaves, res.leaf_states):
            x, y = path[0], path[-1]
            ket_x = np.zeros(2, dtype=complex)
            ket_x[x] = 1.0
            expected = np.kron(ket_x, np.kron(np.eye(4), spec.u_xy(x, y)) @ phi)
            fidelity = abs(np.vdot(expected, sigma.matrix @ expected))
            assert fidelity >= 1 - 1e-10

    def test_average_independent_of_unitaries(self):
        rng = np.random.default_rng(77)
        spec = LockedStateSpec(
            v=(random_unitary(2, rng), random_unitary(2, rng)),
            u=tuple(random_unitary(4, rng) for _ in range(4)),
        )
        res = evaluate_protocol(
            build_locked_state(spec).to_density(), locked_state_protocol(spec),
            entropy_measure(),
        )
        assert res.average == pytest.approx(2.0, abs=1e-9)

    def test_gconcurrence_root_vanishes_on_8x4(self):
        res = evaluate_protocol(
            build_locked_state().to_density(), locked_state_protocol(),
            gconcurrence_measure(),
        )
        assert res.average == 0.0


class TestMonotonicityGap:
    def test_unitary_instrument_zero_gap(self):
        rng = np.random.default_rng(5)
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
        rho = random_pure(dims, rng).to_density()
        inst = Instrument.unitary("A", random_unitary(2, rng))
        from entloc.sampling import random_rank1_povm

        povm = ProductPOVM.single_party("C", random_rank1_povm(2, 3, rng))
        gap = monotonicity_gap(rho, inst, entropy_measure(), povm=povm)
        assert abs(gap) <= 1e-9
        # two independent ascents agree only to optimizer precision
        gap_opt = monotonicity_gap(rho, inst, entropy_measure(),
                                   config=LEConfig(restarts=4, max_iters=150, seed=9))
        assert abs(gap_opt) <= 1e-6

    def test_locked_state_entropy_gap_positive(self):
        rho = build_locked_state().to_density()
        inst = Instrument.projective("a", (P0, P1))
        gap = monotonicity_gap(rho, inst, entropy_measure(),
                               config=LEConfig(restarts=8, max_iters=250, seed=1))
        assert gap > 0.01

    @pytest.mark.parametrize("seed", range(5))
    def test_gconcurrence_gap_nonpositive(self, seed):
        assert checks.gconcurrence_monotonicity(1, seed)[1] == []

    @pytest.mark.parametrize("n_kraus", [1, 2], ids=["pure posts", "mixed posts"])
    def test_vector_input_matches_dense(self, n_kraus):
        # a state vector is taken as its one-column factor; its gap is its
        # dense operator's, by the LE closed form (one Kraus operator per
        # outcome) and by a short search (two: mixed post-measurement states)
        rng = np.random.default_rng(60 + n_kraus)
        psi = random_pure(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng)
        inst = Instrument("A", random_instrument(2, 2, n_kraus, rng))
        config = LEConfig(restarts=2, max_iters=20, seed=5)
        gap = monotonicity_gap(psi, inst, gconcurrence_measure(), config=config)
        assert gap == pytest.approx(
            monotonicity_gap(psi.to_density(), inst, gconcurrence_measure(), config=config),
            rel=0, abs=1e-12)

    def test_helper_party_rejected(self):
        rho = build_locked_state().to_density()
        with pytest.raises(DimensionError):
            monotonicity_gap(rho, Instrument.projective("C", (P0, P1)),
                             entropy_measure())


class TestProtocolCovariance:
    """``checks.protocol_covariance``: a tree's average against the sum over
    its A/B paths of prod |det M|^(2/d) times the helper-branch p v."""

    @pytest.mark.parametrize("seed", range(3))
    def test_holds_on_random_trees(self, seed, monkeypatch):
        bounds, evaluate = [], checks.evaluate_protocol

        def spy(*args):
            result = evaluate(*args)
            bounds.append(result.bound)
            return result

        monkeypatch.setattr(checks, "evaluate_protocol", spy)
        worst, failures = checks.protocol_covariance(9, seed)
        assert failures == []
        assert set(worst) == {"pure_concurrence", "pure_gconcurrence", "mixed_concurrence"}
        assert all(v <= 1e-12 for v in worst.values())
        # every leaf has a closed form: no tree took the roof
        assert bounds == ["lower"] * 9

    def test_gate_catches_a_wrong_average(self, monkeypatch):
        evaluate = checks.evaluate_protocol

        def off(*args):
            result = evaluate(*args)
            return dataclasses.replace(result, average=result.average + 1e-9)

        monkeypatch.setattr(checks, "evaluate_protocol", off)
        assert len(checks.protocol_covariance(6, 0)[1]) == 6


def test_instrument_dimension_checked():
    rho = build_locked_state().to_density()
    bad = ProtocolNode("A", Instrument.projective("A", (P0, P1)), (None, None))
    with pytest.raises(DimensionError):
        evaluate_protocol(rho, bad, entropy_measure())
    with pytest.raises(DimensionError):
        apply_instrument(rho, bad.instrument)
    with pytest.raises(DimensionError):
        apply_instrument(rho, Instrument.projective("Q", (P0, P1)))


def test_instrument_on_later_party_matches_embedded_operator():
    # B is not the first party and the local dimensions differ
    dims = DimSpec.make(("A", 2, "A"), ("B", 3, "B"), ("C", 2, "Z"))
    rng = np.random.default_rng(7)
    rho = random_density(dims, rng, rank=3)
    inst = Instrument("B", random_instrument(3, 2, [1, 2], rng))
    for (q, post), kraus in zip(apply_instrument(rho, inst), inst.outcomes):
        ref = sum(big @ rho.matrix @ big.conj().T
                  for big in (embed_operator(m, ("B",), dims) for m in kraus))
        assert q == pytest.approx(np.trace(ref).real, abs=1e-14)
        np.testing.assert_allclose(q * post.matrix, ref, atol=1e-14)


class TestFactorPath:
    """The one-sided map of the branch factor against the dense two-sided
    Kraus sum, built with ``embed_operator`` and ``partial_trace``."""

    # the helper comes first, the instrument acts on B, the second party, and
    # B precedes A, so the leaf states' party order is not the cut order
    DIMS = DimSpec.make(("C", 2, "Z"), ("B", 2, "B"), ("A", 2, "A"))

    @staticmethod
    def dense_outcome(mat, kraus, party, dims):
        """sum_k M_k mat M_k^dag with each M_k embedded on ``party``."""
        return sum(big @ mat @ big.conj().T
                   for big in (embed_operator(m, (party,), dims) for m in kraus))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_post_states_match_dense_reference(self, rank):
        rng = np.random.default_rng(50 + rank)
        rho = random_density(self.DIMS, rng, rank=rank)
        inst = Instrument("B", random_instrument(2, 2, 2, rng))
        for (q, post), kraus in zip(apply_instrument(rho, inst), inst.outcomes):
            ref = self.dense_outcome(rho.matrix, kraus, "B", self.DIMS)
            assert q == pytest.approx(np.trace(ref).real, abs=1e-14)
            np.testing.assert_allclose(q * post.matrix, ref, atol=1e-14)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_depth_two_leaves_match_dense_reference(self, rank):
        rng = np.random.default_rng(60 + rank)
        rho = random_density(self.DIMS, rng, rank=rank)
        inst = Instrument("B", random_instrument(2, 2, 2, rng))
        helper = Instrument.projective("C", (P0, P1))
        tree = ProtocolNode("B", inst, tuple(ProtocolNode("C", helper, (None, None))
                                              for _ in inst.outcomes))
        res = evaluate_protocol(rho, tree, concurrence_measure())
        assert [path for _, _, path in res.leaves] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for (p, value, (j, k)), sigma in zip(res.leaves, res.leaf_states):
            after_b = self.dense_outcome(rho.matrix, inst.outcomes[j], "B", self.DIMS)
            ref = self.dense_outcome(after_b, helper.outcomes[k], "C", self.DIMS)
            assert p == pytest.approx(np.trace(ref).real, abs=1e-14)
            ref_sigma = partial_trace(DensityOperator(ref / np.trace(ref).real, self.DIMS),
                                      ("A", "B"))
            assert sigma.dims.labels == ref_sigma.dims.labels == ("B", "A")
            np.testing.assert_allclose(sigma.matrix, ref_sigma.matrix, atol=1e-14)
            assert value == pytest.approx(wootters_concurrence(ref_sigma), abs=1e-12)
