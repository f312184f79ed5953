import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entloc import (
    DimSpec,
    DensityOperator,
    DimensionError,
    conditional_state,
    from_state,
    permute_parties,
    tensor_product,
)
from entloc.catalog import build_locked_state, phi_plus_vector
from entloc.sampling import random_density, random_povm, random_rank1_povm

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def yz_pair(dy=2, dz=2):
    return DimSpec.make(("Y", dy, "A"), ("Z", dz, "Z"))


def test_product_state_factorizes():
    rng = np.random.default_rng(0)
    rho_y = random_density(DimSpec.make(("Y", 2, "A")), rng)
    rho_z = random_density(DimSpec.make(("Z", 3, "Z")), rng)
    joint = tensor_product(rho_y, rho_z)
    jam = from_state(joint, y_labels=("Y",), z_labels=("Z",))
    q = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    q = q + q.conj().T
    expected = rho_y.matrix * np.trace(rho_z.matrix @ q.T)
    np.testing.assert_allclose(jam.apply(q), expected, atol=1e-12)


def test_maximally_entangled_gives_matrix_units():
    vec = phi_plus_vector(2)
    rho = DensityOperator(np.outer(vec, vec.conj()), yz_pair())
    jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
    # oracle: direct index contraction; rho[(y i), (y' j)]/2 delta structure
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            out = jam.apply(unit)
            np.testing.assert_allclose(out, unit / 2, atol=1e-14)


def test_locked_state_map_dimensions():
    jam = from_state(build_locked_state().to_density())
    assert jam.d_z == 2
    assert jam.d_y == 32
    out = jam.apply(np.eye(2, dtype=complex))
    assert out.shape == (32, 32)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_apply_identity_is_reduced_state():
    rng = np.random.default_rng(4)
    rho = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng)
    jam = from_state(rho)
    from entloc import partial_trace

    np.testing.assert_allclose(
        jam.apply(np.eye(2, dtype=complex)),
        partial_trace(rho, ("A", "B")).matrix,
        atol=1e-12,
    )


def test_apply_zero():
    rng = np.random.default_rng(5)
    rho = random_density(yz_pair(), rng)
    jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
    np.testing.assert_allclose(jam.apply(np.zeros((2, 2))), 0.0, atol=0)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_stack_matches_single_applications(seed):
    rng = np.random.default_rng(seed)
    dims = DimSpec.make(("A", 2, "A"), ("C", 2, "Z"), ("B", int(rng.integers(2, 4)), "B"),
                        ("D", int(rng.integers(2, 4)), "Z"))
    jam = from_state(random_density(dims, rng, rank=int(rng.integers(1, 4))))
    k = int(rng.integers(1, 6))
    stack = rng.standard_normal((k, jam.d_z, jam.d_z)) + 1j * rng.standard_normal(
        (k, jam.d_z, jam.d_z))
    out = jam.apply(stack)
    assert out.shape == (k, jam.d_y, jam.d_y)
    for q, got in zip(stack, out):
        np.testing.assert_allclose(got, jam.apply(q), atol=1e-14)
    for q, got in zip(stack, jam.apply_physical(stack)):
        np.testing.assert_allclose(got, jam.apply_physical(q), atol=1e-14)


def test_dimension_mismatch():
    rng = np.random.default_rng(6)
    rho = random_density(yz_pair(), rng)
    jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
    with pytest.raises(DimensionError):
        jam.apply(np.eye(3))
    with pytest.raises(DimensionError):
        jam.apply(np.zeros((1, 1, 2, 2)))


def test_partition_mismatch():
    rng = np.random.default_rng(7)
    rho = random_density(yz_pair(), rng)
    with pytest.raises(DimensionError):
        from_state(rho, y_labels=("Y", "Z"), z_labels=("Z",))


class TestRoundTrip:
    def test_random_state(self):
        rng = np.random.default_rng(11)
        rho = random_density(yz_pair(), rng)
        jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
        np.testing.assert_allclose(jam.reconstruct().matrix, rho.matrix, atol=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(12)
        joint = tensor_product(
            random_density(DimSpec.make(("Y", 3, "A")), rng),
            random_density(DimSpec.make(("Z", 2, "Z")), rng),
        )
        jam = from_state(joint, y_labels=("Y",), z_labels=("Z",))
        np.testing.assert_allclose(jam.reconstruct().matrix, joint.matrix, atol=1e-12)

    def test_locked_state(self):
        rho = build_locked_state().to_density()
        jam = from_state(rho)
        np.testing.assert_allclose(jam.reconstruct().matrix, rho.matrix, atol=1e-12)

    def test_interleaved_party_order(self):
        # Z party sitting between the Y parties in the flat index
        spec = DimSpec.make(("A", 2, "A"), ("C", 2, "Z"), ("B", 2, "B"))
        rng = np.random.default_rng(13)
        rho = random_density(spec, rng, rank=3)
        jam = from_state(rho)
        back = jam.reconstruct()
        expected = permute_parties(rho, ("A", "B", "C"))
        np.testing.assert_allclose(back.matrix, expected.matrix, atol=1e-12)


class TestTransposeConvention:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_physical_branch_matches_conditional_state(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(
            DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng,
            rank=int(rng.integers(1, 5)),
        )
        jam = from_state(rho)
        q = random_povm(2, 2, rng)[0]
        p_ref, sigma_ref = conditional_state(rho, q)
        p, sigma = jam.branch(q)
        assert p == pytest.approx(p_ref, abs=1e-10)
        np.testing.assert_allclose(sigma.matrix, sigma_ref.matrix, atol=1e-10)

    def test_locked_state_branch(self):
        rho = build_locked_state().to_density()
        jam = from_state(rho)
        rng = np.random.default_rng(3)
        q = random_povm(2, 3, rng)[1]
        p_ref, sigma_ref = conditional_state(rho, q)
        p, sigma = jam.branch(q)
        assert p == pytest.approx(p_ref, abs=1e-10)
        np.testing.assert_allclose(sigma.matrix, sigma_ref.matrix, atol=1e-10)


class TestLinearity:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_linear_combination(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(yz_pair(3, 2), rng)
        jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
        q1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(
            jam.apply(a * q1 + b * q2),
            a * jam.apply(q1) + b * jam.apply(q2),
            atol=1e-12,
        )

    def test_mixture_compatibility(self):
        rng = np.random.default_rng(21)
        spec = yz_pair(2, 2)
        parts = [random_density(spec, rng, rank=2) for _ in range(3)]
        t = rng.dirichlet(np.ones(3))
        mix = DensityOperator(sum(w * p.matrix for w, p in zip(t, parts)), spec)
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        jam_mix = from_state(mix, y_labels=("Y",), z_labels=("Z",))
        combo = sum(
            w * from_state(p, y_labels=("Y",), z_labels=("Z",)).apply(q)
            for w, p in zip(t, parts)
        )
        np.testing.assert_allclose(jam_mix.apply(q), combo, atol=1e-12)


def test_choi_matrix_positive():
    rng = np.random.default_rng(30)
    rho = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng)
    jam = from_state(rho)
    evals, _ = jam.reconstruct().eigensystem()
    assert evals.min() >= -1e-10


def test_branch_is_the_branch_the_average_scores(monkeypatch):
    # JamiolkowskiMap.branch(E_k) against the branch factor
    # average_root_entanglement hands the scorer for the same element
    from itertools import product

    from entloc import ProductPOVM, RootMeasure, average_root_entanglement, concurrence_measure

    rng = np.random.default_rng(41)
    dims = DimSpec.make(("A", 2, "A"), ("C", 2, "Z"), ("B", 2, "B"), ("D", 2, "Z"))
    rho = random_density(dims, rng, rank=2)
    povm = ProductPOVM(("C", "D"), tuple(product(random_povm(2, 2, rng),
                                                 random_rank1_povm(2, 3, rng))))
    scored = []
    factor_branches = RootMeasure.factor_branches

    def spy(self, factors, y_dims, cut):
        scored.append((factors, y_dims))
        return factor_branches(self, factors, y_dims, cut)

    monkeypatch.setattr(RootMeasure, "factor_branches", spy)
    result = average_root_entanglement(rho, povm, concurrence_measure())
    (factors, y_dims), = scored
    jam = from_state(rho, ("A", "B"), ("C", "D"))
    for k, (p, _) in enumerate(result.branches):
        p_jam, sigma = jam.branch(povm.element(k))
        assert p_jam == pytest.approx(p, abs=1e-14)
        assert sigma.dims == y_dims
        np.testing.assert_allclose(sigma.matrix, factors[k] @ factors[k].conj().T / p,
                                   atol=1e-14)
