import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entloc import (
    DimSpec,
    DensityOperator,
    DimensionError,
    NullBranchError,
    conditional_state,
    from_state,
    partial_trace,
)
from entloc.catalog import build_locked_state, phi_plus_vector
from entloc.sampling import random_density, random_povm, random_rank1_povm

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def yz_pair(dy=2, dz=2):
    return DimSpec.make(("Y", dy, "A"), ("Z", dz, "Z"))


def branches(jam, elements):
    """(K, d_Y, d_Y) unnormalized branches Tr_Z[rho (I ⊗ E_k)] = B_k B_k^dag
    of a (K, d_Z, d_Z) stack of POVM elements."""
    b = jam.povm_branch_factors(np.asarray(elements))
    return b @ b.conj().swapaxes(1, 2)


def test_product_state_factorizes():
    rng = np.random.default_rng(0)
    rho_y = random_density(DimSpec.make(("Y", 2, "A")), rng)
    rho_z = random_density(DimSpec.make(("Z", 3, "Z")), rng)
    joint = DensityOperator(np.kron(rho_y.matrix, rho_z.matrix), rho_y.dims.concat(rho_z.dims))
    jam = from_state(joint, y_labels=("Y",), z_labels=("Z",))
    for q in random_povm(3, 3, rng):
        expected = rho_y.matrix * np.trace(rho_z.matrix @ q)
        np.testing.assert_allclose(branches(jam, q[None])[0], expected, atol=1e-12)


def test_maximally_entangled_gives_matrix_units():
    # the branch of E on phi+ is E^t / 2: the diagonal matrix units, and a
    # full-rank element whose off-diagonal entries the transpose moves
    vec = phi_plus_vector(2)
    rho = DensityOperator(np.outer(vec, vec.conj()), yz_pair())
    jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
    units = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    np.testing.assert_allclose(branches(jam, units), units / 2, atol=1e-14)
    q = random_povm(2, 2, np.random.default_rng(1))[0]
    np.testing.assert_allclose(branches(jam, q[None])[0], q.T / 2, atol=1e-14)


def test_locked_state_map_dimensions():
    jam = from_state(build_locked_state().to_density())
    assert jam.d_z == 2
    assert jam.d_y == 32
    p, sigma = jam.branch(np.eye(2, dtype=complex))
    assert sigma.matrix.shape == (32, 32)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_identity_branch_is_reduced_state():
    rng = np.random.default_rng(4)
    rho = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng)
    jam = from_state(rho)
    reduced = partial_trace(rho, ("A", "B")).matrix
    np.testing.assert_allclose(branches(jam, np.eye(2, dtype=complex)[None])[0], reduced,
                               atol=1e-12)
    r = jam.reduced_factor()
    np.testing.assert_allclose(r @ r.conj().T, reduced, atol=1e-12)


def test_zero_element_has_zero_branch():
    rng = np.random.default_rng(5)
    rho = random_density(yz_pair(), rng)
    jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
    np.testing.assert_allclose(jam.povm_branch_factors(np.zeros((1, 2, 2))), 0.0, atol=0)
    with pytest.raises(NullBranchError):
        jam.branch(np.zeros((2, 2)))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_stack_matches_single_applications(seed):
    rng = np.random.default_rng(seed)
    dims = DimSpec.make(("A", 2, "A"), ("C", 2, "Z"), ("B", int(rng.integers(2, 4)), "B"),
                        ("D", int(rng.integers(2, 4)), "Z"))
    jam = from_state(random_density(dims, rng, rank=int(rng.integers(1, 4))))
    k = int(rng.integers(1, 6))
    stack = np.stack(random_povm(jam.d_z, k, rng))
    out = branches(jam, stack)
    assert out.shape == (k, jam.d_y, jam.d_y)
    for q, got in zip(stack, out):
        np.testing.assert_allclose(got, branches(jam, q[None])[0], atol=1e-14)


def test_dimension_mismatch():
    # a POVM of the wrong helper dimension fails on its shape, not inside numpy
    rng = np.random.default_rng(6)
    rho = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng)
    jam = from_state(rho)
    with pytest.raises(DimensionError):
        jam.povm_branch_factors(np.stack(random_povm(3, 3, rng)))
    with pytest.raises(DimensionError):
        jam.povm_branch_factors(np.zeros((1, 1, 2, 2)))
    with pytest.raises(DimensionError):
        jam.branch(np.eye(3))


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
        rho_y = random_density(DimSpec.make(("Y", 3, "A")), rng)
        rho_z = random_density(DimSpec.make(("Z", 2, "Z")), rng)
        joint = DensityOperator(np.kron(rho_y.matrix, rho_z.matrix),
                                rho_y.dims.concat(rho_z.dims))
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
        # rho with its row and column axes reordered (A, C, B) -> (A, B, C)
        expected = rho.matrix.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
        assert back.dims.labels == ("A", "B", "C")
        np.testing.assert_allclose(back.matrix, expected, atol=1e-12)


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
        # linear on the cone of POVM elements: nonnegative combinations
        rng = np.random.default_rng(seed)
        rho = random_density(yz_pair(3, 2), rng)
        jam = from_state(rho, y_labels=("Y",), z_labels=("Z",))
        q1, q2 = random_povm(2, 2, rng)
        a, b = rng.uniform(0.0, 2.0, size=2)
        np.testing.assert_allclose(
            branches(jam, (a * q1 + b * q2)[None])[0],
            a * branches(jam, q1[None])[0] + b * branches(jam, q2[None])[0],
            atol=1e-12,
        )

    def test_mixture_compatibility(self):
        rng = np.random.default_rng(21)
        spec = yz_pair(2, 2)
        parts = [random_density(spec, rng, rank=2) for _ in range(3)]
        t = rng.dirichlet(np.ones(3))
        mix = DensityOperator(sum(w * p.matrix for w, p in zip(t, parts)), spec)
        q = random_povm(2, 2, rng)[0][None]
        jam_mix = from_state(mix, y_labels=("Y",), z_labels=("Z",))
        combo = sum(
            w * branches(from_state(p, y_labels=("Y",), z_labels=("Z",)), q)
            for w, p in zip(t, parts)
        )
        np.testing.assert_allclose(branches(jam_mix, q), combo, atol=1e-12)


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
