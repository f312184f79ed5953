import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entloc import (
    DimSpec,
    DensityOperator,
    DimensionError,
    NullBranchError,
    PureState,
    conditional_state,
    partial_trace,
    schmidt_decompose,
    tensor_product,
)
from entloc.catalog import bell_state, build_locked_state, phi_plus_vector
from entloc.sampling import (
    random_density,
    random_povm,
    random_pure,
    random_unitary,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def ket(i, d, dims):
    v = np.zeros(d, dtype=np.complex128)
    v[i] = 1.0
    return PureState(v, dims)


class TestDimSpec:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DimensionError):
            DimSpec.make(("A", 2, "A"), ("A", 2, "B"))

    def test_role_partition(self):
        spec = DimSpec.make(("a", 2, "A"), ("A", 4, "A"), ("B", 4, "B"), ("C", 2, "Z"))
        assert spec.a_labels == ("a", "A")
        assert spec.y_labels == ("a", "A", "B")
        assert spec.z_labels == ("C",)
        assert spec.total_dim == 64

    def test_unknown_role_rejected(self):
        with pytest.raises(DimensionError):
            DimSpec.make(("A", 2, "Q"))


class TestNonFinite:
    PAIR = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pure_rejected(self, bad):
        vec = np.array([1.0, 0.0, 0.0, bad], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            PureState(vec, self.PAIR)
        with pytest.raises(ValueError, match="non-finite"):
            PureState(vec, self.PAIR, normalized=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejected(self, bad):
        mat = np.eye(4, dtype=complex) / 4
        mat[3, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(mat, self.PAIR)


class TestTensorProduct:
    def test_basis_kets(self):
        a = ket(0, 2, DimSpec.make(("A", 2, "A")))
        b = ket(1, 2, DimSpec.make(("B", 2, "B")))
        out = tensor_product(a, b)
        expected = np.zeros(4)
        expected[1] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_maximally_mixed_factors(self):
        spec_a = DimSpec.make(("A", 2, "A"))
        spec_b = DimSpec.make(("B", 2, "B"))
        out = tensor_product(
            DensityOperator(np.eye(2) / 2, spec_a),
            DensityOperator(np.eye(2) / 2, spec_b),
        )
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4)

    def test_two_bell_pairs_schmidt_numbers(self):
        b1 = bell_state()
        b2 = PureState(
            bell_state().amplitudes, DimSpec.make(("A2", 2, "A"), ("B2", 2, "B"))
        )
        both = tensor_product(b1, b2)
        sd = schmidt_decompose(both, ("A", "A2"), ("B", "B2"))
        # oracle: direct SVD of the explicitly permuted coefficient matrix
        np.testing.assert_allclose(sd.schmidt_numbers, np.full(4, 0.25), atol=1e-12)

    def test_label_collision(self):
        with pytest.raises(DimensionError):
            tensor_product(bell_state(), bell_state())


class TestPartialTrace:
    def test_bell_reduction(self):
        rho = partial_trace(bell_state().to_density(), ("A",))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)

    def test_product_state(self):
        spec = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))
        rho = ket(0, 4, spec).to_density()
        out = partial_trace(rho, ("A",))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_locked_state_reduction_rank(self):
        psi = build_locked_state()
        rho = partial_trace(psi.to_density(), ("a", "A", "B"))
        # oracle: direct index contraction of the 64-dim vector
        tens = psi.as_tensor().reshape(32, 2)
        oracle = np.einsum("ic,jc->ij", tens, tens.conj())
        np.testing.assert_allclose(rho.matrix, oracle, atol=1e-13)
        assert rho.rank() == 2

    def test_unknown_label(self):
        with pytest.raises(DimensionError):
            partial_trace(bell_state().to_density(), ("Q",))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_trace_of_product_recovers_factor(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B")), rng)
        b = random_density(DimSpec.make(("C", 3, "Z")), rng)
        joint = tensor_product(a, b)
        back = partial_trace(joint, ("A", "B"))
        np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-12)


class TestSchmidt:
    def test_bell(self):
        sd = schmidt_decompose(bell_state())
        np.testing.assert_allclose(sd.schmidt_numbers, [0.5, 0.5], atol=1e-14)

    def test_product(self):
        spec = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))
        sd = schmidt_decompose(ket(0, 4, spec))
        np.testing.assert_allclose(sd.schmidt_numbers, [1.0, 0.0], atol=1e-14)

    def test_skewed_superposition(self):
        spec = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))
        vec = np.zeros(4, dtype=np.complex128)
        vec[0], vec[3] = np.sqrt(0.9), np.sqrt(0.1)
        sd = schmidt_decompose(PureState(vec, spec))
        np.testing.assert_allclose(sd.schmidt_numbers, [0.9, 0.1], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        psi = random_pure(DimSpec.make(("A", 3, "A"), ("B", 4, "B")), rng)
        sd = schmidt_decompose(psi)
        coeff = np.sqrt(np.clip(sd.schmidt_numbers[: sd.left_vectors.shape[1]], 0, None))
        rebuilt = sum(
            c * np.kron(sd.left_vectors[:, i], sd.right_vectors[:, i])
            for i, c in enumerate(coeff)
        )
        phase = np.vdot(rebuilt, psi.amplitudes)
        phase /= abs(phase)
        np.testing.assert_allclose(rebuilt * phase, psi.amplitudes, atol=1e-10)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        spec = DimSpec.make(("A", 3, "A"), ("B", 3, "B"))
        psi = random_pure(spec, rng)
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rotated = PureState(u @ psi.amplitudes, spec)
        np.testing.assert_allclose(
            schmidt_decompose(rotated).schmidt_numbers,
            schmidt_decompose(psi).schmidt_numbers,
            atol=1e-10,
        )

    def test_entanglement_spectrum_symmetry(self):
        rng = np.random.default_rng(9)
        spec = DimSpec.make(("A", 2, "A"), ("B", 4, "B"))
        psi = random_pure(spec, rng)
        ra = partial_trace(psi.to_density(), ("A",))
        rb = partial_trace(psi.to_density(), ("B",))
        ea, _ = ra.eigensystem()
        eb, _ = rb.eigensystem()
        np.testing.assert_allclose(np.sort(ea)[::-1][:2], np.sort(eb)[::-1][:2], atol=1e-10)


class TestConditionalState:
    def test_bell_projective(self):
        spec = DimSpec.make(("Y", 2, "A"), ("Z", 2, "Z"))
        rho = DensityOperator(
            np.outer(phi_plus_vector(2), phi_plus_vector(2).conj()), spec
        )
        p, sigma = conditional_state(rho, np.diag([1.0, 0.0]).astype(complex))
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sigma.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_element(self, abc_qubits):
        rng = np.random.default_rng(3)
        rho = random_density(abc_qubits, rng)
        p, sigma = conditional_state(rho, np.eye(2, dtype=complex))
        assert p == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            sigma.matrix, partial_trace(rho, ("A", "B")).matrix, atol=1e-12
        )

    def test_locked_state_branch_against_contraction_oracle(self):
        psi = build_locked_state()
        proj = np.diag([1.0, 0.0]).astype(complex)  # V_0 |0><0| V_0^dag, V_0 = I
        p, sigma = conditional_state(psi.to_density(), proj)
        # oracle: contract the C index with |0> directly
        branch = psi.as_tensor()[..., 0].ravel()
        p_oracle = float(np.linalg.norm(branch) ** 2)
        branch /= np.linalg.norm(branch)
        assert p == pytest.approx(p_oracle, abs=1e-12)
        np.testing.assert_allclose(sigma.matrix, np.outer(branch, branch.conj()), atol=1e-11)

    def test_null_branch(self):
        spec = DimSpec.make(("Y", 2, "A"), ("Z", 2, "Z"))
        rho = DensityOperator(np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex), spec)
        with pytest.raises(NullBranchError):
            conditional_state(rho, np.diag([0.0, 1.0]).astype(complex))

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_povm_branches_recombine(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z")), rng)
        povm = random_povm(2, 3, rng)
        total_p = 0.0
        mix = np.zeros((4, 4), dtype=complex)
        for q in povm:
            p, sigma = conditional_state(rho, q)
            total_p += p
            mix += p * sigma.matrix
        assert total_p == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(
            mix, partial_trace(rho, ("A", "B")).matrix, atol=1e-10
        )


class TestSampling:
    def test_pure_determinism(self):
        a = random_pure(4, np.random.default_rng(7))
        b = random_pure(4, np.random.default_rng(7))
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_povm_completeness(self):
        povm = random_povm(2, 3, np.random.default_rng(1))
        np.testing.assert_allclose(sum(povm), np.eye(2), atol=1e-12)

    def test_density_rank(self):
        rho = random_density(DimSpec.make(("A", 4, "A")), np.random.default_rng(3), rank=2)
        evals, _ = rho.eigensystem()
        assert np.count_nonzero(evals > 1e-10) == 2

    def test_unitary(self):
        u = random_unitary(5, np.random.default_rng(2))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            random_density(DimSpec.make(("A", 2, "A")), np.random.default_rng(0), rank=5)
