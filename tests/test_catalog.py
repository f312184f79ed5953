import numpy as np
import pytest

from entloc import (
    DimSpec,
    entropy_of_entanglement,
    gconcurrence_pure,
    wootters_concurrence,
)
from entloc.catalog import (
    LockedStateSpec,
    bell_state,
    build_locked_state,
    canonical_state,
    ghz_state,
    key_unitary_v1,
    nonunitary_v1_literal,
    phi_plus_4_state,
    w_state,
    werner_state,
)
from entloc.sampling import random_unitary


class TestKeyUnitary:
    def test_unitarity(self):
        v1 = key_unitary_v1()
        np.testing.assert_allclose(v1 @ v1.conj().T, np.eye(2), atol=1e-15)

    def test_entries(self):
        expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        np.testing.assert_allclose(key_unitary_v1(), expected, atol=1e-15)

    def test_literal_variant_not_unitary(self):
        m = nonunitary_v1_literal()
        gram = m.conj().T @ m
        assert np.max(np.abs(gram - np.eye(2))) > 0.5
        assert abs(abs(np.linalg.det(gram)) - 1.0) > 1e-6


class TestLockedState:
    def test_norm_and_layout(self):
        psi = build_locked_state()
        assert psi.norm == pytest.approx(1.0, abs=1e-12)
        assert psi.dims.labels == ("a", "A", "B", "C")
        assert psi.dims.z_labels == ("C",)

    def test_trivial_spec_factorizes(self, schmidt_numbers):
        spec = LockedStateSpec(
            v=(np.eye(2), np.eye(2)),
            u=tuple(np.eye(4) for _ in range(4)),
        )
        psi = build_locked_state(spec)
        # |+>_a ⊗ |phi+>_AB ⊗ |+>_C: product across a|rest and C|rest
        for cut_left in (("a",), ("C",)):
            cut_right = tuple(l for l in psi.dims.labels if l not in cut_left)
            lam = schmidt_numbers(psi, cut_left, cut_right)
            assert lam[0] == pytest.approx(1.0, abs=1e-12)
        lam_ab = schmidt_numbers(psi, ("a", "A"), ("B", "C"))
        np.testing.assert_allclose(lam_ab[:4], 0.25, atol=1e-12)

    def test_nonunitary_spec_rejected(self):
        with pytest.raises(ValueError):
            LockedStateSpec(v=(np.eye(2), nonunitary_v1_literal()))

    def test_local_unitary_on_b_invariance(self):
        rng = np.random.default_rng(13)
        w = random_unitary(4, rng)
        base = LockedStateSpec()
        twisted = LockedStateSpec(v=base.v, u=tuple(w @ u for u in base.u))
        cut = (("a", "A"), ("B", "C"))
        e0 = entropy_of_entanglement(build_locked_state(base), cut)
        e1 = entropy_of_entanglement(build_locked_state(twisted), cut)
        assert e1 == pytest.approx(e0, abs=1e-10)


def test_entropy_cut_signature_helper():
    # entropy across the Alice|rest cut of the locked state
    psi = build_locked_state()
    val = entropy_of_entanglement(psi, (("a", "A"), ("B", "C")))
    assert 0.0 < val <= np.log2(8) + 1e-12


class TestCanonical:
    def test_bell(self):
        assert entropy_of_entanglement(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_phi_plus_4(self):
        psi = phi_plus_4_state()
        assert entropy_of_entanglement(psi) == pytest.approx(2.0, abs=1e-12)
        assert gconcurrence_pure(psi) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_single_qubit_cuts(self, schmidt_numbers):
        psi = ghz_state(3)
        for left in (("q0",), ("q1",), ("q2",)):
            right = tuple(l for l in psi.dims.labels if l not in left)
            lam = schmidt_numbers(psi, left, right)
            np.testing.assert_allclose(lam[:2], [0.5, 0.5], atol=1e-12)

    def test_w_state_normalized(self):
        psi = w_state(4)
        assert psi.norm == pytest.approx(1.0, abs=1e-12)

    def test_werner_third_not_concurrent(self):
        assert wootters_concurrence(werner_state(1 / 3)) == pytest.approx(0.0, abs=1e-10)

    def test_werner_out_of_range(self):
        with pytest.raises(ValueError):
            werner_state(1.2)

    def test_dispatch(self):
        assert canonical_state("ghz", n=4).dims.total_dim == 16
        assert canonical_state("werner", p=0.5).dims.total_dim == 4
        with pytest.raises(ValueError):
            canonical_state("nope")
