"""Finite LOCC protocols as explicit outcome-branching trees, their
evaluation on a shared state, and one-step monotonicity gap checks.

A tree node names the acting party and its instrument; every outcome is
broadcast (children are indexed by outcome), so classical communication is
implicit in the branching. A branch is carried as a factor F of its
unnormalized state, from the state's ``eigen_factor``: outcome j maps it
one-sided to the columns of (M_jk ⊗ I) F over its Kraus operators M_jk, and
a leaf is the branch's Jamiolkowski map at q = I (the helper axes moved into
the columns), scored by one ``RootMeasure.factor_branches`` call, which also
says whether the leaf took a convex-roof solve. A branch below the scorer's
``NULL_BRANCH_TOL`` is dropped. The collaboration value of a given tree is an
achievable average, hence a lower bound on the collaboration optimum, unless
a leaf took a convex-roof solve, itself an upper bound: that value is an
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import LockedStateSpec
from .jamiolkowski import eigen_factor, from_factor
from .localize import LEConfig, ProductPOVM, average_root_entanglement, optimize_le
from .measures import NULL_BRANCH_TOL, Instrument, RootMeasure
from .states import DensityOperator, DimensionError, DimSpec, PureState, permute_factor


@dataclass(frozen=True)
class ProtocolNode:
    """One round: ``party`` applies ``instrument``; ``children[j]`` continues
    after outcome j (None = stop and score)."""

    party: str
    instrument: Instrument
    children: tuple["ProtocolNode | None", ...]

    def __post_init__(self):
        if len(self.children) != len(self.instrument.outcomes):
            raise ValueError("need exactly one child slot per instrument outcome")
        if self.instrument.party != self.party:
            raise ValueError("node party and instrument party disagree")


@dataclass(frozen=True)
class ProtocolResult:
    """Weighted leaves of a protocol run: (probability, leaf value, outcome path).

    ``bound`` is "lower" (a lower bound on the collaboration optimum) unless
    a leaf took a convex-roof solve; the average is then an "estimate".
    """

    average: float
    leaves: tuple[tuple[float, float, tuple[int, ...]], ...]
    leaf_states: tuple[DensityOperator, ...]
    bound: str = "lower"

    def to_dict(self, measure_name: str = "") -> dict:
        return {
            "average": self.average,
            "measure": measure_name,
            "bound": self.bound,
            "leaves": [
                {"p": p, "value": v, "path": list(path)} for p, v, path in self.leaves
            ],
        }


def _party_axis(dims: DimSpec, instrument: Instrument) -> int:
    """Axis of the instrument's party in ``dims``; its dimension must match."""
    party = instrument.party
    if party not in dims.labels:
        raise DimensionError(f"protocol party {party!r} not in the state layout")
    if instrument.dim != dims.dim_of(party):
        raise DimensionError(f"instrument dimension {instrument.dim} != party {party!r} "
                             f"dimension {dims.dim_of(party)}")
    return dims.labels.index(party)


def _apply_kraus(factor: np.ndarray, kraus, axis: int, dims: DimSpec) -> np.ndarray:
    """(M_k ⊗ I) F for each Kraus operator M_k of one outcome on one party's
    axis, columns concatenated: a factor of sum_k M_k F F^dag M_k^dag."""
    tens = factor.reshape(dims.local_dims + factor.shape[-1:])
    out = np.tensordot(np.stack(kraus), tens, axes=(2, axis))
    return np.moveaxis(out, (0, 1), (-1, axis)).reshape(len(factor), -1)


def evaluate_protocol(rho: PureState | DensityOperator, root: ProtocolNode | None,
                      measure: RootMeasure) -> ProtocolResult:
    """Depth-first branch evolution of the protocol tree on the shared state.

    A branch weighs the squared norm of its factor and is dropped below
    ``NULL_BRANCH_TOL``; a leaf takes its value and its bound from one
    ``factor_branches`` call, and its state is F F^dag / p on the Y parties in
    party order.
    """
    dims = rho.dims
    dims.require_bipartite_roles()
    cut = (dims.a_labels, dims.b_labels)
    leaves, leaf_states, roofed = [], [], []

    def recurse(factor: np.ndarray, node, path):
        p = float(np.vdot(factor, factor).real)
        if p < NULL_BRANCH_TOL:
            return
        if node is None:
            jam = from_factor(factor, dims, cut[0] + cut[1], dims.z_labels)
            leaf = jam.reduced_factor()
            _, value, roof = measure.factor_branches(leaf[None], jam.y_dims, cut)
            roofed.append(roof[0])
            leaf, y_dims = permute_factor(leaf, jam.y_dims, dims.y_labels)
            leaves.append((p, float(value[0]), tuple(path)))
            leaf_states.append(DensityOperator(leaf @ leaf.conj().T / p, y_dims))
            return
        axis = _party_axis(dims, node.instrument)
        for j, kraus in enumerate(node.instrument.outcomes):
            recurse(_apply_kraus(factor, kraus, axis, dims), node.children[j], path + [j])

    recurse(eigen_factor(rho), root, [])
    average = float(sum(p * v for p, v, _ in leaves))
    return ProtocolResult(average, tuple(leaves), tuple(leaf_states),
                          "estimate" if any(roofed) else "lower")


def apply_instrument(rho: PureState | DensityOperator, instrument: Instrument):
    """Outcome list [(q_j, normalized post state F F^dag / q_j)] of one local
    instrument, F the one-sided map of the state's ``eigen_factor``."""
    axis = _party_axis(rho.dims, instrument)
    factor = eigen_factor(rho)
    out = []
    for kraus in instrument.outcomes:
        post = _apply_kraus(factor, kraus, axis, rho.dims)
        q = float(np.vdot(post, post).real)
        if q < NULL_BRANCH_TOL:
            out.append((0.0, None))
            continue
        out.append((q, DensityOperator(post @ post.conj().T / q, rho.dims)))
    return out


def monotonicity_gap(rho: PureState | DensityOperator, instrument: Instrument,
                     measure: RootMeasure, povm: ProductPOVM | None = None,
                     config: LEConfig | None = None) -> float:
    """One-step gap  sum_j q_j LE(state after outcome j) - LE(state).

    A state vector is taken as its one-column factor. With ``povm`` given,
    both sides are averaged at that fixed POVM; otherwise each side runs its
    own ``optimize_le`` at a matched budget. A positive gap means the local
    instrument on A or B increased the localizable value.
    """
    if rho.dims.roles.get(instrument.party) not in ("A", "B"):
        raise DimensionError("monotonicity instrument must act on an A- or B-role party")

    def le(state: PureState | DensityOperator) -> float:
        if povm is not None:
            return average_root_entanglement(state, povm, measure).value
        return optimize_le(state, measure, config).value

    lhs = 0.0
    for q, post in apply_instrument(rho, instrument):
        if post is not None and q > 0.0:
            lhs += q * le(post)
    return lhs - le(rho)


def locked_state_protocol(spec: LockedStateSpec | None = None) -> ProtocolNode:
    """Two-round collaboration protocol that fully unlocks the locked state.

    Round 1: the key holder measures the ancilla qubit a in the computational
    basis and broadcasts x. Round 2: the helper undoes the scrambling with
    V_x^dag and measures the computational basis, leaving the A-B pair in a
    maximally entangled state on every branch.
    """
    if spec is None:
        spec = LockedStateSpec()
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    charlie_measure = ProtocolNode(
        "C", Instrument.projective("C", (p0, p1)), (None, None)
    )

    def charlie_branch(x: int) -> ProtocolNode:
        v = np.asarray(spec.v[x], dtype=np.complex128)
        return ProtocolNode(
            "C", Instrument.unitary("C", v.conj().T), (charlie_measure,)
        )

    return ProtocolNode(
        "a",
        Instrument.projective("a", (p0, p1)),
        (charlie_branch(0), charlie_branch(1)),
    )
