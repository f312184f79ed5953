"""Multipartite state bookkeeping: labeled party layouts, pure and density
states, and the permutation of a state's factor into another party order.

The library computes every branch in factor form (``jamiolkowski``). The
dense post-measurement state kept here (``conditional_state``, built on
``embed_operator`` and ``partial_trace``) shares no code with that engine:
it is acceptance criterion 7's independent reference for it.

Everything here is dense complex128; the target systems are tiny (total
dimension <= a few hundred), so no sparsity or structure is exploited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROLE_A = "A"
ROLE_B = "B"
ROLE_Z = "Z"
_ROLES = (ROLE_A, ROLE_B, ROLE_Z)


class DimensionError(ValueError):
    """Raised when labels/dimensions of operands do not line up."""


@dataclass(frozen=True)
class DimSpec:
    """Ordered party layout of a multipartite Hilbert space.

    Each party is a (label, local_dim) pair; ``roles`` assigns each label to
    the distinguished pair ("A", "B") or to the helper system ("Z").
    """

    parties: tuple[tuple[str, int], ...]
    roles: dict[str, str] = field(hash=False)

    def __post_init__(self):
        labels = [lab for lab, _ in self.parties]
        if len(set(labels)) != len(labels):
            raise DimensionError(f"duplicate party labels in {labels}")
        for lab, d in self.parties:
            if d < 1:
                raise DimensionError(f"party {lab!r} has dimension {d} < 1")
        if set(self.roles) != set(labels):
            raise DimensionError("role map must cover exactly the party labels")
        for lab, role in self.roles.items():
            if role not in _ROLES:
                raise DimensionError(f"unknown role {role!r} for party {lab!r}")

    @staticmethod
    def make(*parties: tuple[str, int, str]) -> "DimSpec":
        """Build from (label, dim, role) triples, e.g. ``DimSpec.make(("A",2,"A"),("B",2,"B"))``."""
        return DimSpec(
            parties=tuple((lab, d) for lab, d, _ in parties),
            roles={lab: role for lab, d, role in parties},
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.parties)

    @property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.parties)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.local_dims, dtype=np.int64))

    def dim_of(self, label: str) -> int:
        for lab, d in self.parties:
            if lab == label:
                return d
        raise DimensionError(f"unknown party label {label!r}")

    def labels_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(lab for lab in self.labels if self.roles[lab] == role)

    @property
    def a_labels(self) -> tuple[str, ...]:
        return self.labels_with_role(ROLE_A)

    @property
    def b_labels(self) -> tuple[str, ...]:
        return self.labels_with_role(ROLE_B)

    @property
    def y_labels(self) -> tuple[str, ...]:
        """Labels of the distinguished pair, in party order."""
        return tuple(lab for lab in self.labels if self.roles[lab] != ROLE_Z)

    @property
    def z_labels(self) -> tuple[str, ...]:
        return self.labels_with_role(ROLE_Z)

    def dim_of_labels(self, labels) -> int:
        return math.prod(self.dim_of(lab) for lab in labels)

    def require_bipartite_roles(self) -> None:
        if not self.a_labels or not self.b_labels:
            raise DimensionError("DimSpec must have at least one A-role and one B-role party")

    def subspec(self, labels) -> "DimSpec":
        """Restriction to a subset of labels, keeping party order and roles."""
        keep = set(labels)
        unknown = keep - set(self.labels)
        if unknown:
            raise DimensionError(f"unknown party labels {sorted(unknown)}")
        return DimSpec(
            parties=tuple(p for p in self.parties if p[0] in keep),
            roles={lab: self.roles[lab] for lab in self.labels if lab in keep},
        )

    def concat(self, other: "DimSpec") -> "DimSpec":
        collision = set(self.labels) & set(other.labels)
        if collision:
            raise DimensionError(f"party label collision: {sorted(collision)}")
        return DimSpec(self.parties + other.parties, {**self.roles, **other.roles})

    def axes_of(self, labels) -> list[int]:
        order = {lab: i for i, lab in enumerate(self.labels)}
        return [order[lab] for lab in labels]


@dataclass(frozen=True)
class PureState:
    """A state vector with a declared party layout.

    ``normalized=False`` flags intentionally unnormalized vectors (e.g. the
    unnormalized maximally entangled vector used by the channel-state
    correspondence); otherwise unit norm is enforced at construction.
    """

    amplitudes: np.ndarray
    dims: DimSpec
    normalized: bool = True

    def __post_init__(self):
        vec = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=np.complex128).ravel())
        object.__setattr__(self, "amplitudes", vec)
        if vec.size != self.dims.total_dim:
            raise DimensionError(
                f"vector length {vec.size} != total dimension {self.dims.total_dim}"
            )
        if not np.all(np.isfinite(vec)):
            raise ValueError("state vector has non-finite entries")
        if self.normalized and abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise ValueError(f"state vector not normalized (norm={np.linalg.norm(vec):.3e})")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_density(self) -> "DensityOperator":
        return DensityOperator(
            np.outer(self.amplitudes, self.amplitudes.conj()),
            self.dims,
            normalized=self.normalized,
        )


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix with a declared party layout.

    Hermiticity is checked at construction, positivity by ``eigensystem``;
    trace one is enforced unless ``normalized=False``.
    """

    matrix: np.ndarray
    dims: DimSpec
    normalized: bool = True

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        d = self.dims.total_dim
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} != ({d}, {d})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
            raise ValueError("density matrix not Hermitian within tolerance")
        if self.normalized and abs(np.trace(mat).real - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {np.trace(mat).real:.6f} != 1")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending, clipped at 0; below -1e-8 raises) and eigenvectors."""
        evals, evecs = np.linalg.eigh(self.matrix)
        if evals.size and evals[0] < -1e-8:
            raise ValueError(f"density matrix has negative eigenvalue {evals[0]:.3e}")
        return np.clip(evals, 0.0, None), evecs

    def as_tensor(self) -> np.ndarray:
        dims = self.dims.local_dims
        return self.matrix.reshape(dims + dims)


def permute_factor(factor: np.ndarray, dims: DimSpec, label_order) -> tuple[np.ndarray, DimSpec]:
    """A (d, r) factor F of rho = F F^dag on ``dims`` and its layout, with the
    parties permuted into ``label_order``."""
    label_order = tuple(label_order)
    if sorted(label_order) != sorted(dims.labels):
        raise DimensionError("label_order must be a permutation of the party labels")
    tens = factor.reshape(dims.local_dims + factor.shape[-1:])
    moved = tens.transpose(dims.axes_of(label_order) + [len(label_order)])
    spec = DimSpec(tuple((lab, dims.dim_of(lab)) for lab in label_order), dict(dims.roles))
    return moved.reshape(factor.shape), spec


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every party not in ``keep``."""
    keep = tuple(keep)
    unknown = set(keep) - set(rho.dims.labels)
    if unknown:
        raise DimensionError(f"unknown party labels {sorted(unknown)}")
    keep_set = set(keep)
    keep_in_order = [lab for lab in rho.dims.labels if lab in keep_set]
    n = len(rho.dims.labels)
    row = list(range(n))
    col = [i + n if rho.dims.labels[i] in keep_set else i for i in range(n)]
    kept_axes = [i for i in row if rho.dims.labels[i] in keep_set]
    out = kept_axes + [i + n for i in kept_axes]
    tens = np.einsum(rho.as_tensor(), row + col, out)
    sub = rho.dims.subspec(keep_in_order)
    d = sub.total_dim
    return DensityOperator(tens.reshape(d, d), sub, rho.normalized)


class NullBranchError(ValueError):
    """Measurement branch has vanishing probability; no conditional state exists."""


def embed_operator(op: np.ndarray, op_labels, dims: DimSpec) -> np.ndarray:
    """Lift an operator acting on ``op_labels`` to the full space (identity elsewhere).

    ``op`` is indexed in the order given by ``op_labels``, which need not be
    contiguous or ordered in ``dims``.
    """
    op_labels = tuple(op_labels)
    d_op = dims.dim_of_labels(op_labels)
    if op.shape != (d_op, d_op):
        raise DimensionError(f"operator shape {op.shape} does not match labels {op_labels}")
    rest = [lab for lab in dims.labels if lab not in set(op_labels)]
    d_rest = dims.dim_of_labels(rest)
    big = np.kron(op, np.eye(d_rest))
    # big acts on (op_labels..., rest...); permute back to dims order
    cur = op_labels + tuple(rest)
    cur_dims = tuple(dims.dim_of(lab) for lab in cur)
    n = len(cur)
    perm = [cur.index(lab) for lab in dims.labels]
    tens = big.reshape(cur_dims + cur_dims).transpose(perm + [p + n for p in perm])
    d = dims.total_dim
    return tens.reshape(d, d)


def conditional_state(rho: DensityOperator, q: np.ndarray, q_labels=None,
                      null_tol: float = 1e-14):
    """Post-measurement branch for POVM element ``q`` on the Z parties.

    Returns ``(probability, state_on_Y)`` where the state is the normalized
    partial trace of ``rho (I_Y ⊗ q)`` over the measured parties. Raises
    :class:`NullBranchError` when the branch probability is below ``null_tol``.
    """
    if q_labels is None:
        q_labels = rho.dims.z_labels
    q_labels = tuple(q_labels)
    if not q_labels:
        raise DimensionError("no measured parties given")
    big_q = embed_operator(q, q_labels, rho.dims)
    post = rho.matrix @ big_q
    p = float(np.trace(post).real)
    if p < null_tol:
        raise NullBranchError(f"branch probability {p:.3e} below {null_tol:.0e}")
    keep = [lab for lab in rho.dims.labels if lab not in set(q_labels)]
    post = 0.5 * (post + post.conj().T)  # symmetrize contraction noise
    branch = DensityOperator(post / p, rho.dims, normalized=False)
    sigma = partial_trace(branch, keep)
    sigma = DensityOperator(sigma.matrix, sigma.dims, normalized=True)
    return p, sigma
