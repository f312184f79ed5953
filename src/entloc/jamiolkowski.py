"""Channel-state correspondence between a bipartite density operator on Y,Z
and the completely positive map it induces from operators on Z to operators
on Y.

Transpose convention, fixed once: ``apply(q)`` computes
``Tr_Z[rho (I_Y ⊗ q^t)]``, which is the contraction consistent with the
defining identity rho = (map ⊗ id)(|psi+><psi+|), with |psi+> = sum_i |i>|i>
unnormalized. The *physical* post-measurement branch for a POVM element q is
therefore ``apply(q^t)`` -- exposed as :meth:`apply_physical` so callers never
have to remember which side carries the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DensityOperator,
    DimSpec,
    DimensionError,
    NullBranchError,
    permute_parties,
)


@dataclass(frozen=True)
class JamiolkowskiMap:
    """CP map from operators on the Z parties to operators on the Y parties.

    Stored by reference to the source state, reordered to (Y..., Z...) party
    order; applications are evaluated by tensor contraction on demand.
    """

    rho: DensityOperator          # party order: y_labels + z_labels
    y_labels: tuple[str, ...]
    z_labels: tuple[str, ...]
    d_y: int
    d_z: int

    @property
    def y_dims(self) -> DimSpec:
        """Layout of the image space: the Y parties in map order."""
        return self.rho.dims.subspec(self.y_labels)

    def apply(self, q: np.ndarray) -> np.ndarray:
        """Tr_Z[rho (I ⊗ q^t)]: the branch map in the physical convention.

        ``q`` is one (d_z, d_z) operator or a (K, d_z, d_z) stack; a stack maps
        to a (K, d_y, d_y) stack in one contraction.
        """
        if q.shape[-2:] != (self.d_z, self.d_z) or q.ndim not in (2, 3):
            raise DimensionError(f"operator shape {q.shape} != ({self.d_z}, {self.d_z})")
        tens = self.rho.matrix.reshape(self.d_y, self.d_z, self.d_y, self.d_z)
        # out[y, y'] = sum_{z z'} rho[(y z), (y' z')] (q^t)[z', z] = sum rho[(y z),(y' z')] q[z, z']
        return np.einsum("yzwv,...zv->...yw", tens, q)

    def apply_physical(self, q: np.ndarray) -> np.ndarray:
        """Unnormalized post-measurement branch Tr_Z[rho (I ⊗ q)] for POVM element
        q, or for each element of a (K, d_z, d_z) stack."""
        return self.apply(np.swapaxes(q, -1, -2))

    def branch(self, q: np.ndarray, null_tol: float = 1e-14):
        """(probability, normalized branch DensityOperator on Y) for POVM element q."""
        out = self.apply_physical(q)
        p = float(np.trace(out).real)
        if p < null_tol:
            raise NullBranchError(f"branch probability {p:.3e} below {null_tol:.0e}")
        out = 0.5 * (out + out.conj().T)
        return p, DensityOperator(out / p, self.y_dims)

    def reconstruct(self) -> DensityOperator:
        """(map ⊗ id)(|psi+><psi+|); equals the source state by construction."""
        blocks = np.empty((self.d_y, self.d_y, self.d_z, self.d_z), dtype=np.complex128)
        basis = np.eye(self.d_z)
        for i in range(self.d_z):
            for j in range(self.d_z):
                blocks[:, :, i, j] = self.apply(np.outer(basis[i], basis[j]))
        mat = blocks.transpose(0, 2, 1, 3).reshape(self.d_y * self.d_z, self.d_y * self.d_z)
        return DensityOperator(mat, self.rho.dims, self.rho.normalized)


def from_state(rho: DensityOperator, y_labels=None, z_labels=None) -> JamiolkowskiMap:
    """Build the CP map associated with a state across the Y|Z partition.

    Defaults to the role-derived partition of the state's layout.
    """
    if y_labels is None and z_labels is None:
        y_labels = rho.dims.y_labels
        z_labels = rho.dims.z_labels
    y_labels, z_labels = tuple(y_labels), tuple(z_labels)
    if set(y_labels) | set(z_labels) != set(rho.dims.labels) or set(y_labels) & set(z_labels):
        raise DimensionError("Y/Z partition must cover all party labels exactly once")
    if not z_labels:
        raise DimensionError("partition needs at least one Z party")
    ordered = permute_parties(rho, y_labels + z_labels)
    return JamiolkowskiMap(
        rho=ordered,
        y_labels=y_labels,
        z_labels=z_labels,
        d_y=rho.dims.dim_of_labels(y_labels),
        d_z=rho.dims.dim_of_labels(z_labels),
    )
