"""Channel-state correspondence, the one branch engine: a state on the Y|Z
partition as the completely positive map it induces from operators on Z to
operators on Y, held as the state's eigen-factor V (rho = V V^dag) with V[z]
a (d_Y, r) block. A POVM element q = F F^dag gives the branch factor
B = sum_z conj(F[z]) V[z], a whole stack of elements in one matrix product
(``branch_factors``, ``povm_branch_factors``); B B^dag is the unnormalized
branch Tr_Z[rho (I ⊗ q)]. The LE optimizer and every fixed-POVM average
(``localize``), protocol-tree leaves (``protocols``, q = I) and acceptance
criterion 7 (``checks.duality``) run on this one contraction.

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

from .states import (DensityOperator, DimSpec, DimensionError, NullBranchError, PureState,
                     permute_factor)

# eigenvalues of a state below this are its null space
_STATE_RANK_TOL = 1e-11
# eigenvalues of a POVM element below this share of its largest are its null space
_ELEMENT_RANK_TOL = 1e-12


def eigen_factor(rho: PureState | DensityOperator) -> np.ndarray:
    """(d, r) eigen-factor V of rho = V V^dag, in rho's party order.

    A ``PureState`` is its own one-column factor, its amplitudes as they are
    (no columns when its squared norm is at most 1e-11). An operator's factor
    is the eigenvectors of the eigenvalues above 1e-11 scaled by their square
    roots, or the unit state vector when it is a normalized pure state (r = 1).
    """
    if isinstance(rho, PureState):
        vec = rho.amplitudes[:, None]
        return vec if rho.norm ** 2 > _STATE_RANK_TOL else vec[:, :0]
    evals, evecs = rho.eigensystem()
    live = evals > _STATE_RANK_TOL
    if rho.normalized and np.count_nonzero(live) == 1:
        return np.ascontiguousarray(evecs[:, -1:])
    return evecs[:, live] * np.sqrt(evals[live])


@dataclass(frozen=True)
class JamiolkowskiMap:
    """CP map from operators on the Z parties to operators on the Y parties.

    ``factor`` is the (d_Z, d_Y, r) eigen-factor of the source state, its
    parties in (Z..., Y...) order; ``y_dims`` and ``z_dims`` are the two
    layouts in map order.
    """

    factor: np.ndarray
    y_dims: DimSpec
    z_dims: DimSpec
    normalized: bool = True

    @property
    def d_y(self) -> int:
        return self.factor.shape[1]

    @property
    def d_z(self) -> int:
        return self.factor.shape[0]

    def apply(self, q: np.ndarray) -> np.ndarray:
        """Tr_Z[rho (I ⊗ q^t)]: the branch map in the physical convention.

        ``q`` is one (d_z, d_z) operator or a (K, d_z, d_z) stack; a stack maps
        to a (K, d_y, d_y) stack in one contraction.
        """
        if q.shape[-2:] != (self.d_z, self.d_z) or q.ndim not in (2, 3):
            raise DimensionError(f"operator shape {q.shape} != ({self.d_z}, {self.d_z})")
        # out[y, w] = sum_{z v} rho[(y z), (w v)] q[z, v], with
        # rho[(y z), (w v)] = sum_c V[z, y, c] conj(V[v, w, c])
        return np.einsum("zyc,...zv,vwc->...yw", self.factor, q, self.factor.conj(),
                         optimize=True)

    def apply_physical(self, q: np.ndarray) -> np.ndarray:
        """Unnormalized post-measurement branch Tr_Z[rho (I ⊗ q)] for POVM element
        q, or for each element of a (K, d_z, d_z) stack."""
        return self.apply(np.swapaxes(q, -1, -2))

    def branch_factors(self, w: np.ndarray) -> np.ndarray:
        """(K, d_Y, r) branch factors B_k = sum_z conj(w_kz) V[z] of K rank-one
        POVM elements w_k w_k^dag, w a (K, d_Z) stack."""
        d_z, d_y, r = self.factor.shape
        return (w.conj() @ self.factor.reshape(d_z, -1)).reshape(len(w), d_y, r)

    def povm_branch_factors(self, elements: np.ndarray) -> np.ndarray:
        """(K, d_Y, m r) branch factors of a (K, d_Z, d_Z) stack of POVM
        elements E_k = F_k F_k^dag, each column of F_k a rank-one element
        (``branch_factors``). F_k comes from the eigendecomposition, with exact
        zero columns for eigenvalues below 1e-12 of the element's largest."""
        evals, evecs = np.linalg.eigh(elements)
        keep = evals > _ELEMENT_RANK_TOL * evals[:, -1:]
        m = max(1, int(np.max(np.count_nonzero(keep, axis=-1))))
        # eigenvalues ascend, so the kept columns are among the last m
        f = (evecs * np.sqrt(np.where(keep, evals, 0.0))[:, None, :])[:, :, -m:]
        d_z, d_y, r = self.factor.shape
        cols = self.branch_factors(np.swapaxes(f, 1, 2).reshape(-1, d_z))
        return cols.reshape(len(f), m, d_y, r).swapaxes(1, 2).reshape(len(f), d_y, m * r)

    def reduced_factor(self) -> np.ndarray:
        """(d_Y, d_Z r) factor of Tr_Z rho, the branch of q = I: the helper
        axes moved into the columns."""
        return self.factor.transpose(1, 0, 2).reshape(self.d_y, -1)

    def branch(self, q: np.ndarray, null_tol: float = 1e-14):
        """(probability, normalized branch DensityOperator on Y) for POVM
        element q: B B^dag / p with B its ``povm_branch_factors`` factor."""
        b = self.povm_branch_factors(np.asarray(q)[None])[0]
        p = float(np.vdot(b, b).real)
        if p < null_tol:
            raise NullBranchError(f"branch probability {p:.3e} below {null_tol:.0e}")
        return p, DensityOperator(b @ b.conj().T / p, self.y_dims)

    def reconstruct(self) -> DensityOperator:
        """(map ⊗ id)(|psi+><psi+|) = V V^dag on the (Y..., Z...) layout: the
        source state up to the eigenvalues ``eigen_factor`` drops."""
        v = self.factor.transpose(1, 0, 2).reshape(self.d_y * self.d_z, -1)
        return DensityOperator(v @ v.conj().T, self.y_dims.concat(self.z_dims), self.normalized)


def from_factor(factor: np.ndarray, dims: DimSpec, y_labels, z_labels,
                normalized: bool = True) -> JamiolkowskiMap:
    """The map of rho = F F^dag across Y|Z, F a (d, r) factor on ``dims`` in
    its party order; Y and Z must partition the parties (Z may be empty)."""
    y_labels, z_labels = tuple(y_labels), tuple(z_labels)
    moved, spec = permute_factor(factor, dims, z_labels + y_labels)
    d_z = spec.dim_of_labels(z_labels)
    return JamiolkowskiMap(moved.reshape(d_z, -1, factor.shape[-1]), spec.subspec(y_labels),
                           spec.subspec(z_labels), normalized)


def from_state(rho: PureState | DensityOperator, y_labels=None,
               z_labels=None) -> JamiolkowskiMap:
    """Build the CP map associated with a state across the Y|Z partition,
    from its ``eigen_factor`` (a pure state's amplitudes, one column).

    Defaults to the role-derived partition of the state's layout.
    """
    if y_labels is None and z_labels is None:
        y_labels, z_labels = rho.dims.y_labels, rho.dims.z_labels
    if not z_labels:
        raise DimensionError("partition needs at least one Z party")
    return from_factor(eigen_factor(rho), rho.dims, y_labels, z_labels, rho.normalized)
