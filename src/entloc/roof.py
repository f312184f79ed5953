"""Convex-roof extension of the geometric-mean concurrence to mixed states.

The roof value min sum_i p_i G(psi_i) over decompositions rho = sum_i p_i
|psi_i><psi_i| is searched through the standard isometry parameterization:
with rho = W W^dag (W = V sqrt(e) from the eigendecomposition, r columns),
every size-m ensemble arises as |psi~_i> = sum_r U_ir w_r for an m x r
isometry U. Because G is homogeneous of degree one in the density operator,
the objective is simply sum_i G(|psi~_i>) on the unnormalized vectors, which
keeps the search landscape smooth. On a d x d cut G(|psi~>) = d |det C|^(2/d)
for the d x d coefficient matrix C of |psi~>, so the m members are scored as
one (m, d, d) stack by one determinant call, with no SVD.

The optimizer is a multi-start adaptive random local search over the Gaussian
pre-image x of the isometry (U = Q of the phase-fixed QR x = Q R), run by
``sampling.lockstep_search``, the driver the LE ascent shares, on -f. The
restarts run in lockstep: each keeps its own generator, step and stopping
state, and every iteration scores the proposals of all live restarts in one
batched QR and one batched determinant. The best three restarts are then
polished by ``sampling.lockstep_lbfgs``, again in lockstep, on the exact
gradient, carried from d|det C|^(2/d) back through the QR to x (the pattern
of Audenaert, Verstraete and De Moor, PRA 64, 052304 (2001)); the lowest
value wins. Returned values carry UPPER-bound semantics: the true roof can
only be lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import _cut_or_default
from .sampling import lockstep_lbfgs, lockstep_search, phase_fixed_qr, phase_fixed_qr_backward
from .states import DensityOperator, DimSpec, PureState


# L-BFGS-B's default stop tests: relative reduction of f, largest |gradient|
_POLISH_FTOL, _POLISH_GTOL = 2.220446049250313e-09, 1e-5


@dataclass(frozen=True)
class RoofConfig:
    """Knobs of the convex-roof search; ensemble_size=None means rank + 2."""

    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 400
    seed: int = 0


@dataclass(frozen=True)
class DecompositionEnsemble:
    """Weighted pure-state decomposition of a density operator.

    ``restart_values`` holds each restart's final value (empty where no
    search ran): its polished value for the three best of the search, its
    search value otherwise. ``winner`` is the polished restart with the
    lowest value, the one returned; ``converged`` says whether its polish
    converged.
    """

    weights: np.ndarray
    states: tuple[PureState, ...]
    value: float
    converged: bool
    restart_values: tuple[float, ...] = ()
    winner: int | None = None

    def reconstruct(self, dims: DimSpec) -> DensityOperator:
        mat = sum(
            p * np.outer(s.amplitudes, s.amplitudes.conj())
            for p, s in zip(self.weights, self.states)
        )
        return DensityOperator(mat, dims)


def _ensemble_stack(x: np.ndarray, w: np.ndarray, d: int):
    """Phase-fixed QR of a (..., m, r) pre-image stack and the (..., m, d, d)
    stack of ensemble coefficient matrices C_i = reshape(sum_k U_ik w_k)."""
    q, r = phase_fixed_qr(x)
    return q, r, (q @ w.T).reshape(q.shape[:-1] + (d, d))


def _objective(x: np.ndarray, w: np.ndarray, d: int) -> np.ndarray:
    """sum_i G(psi~_i) = d sum_i |det C_i|^(2/d) for each pre-image in a stack."""
    mats = _ensemble_stack(x, w, d)[2]
    return d * np.sum(np.abs(np.linalg.det(mats)) ** (2.0 / d), axis=-1)


def _objective_and_gradient(x: np.ndarray, w: np.ndarray, d: int):
    """Objective of an m x r pre-image, or of each in a (..., m, r) stack,
    and its gradient G_x = df/dRe x + i df/dIm x.

    The chain: G_C = 2 |det C|^(2/d) C^-H (0 where det C = 0); G_Q = G_C
    flattened against conj(w); then the backward pass of the phase-fixed QR
    x = Q R (``phase_fixed_qr_backward``).
    """
    q, r, mats = _ensemble_stack(x, w, d)
    det = np.linalg.det(mats)
    a = np.abs(det) ** (2.0 / d)
    live = (det != 0)[..., None, None]
    inv = np.linalg.inv(np.where(live, mats, np.eye(d)))
    g_c = np.where(live, (2.0 * a)[..., None, None] * inv.conj().swapaxes(-1, -2), 0.0)
    g_q = g_c.reshape(q.shape[:-1] + (-1,)) @ w.conj()
    return d * np.sum(a, axis=-1), phase_fixed_qr_backward(q, r, g_q)


def gconcurrence_mixed(rho: DensityOperator, cut=None, config: RoofConfig | None = None):
    """Convex-roof geometric-mean concurrence of a mixed bipartite state.

    Returns ``(value, DecompositionEnsemble)``; the ensemble reproduces rho
    and realizes the returned (upper-bound) value.
    """
    if config is None:
        config = RoofConfig()
    left, right = _cut_or_default(rho.dims, cut)
    perm = left + right
    order = [rho.dims.labels.index(lab) for lab in perm]
    if order != sorted(order):
        from .states import permute_parties

        rho = permute_parties(rho, perm)
    dl = rho.dims.dim_of_labels(left)
    dr = rho.dims.dim_of_labels(right)
    d = max(dl, dr)

    if dl != dr:
        # zero padding annihilates every pure-state value, so the roof is 0
        evals, evecs = rho.eigensystem()
        mask = evals > 1e-12
        states = tuple(PureState(evecs[:, i], rho.dims) for i in np.flatnonzero(mask))
        ens = DecompositionEnsemble(evals[mask], states, 0.0, True)
        return 0.0, ens

    evals, evecs = rho.eigensystem()
    mask = evals > 1e-12
    r = int(np.count_nonzero(mask))
    w = evecs[:, mask] * np.sqrt(evals[mask])  # rho = w w^dag
    m = config.ensemble_size or r + 2
    if m < r:
        raise ValueError(f"ensemble size {m} below state rank {r}")

    if r == 1:
        psi = PureState(w[:, 0] / np.linalg.norm(w[:, 0]), rho.dims)
        from .measures import gconcurrence_pure

        val = gconcurrence_pure(psi, (left, right))
        ens = DecompositionEnsemble(np.array([1.0]), (psi,), val, True)
        return val, ens

    # minimize by maximizing -f, which is exact in floating point
    vals, (xs,), _, _ = lockstep_search(
        lambda x: -_objective(x[0], w, d), [(m, r)], config.seed, config.restarts,
        config.max_iters, accept=1e-12, reset=0.0, shrink=0.6, patience=20, stop=1e-3)

    # the polish's rows: real then imaginary parts of each restart's pre-image
    def flatten(z: np.ndarray) -> np.ndarray:
        z = z.reshape(len(z), -1)
        return np.concatenate([z.real, z.imag], axis=1)

    def fun_and_grad(flat: np.ndarray):
        values, g_x = _objective_and_gradient(
            (flat[:, : m * r] + 1j * flat[:, m * r :]).reshape(-1, m, r), w, d)
        return values, flatten(g_x)

    # gradient polish of the three best basins, with L-BFGS-B's default stop
    # tests; a polish only descends, so the lowest polished value wins
    vals = -vals
    order = np.argsort(vals, kind="stable")[:3]
    flat, vals[order], _, _, success, _ = lockstep_lbfgs(
        fun_and_grad, flatten(xs[order]), ftol=_POLISH_FTOL, gtol=_POLISH_GTOL)
    row = int(np.argmin(vals[order]))
    winner, best_val, converged = int(order[row]), float(vals[order[row]]), bool(success[row])
    best_x = (flat[row, : m * r] + 1j * flat[row, m * r :]).reshape(m, r)

    cols = w @ phase_fixed_qr(best_x)[0].T
    weights = np.linalg.norm(cols, axis=0) ** 2
    keep = weights > 1e-14
    states = tuple(
        PureState(cols[:, i] / np.sqrt(weights[i]), rho.dims)
        for i in range(cols.shape[1])
        if keep[i]
    )
    ens = DecompositionEnsemble(weights[keep], states, best_val, converged,
                                tuple(float(v) for v in vals), winner)
    return best_val, ens
