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
polished by L-BFGS-B on the exact gradient, carried from
d|det C|^(2/d) back through the QR to x (the pattern of Audenaert, Verstraete
and De Moor, PRA 64, 052304 (2001)). Returned values carry UPPER-bound
semantics: the true roof can only be lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .measures import _cut_or_default
from .sampling import lockstep_search, phase_fixed_qr, phase_fixed_qr_backward
from .states import DensityOperator, DimSpec, PureState


@dataclass(frozen=True)
class RoofConfig:
    """Knobs of the convex-roof search; ensemble_size=None means rank + 2."""

    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 400
    seed: int = 0


@dataclass(frozen=True)
class DecompositionEnsemble:
    """Weighted pure-state decomposition of a density operator."""

    weights: np.ndarray
    states: tuple[PureState, ...]
    value: float
    converged: bool

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
    """Objective of one m x r pre-image and its gradient G_x = df/dRe x + i df/dIm x.

    The chain: G_C = 2 |det C|^(2/d) C^-H (0 where det C = 0); G_Q = G_C
    flattened against conj(w); then the backward pass of the phase-fixed QR
    x = Q R (``phase_fixed_qr_backward``).
    """
    q, r, mats = _ensemble_stack(x, w, d)
    det = np.linalg.det(mats)
    a = np.abs(det) ** (2.0 / d)
    g_c = np.zeros_like(mats)
    live = det != 0
    g_c[live] = 2.0 * a[live, None, None] * np.linalg.inv(mats[live]).conj().swapaxes(-1, -2)
    g_q = g_c.reshape(q.shape[0], -1) @ w.conj()
    return d * float(np.sum(a)), phase_fixed_qr_backward(q, r, g_q)


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
    vals, (xs,), flags, _ = lockstep_search(
        lambda x: -_objective(x[0], w, d), [(m, r)], config.seed, config.restarts,
        config.max_iters, accept=1e-12, reset=0.0, shrink=0.6, patience=20, stop=1e-3)
    vals = -vals

    def unflatten(flat: np.ndarray) -> np.ndarray:
        return flat[: m * r].reshape(m, r) + 1j * flat[m * r :].reshape(m, r)

    def fun_and_grad(flat: np.ndarray):
        value, g_x = _objective_and_gradient(unflatten(flat), w, d)
        return value, np.concatenate([g_x.real.ravel(), g_x.imag.ravel()])

    # gradient polish of the best few basins; ``converged`` follows the
    # point that is returned: the best restart, or the polish that beat it
    order = np.argsort(vals, kind="stable")
    best_val, best_x, converged = float(vals[order[0]]), xs[order[0]], bool(flags[order[0]])
    for i in order[:3]:
        flat0 = np.concatenate([xs[i].real.ravel(), xs[i].imag.ravel()])
        res = minimize(fun_and_grad, flat0, jac=True, method="L-BFGS-B")
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = unflatten(res.x)
            converged = bool(res.success)

    cols = w @ phase_fixed_qr(best_x)[0].T
    weights = np.linalg.norm(cols, axis=0) ** 2
    keep = weights > 1e-14
    states = tuple(
        PureState(cols[:, i] / np.sqrt(weights[i]), rho.dims)
        for i in range(cols.shape[1])
        if keep[i]
    )
    ens = DecompositionEnsemble(weights[keep], states, float(best_val), converged)
    return float(best_val), ens
