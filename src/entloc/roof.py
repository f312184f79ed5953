"""Convex-roof extension of the geometric-mean concurrence to mixed states.

The roof value min sum_i p_i G(psi_i) over decompositions rho = sum_i p_i
|psi_i><psi_i| is searched through the standard isometry parameterization:
with rho = W W^dag (W = V sqrt(e) from the eigendecomposition, r columns),
every size-m ensemble arises as |psi~_i> = sum_r U_ir w_r for an m x r
isometry U. Because G is homogeneous of degree one in the density operator,
the objective is simply sum_i G(|psi~_i>) on the unnormalized vectors, which
keeps the search landscape smooth.

The optimizer is a multi-start adaptive random local search over the Gaussian
pre-image of the isometry (QR-projected), with a derivative-free polish of
the best restart. Returned values carry UPPER-bound semantics: the true roof
can only be lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .states import DensityOperator, DimSpec, PureState
from .measures import _cut_or_default


@dataclass(frozen=True)
class RoofConfig:
    """Knobs of the convex-roof search; ensemble_size=None means rank + 2."""

    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 400
    tol: float = 1e-9
    seed: int = 0

    @staticmethod
    def from_dict(doc: dict) -> "RoofConfig":
        return RoofConfig(
            ensemble_size=doc.get("ensemble_size"),
            restarts=int(doc.get("restarts", 32)),
            max_iters=int(doc.get("max_iters", 400)),
            tol=float(doc.get("tol", 1e-9)),
            seed=int(doc.get("seed", 0)),
        )


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


def _g_of_columns(cols: np.ndarray, dl: int, dr: int, d: int) -> float:
    """sum_i G(column_i) on unnormalized column vectors (homogeneous form)."""
    total = 0.0
    for i in range(cols.shape[1]):
        s = np.linalg.svd(cols[:, i].reshape(dl, dr), compute_uv=False)
        if s.size < d or s[-1] <= 0.0:
            continue
        total += d * float(np.prod(s * s)) ** (1.0 / d)
    return total


def _isometry(x: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(x)
    diag = np.where(np.abs(np.diagonal(r)) < 1e-14, 1.0, np.diagonal(r))
    return q * (diag / np.abs(diag))


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

    def objective_x(x: np.ndarray) -> float:
        return _g_of_columns(w @ _isometry(x).T, dl, dr, d)

    def objective_flat(flat: np.ndarray) -> float:
        x = flat[: m * r].reshape(m, r) + 1j * flat[m * r :].reshape(m, r)
        return objective_x(x)

    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(config.seed).spawn(config.restarts)]
    finals = []  # (value, x, converged) per restart
    for rng in rngs:
        x = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        val = objective_x(x)
        step = 0.5
        stale = 0
        converged = False
        for _ in range(config.max_iters):
            prop = x + step * (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
            pval = objective_x(prop)
            if pval < val - 1e-12:
                x, val = prop, pval
                stale = 0
            else:
                stale += 1
                if stale % 20 == 0:
                    step *= 0.6
            if step < 1e-3:
                converged = True
                break
        finals.append((val, x, converged))

    # gradient-based polish of the best few basins; ``converged`` follows the
    # point that is returned: the best restart, or the polish that beat it
    finals.sort(key=lambda t: t[0])
    best_val, best_x, converged = finals[0]
    for val, x, _ in finals[:3]:
        flat0 = np.concatenate([x.real.ravel(), x.imag.ravel()])
        res = minimize(objective_flat, flat0, method="L-BFGS-B")
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x[: m * r].reshape(m, r) + 1j * res.x[m * r :].reshape(m, r)
            converged = bool(res.success)

    cols = w @ _isometry(best_x).T
    weights = np.linalg.norm(cols, axis=0) ** 2
    keep = weights > 1e-14
    states = tuple(
        PureState(cols[:, i] / np.sqrt(weights[i]), rho.dims)
        for i in range(cols.shape[1])
        if keep[i]
    )
    ens = DecompositionEnsemble(weights[keep], states, float(best_val), converged)
    return float(best_val), ens
