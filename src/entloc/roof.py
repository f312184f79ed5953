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

The optimizer is a gradient-only multistart over the Gaussian pre-image x of
the isometry (U = Q of the phase-fixed QR x = Q R; the parameterization of
Audenaert, Verstraete and De Moor, PRA 64, 052304 (2001)). |det C|^(2/d) has
a cusp at det C = 0, exactly where members become product vectors, so the
descent runs on the smoothed objective

    f_eps(x) = d sum_i [(|det C_i|^2 + eps^2)^(1/d) - eps^(2/d)],

smooth for eps > 0, below f and tending to f as eps -> 0, and lowers eps in
stages (``_EPS_SCHEDULE``). Its exact gradient is carried back through the
QR to x. ``sampling.lockstep_lbfgs`` polishes every restart at the first eps
in lockstep, one batched QR and one batched determinant per round; the three
lowest go on through the smaller eps values, each stage starting where the
last ended. Every restart is scored by the exact f at its final point and the
lowest wins, so returned values carry UPPER-bound semantics: the true roof can
only be lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import _cut_or_default
from .sampling import (flatten_complex, lockstep_lbfgs, phase_fixed_qr, phase_fixed_qr_backward,
                       seeded_starts, unflatten_complex)
from .states import DensityOperator, DimSpec, PureState


# L-BFGS-B's default stop tests: relative reduction of f, largest |gradient|
_POLISH_FTOL, _POLISH_GTOL = 2.220446049250313e-09, 1e-5
# the smoothing of the det = 0 cusp, one polish stage per value; every
# restart runs the first stage, the _CONTINUED lowest run the others
_EPS_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8)
_CONTINUED = 3


@dataclass(frozen=True)
class RoofConfig:
    """Knobs of the convex-roof search; ensemble_size=None means rank + 2."""

    ensemble_size: int | None = None
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")


@dataclass(frozen=True)
class DecompositionEnsemble:
    """Weighted pure-state decomposition of a density operator.

    ``restart_values`` holds the exact value at each restart's final point
    (empty where no search ran) and ``restart_evaluations`` its objective
    evaluations, summed over its polish stages. ``winner`` is the restart
    with the lowest value, the one returned; ``converged`` says whether its
    last polish stage converged.
    """

    weights: np.ndarray
    states: tuple[PureState, ...]
    value: float
    converged: bool
    restart_values: tuple[float, ...] = ()
    restart_evaluations: tuple[int, ...] = ()
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


def _objective_and_gradient(x: np.ndarray, w: np.ndarray, d: int, eps: float):
    """Smoothed objective f_eps of an m x r pre-image, or of each in a
    (..., m, r) stack, and its gradient G_x = df/dRe x + i df/dIm x; eps = 0
    gives the exact f.

    The chain: G_C = 2 (|det C|^2 + eps^2)^(1/d - 1) |det C|^2 C^-H (0 where
    det C = 0); G_Q = G_C flattened against conj(w); then the backward pass
    of the phase-fixed QR x = Q R (``phase_fixed_qr_backward``).
    """
    q, r, mats = _ensemble_stack(x, w, d)
    det = np.linalg.det(mats)
    det2 = det.real ** 2 + det.imag ** 2
    smooth = det2 + eps * eps
    a = smooth ** (1.0 / d)
    live = det2 > 0
    inv = np.linalg.inv(np.where(live[..., None, None], mats, np.eye(d)))
    coef = 2.0 * a * det2 / np.where(live, smooth, 1.0)  # 0 where det C = 0
    g_c = coef[..., None, None] * inv.conj().swapaxes(-1, -2)
    g_q = g_c.reshape(q.shape[:-1] + (-1,)) @ w.conj()
    value = d * (np.sum(a, axis=-1) - a.shape[-1] * eps ** (2.0 / d))
    return value, phase_fixed_qr_backward(q, r, g_q)


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
    m = r + 2 if config.ensemble_size is None else config.ensemble_size
    if m < r:
        raise ValueError(f"ensemble size {m} below state rank {r}")

    if r == 1:
        psi = PureState(w[:, 0] / np.linalg.norm(w[:, 0]), rho.dims)
        from .measures import gconcurrence_pure

        val = gconcurrence_pure(psi, (left, right))
        ens = DecompositionEnsemble(np.array([1.0]), (psi,), val, True)
        return val, ens

    def fun_and_grad(flat: np.ndarray, eps: float):
        values, g_x = _objective_and_gradient(unflatten_complex(flat, [(m, r)])[0], w, d, eps)
        return values, flatten_complex([g_x])

    # restart i starts from the Gaussian pre-image of generator i of the seed
    flat = flatten_complex(seeded_starts(config.seed, config.restarts, [(m, r)])[1])
    evaluations = np.zeros(config.restarts, dtype=int)
    success = np.zeros(config.restarts, dtype=bool)
    rows = np.arange(config.restarts)
    for stage, eps in enumerate(_EPS_SCHEDULE):
        flat[rows], smoothed, _, evals, success[rows], _ = lockstep_lbfgs(
            lambda z: fun_and_grad(z, eps), flat[rows], ftol=_POLISH_FTOL, gtol=_POLISH_GTOL)
        evaluations[rows] += evals
        if stage == 0:  # the lowest after the first stage go on, in stable order
            rows = rows[np.argsort(smoothed, kind="stable")[:_CONTINUED]]

    xs = unflatten_complex(flat, [(m, r)])[0]
    vals = _objective(xs, w, d)
    winner = int(np.argmin(vals))
    best_val, converged, best_x = float(vals[winner]), bool(success[winner]), xs[winner]

    cols = w @ phase_fixed_qr(best_x)[0].T
    weights = np.linalg.norm(cols, axis=0) ** 2
    keep = weights > 1e-14
    states = tuple(
        PureState(cols[:, i] / np.sqrt(weights[i]), rho.dims)
        for i in range(cols.shape[1])
        if keep[i]
    )
    ens = DecompositionEnsemble(weights[keep], states, best_val, converged,
                                tuple(float(v) for v in vals),
                                tuple(int(n) for n in evaluations), winner)
    return best_val, ens
