"""Convex-roof extension of the geometric-mean concurrence to mixed states.

The roof value is min sum_i p_i G(psi_i) over decompositions rho = sum_i p_i
|psi_i><psi_i|. It is exact where a closed form exists: 0 on an unequal cut
(the zero padding), G of the state on a pure state, and on a 2 x 2 cut, where
G is the concurrence, Wootters' value with his optimal decomposition
(``_wootters_ensemble``). Elsewhere (a mixed d x d state, d > 2) it is an
upper bound from a descent.

The descent searches the standard isometry parameterization: with rho =
W W^dag (W = V sqrt(e) from the eigendecomposition, r columns), every size-m
ensemble arises as |psi~_i> = sum_r U_ir w_r for an m x r isometry U. Because G is homogeneous of degree one in the density operator,
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
lowest wins, so the descent's values carry UPPER-bound semantics: the true
roof can only be lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _cut_or_default, _takagi_stack
from .sampling import (flatten_complex, lockstep_lbfgs, phase_fixed_qr, phase_fixed_qr_backward,
                       seeded_starts, unflatten_complex)
from .states import DensityOperator, DimSpec, PureState


# L-BFGS-B's default stop tests: relative reduction of f, largest |gradient|
_POLISH_FTOL, _POLISH_GTOL = 2.220446049250313e-09, 1e-5
# the smoothing of the det = 0 cusp, one polish stage per value; every
# restart runs the first stage, the _CONTINUED lowest run the others
_EPS_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8)
_CONTINUED = 3
# the real 4 x 4 Hadamard over 2: it mixes Wootters' four phased columns
# into members of equal concurrence
_HADAMARD = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


@dataclass(frozen=True)
class RoofConfig:
    """Knobs of the convex-roof descent; ensemble_size=None means rank + 2.

    The three fields apply only to the descent, which runs on mixed d x d
    states with d > 2; the closed forms read none of them (an ensemble_size
    below the state's rank is rejected everywhere).
    """

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
    and ``restart_evaluations`` its objective evaluations, summed over its
    polish stages. ``winner`` is the restart with the lowest value, the one
    returned; ``converged`` says whether its last polish stage converged. On
    every closed form (unequal cut, pure state, 2 x 2 cut) no descent runs:
    ``restart_values`` and ``restart_evaluations`` are empty, ``winner`` is
    None and ``converged`` is True.
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


def _eigen_factor(rho: DensityOperator) -> np.ndarray:
    """(d, r) factor w of rho = w w^dag: the eigenvectors of the eigenvalues
    above 1e-12 scaled by their square roots."""
    evals, evecs = rho.eigensystem()
    live = evals > 1e-12
    return evecs[:, live] * np.sqrt(evals[live])


def _members(cols: np.ndarray, dims: DimSpec) -> tuple[np.ndarray, tuple[PureState, ...]]:
    """Weights and unit states of an ensemble given as unnormalized columns,
    members of weight below 1e-14 dropped."""
    weights = np.linalg.norm(cols, axis=0) ** 2
    keep = np.flatnonzero(weights > 1e-14)
    return weights[keep], tuple(PureState(cols[:, i] / np.sqrt(weights[i]), dims) for i in keep)


def _turn(a: float, b: float, c: float) -> complex:
    """Unit u with |a + b u| = c and Im u >= 0, for the sides of a (possibly
    flat) triangle; 1 where a or b is 0.

    cos = (c^2 - a^2 - b^2) / 2ab and sin from Kahan's stable area formula,
    so near-collinear sides keep their digits (acos would lose half).
    """
    if a * b == 0.0:
        return 1.0 + 0.0j
    x, y, z = sorted((a, b, c), reverse=True)
    area4 = np.sqrt(max(0.0, (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))))
    u = complex(c * c - a * a - b * b, area4)
    return u / abs(u)


def _closing_phases(lam: np.ndarray) -> np.ndarray:
    """Unit numbers u with sum_j lam_j u_j = 0, for four decreasing lam >= 0
    with lam_1 <= lam_2 + lam_3 + lam_4: two triangles on a diagonal of
    length max(lam_1 - lam_2, lam_3 - lam_4), which both admit."""
    l1, l2, l3, l4 = (float(v) for v in lam)
    u2 = _turn(l1, l2, max(l1 - l2, l3 - l4))
    head = l1 + l2 * u2
    u4 = _turn(l3, l4, abs(head))
    tail = l3 + l4 * u4
    # turn the second pair onto -head
    rot = -head * tail.conjugate() / (abs(head) * abs(tail)) if head and tail else 1.0
    return np.array([1.0, u2, rot, rot * u4])


def _wootters_ensemble(w: np.ndarray, dims: DimSpec):
    """Wootters' optimal decomposition of a two-qubit rho = w w^dag (parties in
    cut order, up to four columns) and its concurrence, the exact roof.

    The Takagi vectors of tau = w^T (sy x sy) w (Wootters, PRL 80, 2245
    (1998)) give columns y = w V with y^T (sy x sy) y = diag(lam), lam
    decreasing. They are the eigenvectors [Re q; Im q] of the real symmetric
    [[Re tau, Im tau], [Im tau, -Re tau]] (spectrum +-lam) for its four largest
    eigenvalues, made unitary by a phase-fixed QR, which also completes them
    where lam is 0. C = lam_1 - lam_2 - lam_3 - lam_4 > 0: phases (1, i, i, i);
    else phases sqrt(u_j) with sum_j lam_j u_j = 0. Mixing the phased columns
    by the real 4 x 4 Hadamard over 2 gives members z_i with z_i^T (sy x sy) z_i
    = max(0, C) / 4 each and sum_i z_i z_i^dag = rho.
    """
    w = np.pad(w, ((0, 0), (0, 4 - w.shape[1])))
    tau = _takagi_stack(w)
    s, vecs = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    lam = np.clip(s[:3:-1], 0.0, None)
    top = vecs[:, :3:-1]
    y = w @ phase_fixed_qr(top[:4] + 1j * top[4:])[0].conj()
    conc = float(lam[0] - np.sum(lam[1:]))
    if conc > 0.0:
        phases = np.array([1.0, 1j, 1j, 1j])
    else:
        conc, phases = 0.0, np.sqrt(_closing_phases(lam))
    return conc, DecompositionEnsemble(*_members((y * phases) @ _HADAMARD, dims), conc, True)


def _descent(w: np.ndarray, m: int, dims: DimSpec, config: RoofConfig):
    """The eps-staged multistart descent over m-member ensembles of rho = w w^dag
    (parties in cut order, a d x d cut): the lowest restart's value, an upper
    bound to the roof, and its ensemble."""
    d, r = math.isqrt(w.shape[0]), w.shape[1]

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

    ens = DecompositionEnsemble(*_members(w @ phase_fixed_qr(best_x)[0].T, dims),
                                best_val, converged,
                                tuple(float(v) for v in vals),
                                tuple(int(n) for n in evaluations), winner)
    return best_val, ens


def gconcurrence_mixed(rho: DensityOperator, cut=None, config: RoofConfig | None = None):
    """Convex-roof geometric-mean concurrence of a mixed bipartite state.

    Returns ``(value, DecompositionEnsemble)``; the ensemble reproduces rho
    and realizes the returned value: exact on an unequal cut (0), on a pure
    state and on a 2 x 2 cut (Wootters), an upper bound from the descent
    elsewhere.
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

    w = _eigen_factor(rho)
    r = w.shape[1]
    m = r + 2 if config.ensemble_size is None else config.ensemble_size
    if m < r:
        raise ValueError(f"ensemble size {m} below state rank {r}")

    if dl != dr:
        # zero padding annihilates every pure-state value, so the roof is 0
        return 0.0, DecompositionEnsemble(*_members(w, rho.dims), 0.0, True)

    if r == 1:
        psi = PureState(w[:, 0] / np.linalg.norm(w[:, 0]), rho.dims)
        from .measures import gconcurrence_pure

        val = gconcurrence_pure(psi, (left, right))
        ens = DecompositionEnsemble(np.array([1.0]), (psi,), val, True)
        return val, ens

    if dl == 2:
        return _wootters_ensemble(w, rho.dims)
    return _descent(w, m, rho.dims, config)
