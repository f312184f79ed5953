"""Convex-roof extension of the geometric-mean concurrence to mixed states.

The roof value is min sum_i p_i G(psi_i) over decompositions rho = sum_i p_i
|psi_i><psi_i|. ``measures.RootMeasure.needs_roof`` is the one rule for
where it has a closed form: 0 on an unequal cut (the zero padding), G of the
state on a pure state, and on a 2 x 2 cut, where G is the concurrence,
Wootters' value. Those values come from ``RootMeasure.factor_branches`` on
the state's eigen-factor, as ``RootMeasure.density`` gives them; this module
adds only Wootters' optimal decomposition on a mixed 2 x 2 state
(``_wootters_members``). Elsewhere (a mixed d x d state, d > 2) the value
is an upper bound from a descent, which does not resolve a roof below about
4e-6 from 0: that is its floor at the det = 0 cusp.

The descent searches the standard isometry parameterization: with rho =
W W^dag (W = V sqrt(e), the ``jamiolkowski.eigen_factor`` in cut order that
every closed form takes too, r columns), every ensemble of m = r + 2 members
arises as |psi~_i> = sum_r U_ir w_r for an m x r isometry U. Because G is
homogeneous of degree one in the density operator, the objective is simply
sum_i G(|psi~_i>) on the unnormalized vectors, which keeps the search
landscape smooth. On a d x d cut G(|psi~>) = d |det C|^(2/d) for the d x d
coefficient matrix C of |psi~>, so the m members are scored as one (m, d, d)
stack by one determinant call, with no SVD (``measures.smoothed_determinant``,
which at eps = 0 is the LE's determinant kernel).

The optimizer is a gradient-only multistart over the Gaussian pre-image x of
the isometry (U = Q of the phase-fixed QR x = Q R; the parameterization of
Audenaert, Verstraete and De Moor, PRA 64, 052304 (2001)). |det C|^(2/d) has
a cusp at det C = 0, exactly where members become product vectors, so the
descent runs on the smoothed objective

    f_eps(x) = d sum_i [(|det C_i|^2 + eps^2)^(1/d) - eps^(2/d)],

smooth for eps > 0, below f and tending to f as eps -> 0, and lowers eps in
stages (``_EPS_SCHEDULE``). The schedule and the gradient stop test are
absolute, so an unnormalized state (trace t) descends at unit trace, on
W / sqrt(t), and its value, weights and restart values are scaled back by t:
the value is homogeneous in rho, as the roof is. Its exact gradient is carried
back through the QR to x. ``sampling.lockstep_lbfgs`` polishes every restart
at the first eps in lockstep, one batched QR and one batched determinant per
round; the three lowest go on through the smaller eps values, each stage
starting where the last ended. Every restart is scored by the exact f at its
final point and the lowest wins, so the descent's values carry UPPER-bound
semantics: the true roof can only be lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .jamiolkowski import eigen_factor
from .measures import (RootMeasure, _cut_or_default, _takagi_stack, smoothed_determinant,
                       takagi_factorization)
from .sampling import (flatten_complex, lockstep_lbfgs, phase_fixed_qr, phase_fixed_qr_backward,
                       seeded_starts, unflatten_complex)
from .states import DensityOperator, DimSpec, PureState, permute_factor


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
    """Knobs of the convex-roof descent: its restarts and their seed.

    Both apply only to the descent, which runs where ``needs_roof`` says so
    (mixed d x d states with d > 2) on ensembles of rank + 2 members; the
    closed forms read neither.
    """

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class DecompositionEnsemble:
    """Weighted pure-state decomposition of a density operator.

    ``restart_values`` holds the exact value at each restart's final point
    and ``restart_evaluations`` its objective evaluations, summed over its
    polish stages. ``winner`` is the restart with the lowest value, the one
    returned; ``converged`` says whether its last polish stage converged. On
    every closed form (where ``needs_roof`` is False) no descent runs:
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
        """sum_i p_i |psi_i><psi_i| at the trace sum_i p_i that the weights
        carry: normalized where that is 1, as on a normalized input."""
        vecs = np.array([s.amplitudes for s in self.states]).reshape(-1, dims.total_dim)
        trace = float(np.sum(self.weights))
        return DensityOperator((vecs.T * self.weights) @ vecs.conj(), dims,
                               normalized=abs(trace - 1.0) <= 1e-10)


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
    det C = 0), from ``measures.smoothed_determinant``, the formula the LE's
    determinant kernel takes at eps = 0; G_Q = G_C flattened against
    conj(w); then the backward pass of the phase-fixed QR x = Q R
    (``phase_fixed_qr_backward``).
    """
    q, r, mats = _ensemble_stack(x, w, d)
    a, g_c = smoothed_determinant(mats, eps)
    g_q = g_c.reshape(q.shape[:-1] + (-1,)) @ w.conj()
    value = d * (np.sum(a, axis=-1) - a.shape[-1] * eps ** (2.0 / d))
    return value, phase_fixed_qr_backward(q, r, g_q)


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


def _wootters_members(w: np.ndarray, dims: DimSpec):
    """Weights and members of Wootters' optimal decomposition of a two-qubit
    rho = w w^dag (parties in cut order, up to four columns).

    The Takagi factorization tau = Q diag(lam) Q^T of tau = w^T (sy x sy) w
    (Wootters, PRL 80, 2245 (1998); ``measures.takagi_factorization``) gives
    columns y = w conj(Q) with y^T (sy x sy) y = diag(lam), lam decreasing.
    C = lam_1 - lam_2 - lam_3 - lam_4 > 0: phases (1, i, i, i);
    else phases sqrt(u_j) with sum_j lam_j u_j = 0. Mixing the phased columns
    by the real 4 x 4 Hadamard over 2 gives members z_i with z_i^T (sy x sy) z_i
    = max(0, C) / 4 each and sum_i z_i z_i^dag = rho.
    """
    w = np.pad(w, ((0, 0), (0, 4 - w.shape[1])))
    lam, q = takagi_factorization(_takagi_stack(w))
    y = w @ q.conj()
    if lam[0] - np.sum(lam[1:]) > 0.0:
        phases = np.array([1.0, 1j, 1j, 1j])
    else:
        phases = np.sqrt(_closing_phases(lam))
    return _members((y * phases) @ _HADAMARD, dims)


def _descent(w: np.ndarray, dims: DimSpec, config: RoofConfig):
    """The eps-staged multistart descent over (r + 2)-member ensembles of rho =
    w w^dag (r columns, parties in cut order, a d x d cut): the lowest
    restart's value, an upper bound to the roof, and its ensemble."""
    d, r = math.isqrt(w.shape[0]), w.shape[1]
    m = r + 2

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
    and realizes the returned value. Where ``RootMeasure.needs_roof`` is
    False, the value is the closed form that ``RootMeasure.factor_branches``
    gives rho's ``eigen_factor`` in cut order, the one ``RootMeasure.density``
    and ``wootters_concurrence`` return, with Wootters' decomposition on a
    mixed 2 x 2 state and the eigen-ensemble elsewhere. Otherwise it is the
    descent, an upper bound that does not resolve a d > 2 roof below about
    4e-6 from 0. Homogeneous of degree one in rho; the zero operator gives 0
    and an empty ensemble.
    """
    if config is None:
        config = RoofConfig()
    left, right = _cut_or_default(rho.dims, cut)
    w, dims = permute_factor(eigen_factor(rho), rho.dims, left + right)
    measure = RootMeasure("gconcurrence")
    if not measure.needs_roof(dims, (left, right), np.sum(np.abs(w) ** 2, axis=0)):
        value = 0.0
        if w.shape[1]:  # the zero operator has no columns
            p, values, _ = measure.factor_branches(w[None], dims, (left, right))
            value = float(p[0] * values[0])
        wootters = w.shape[1] > 1 and dims.dim_of_labels(left) == dims.dim_of_labels(right) == 2
        members = _wootters_members(w, dims) if wootters else _members(w, dims)
        return value, DecompositionEnsemble(*members, value, True)
    # the eps schedule and the gradient stop test are absolute: descend at
    # unit trace and scale back, so the value is homogeneous in rho
    tr = 1.0 if rho.normalized else rho.trace
    value, ens = _descent(w / math.sqrt(tr), dims, config)
    return tr * value, replace(ens, weights=tr * ens.weights, value=tr * value,
                               restart_values=tuple(tr * v for v in ens.restart_values))
