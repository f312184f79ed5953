"""Seeded random quantum objects: Haar pure states and unitaries, fixed-rank
density operators, complete POVMs, and trace-preserving instruments; and two
multi-start optimizers, each running its restarts in lockstep from the same
seeded Gaussian starts (``seeded_starts``): an L-BFGS descent, which the
convex roof and the LE search share wherever the gradient is exact, and a
random search, the LE's where it is not. The descent ends a row on
L-BFGS-B's tests and also at the rounding floor, where the next line search
could not resolve a decrease in f. Both descents map their pre-images to
isometries by one Gram-Cholesky kernel (``gram_cholesky_qr`` and its
backward pass), the phase-fixed QR (``phase_fixed_qr``) but for rounding,
with no Householder sweep, phase fix or triangular solve; the Haar
samplers and the random search take ``phase_fixed_qr`` itself.

All sampling is deterministic given the generator/seed passed in; nothing here
touches global RNG state.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .states import DimSpec, DensityOperator, PureState, ROLE_A, ROLE_B


def as_rng(seed) -> np.random.Generator:
    """Accept a seed, SeedSequence or Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """n independent child generators derived deterministically from seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def phase_fixed_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a matrix or a (..., rows, cols) stack with R's diagonal
    real and positive.

    The phase fix makes the factorization unique, so Q is a smooth function
    of x and a Ginibre x gives a Haar-distributed Q. A diagonal entry below
    1e-14 in modulus (rank-deficient x) keeps its phase.
    """
    q, r = np.linalg.qr(x)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phase = np.where(np.abs(diag) < 1e-14, 1.0, diag)
    phase = phase / np.abs(phase)
    return q * phase[..., None, :], r * phase.conj()[..., :, None]


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


@lru_cache(maxsize=None)
def _upper_half(c: int) -> np.ndarray:
    """c x c: ones above the diagonal, 1/2 on it, zeros below; read-only."""
    mask = np.triu(np.ones((c, c)), 1) + 0.5 * np.eye(c)
    mask.flags.writeable = False
    return mask


def gram_cholesky_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and L^-1 of x = Q L^H for a tall matrix or a (..., rows, cols)
    stack, with L = chol(x^H x) and Q = x L^-H (CholeskyQR; Fukaya et al.,
    "CholeskyQR2", 2014).

    In exact arithmetic this is ``phase_fixed_qr``'s factorization, R = L^H
    having a real positive diagonal, at the cost of one cols x cols Cholesky
    and one inverse per matrix. A matrix whose Gram is not numerically
    positive definite (rank-deficient or non-finite x) gets Q and L^-1 of
    NaN, and raises nothing; the others are computed as without it.
    """
    gram = _adjoint(x) @ x
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        l_inv = np.full_like(gram, np.nan)
        for i in np.ndindex(gram.shape[:-2]):
            try:
                l_inv[i] = np.linalg.inv(np.linalg.cholesky(gram[i]))
            except np.linalg.LinAlgError:
                pass
    return x @ _adjoint(l_inv), l_inv


def gram_cholesky_qr_backward(q: np.ndarray, l_inv: np.ndarray, g_q: np.ndarray) -> np.ndarray:
    """Carry a gradient through ``gram_cholesky_qr``'s x = Q L^H of a tall
    matrix or a (..., rows, cols) stack.

    Gradients are complex, G = df/dRe + i df/dIm of a real f. With
    M = Q^H G_Q and N = tril(M, -1) - tril(M^H, -1) + i diag(Im M), the
    gradient with respect to x is G_x = [Q N + (I - Q Q^H) G_Q] L^-1, taken
    as (G_Q - Q P) L^-1 with P = M - N, the Hermitian matrix of M's strict
    upper triangle and the real part of its diagonal.
    """
    half = (_adjoint(q) @ g_q) * _upper_half(q.shape[-1])
    return (g_q - q @ (half + _adjoint(half))) @ l_inv


def seeded_starts(seed, restarts: int, shapes):
    """Restart j's complex Gaussian start, drawn party by party (real then
    imaginary part) from generator j of ``spawn_rngs(seed, restarts)``.

    Returns the generators and the starts as one (restarts, rows, cols) stack
    per party of ``shapes``.
    """
    rngs = spawn_rngs(seed, restarts)
    starts = [[rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
              for rng in rngs]
    return rngs, [np.stack(party) for party in zip(*starts)]


def flatten_complex(stacks) -> np.ndarray:
    """(k, n) real rows of the L-BFGS descent from complex (k, rows, cols)
    stacks, one per party: real then imaginary parts, party by party."""
    return np.concatenate([part.reshape(len(part), -1) for a in stacks
                           for part in (a.real, a.imag)], axis=1)


def unflatten_complex(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Inverse of ``flatten_complex``, batched over any leading axes of ``flat``."""
    out, off = [], 0
    for shape in shapes:
        n = math.prod(shape)
        z = flat[..., off : off + n] + 1j * flat[..., off + n : off + 2 * n]
        out.append(z.reshape(flat.shape[:-1] + tuple(shape)))
        off += 2 * n
    return out


# iterations of proposal noise a restart draws per generator call; fixed, so
# the noise buffer does not grow with the iteration budget
_NOISE_BLOCK = 32


def lockstep_search(score, shapes, seed, restarts: int, max_iters: int, *,
                    accept: float, reset: float, shrink: float, patience: int,
                    stop: float, transform=None):
    """Multi-start adaptive random local search maximizing ``score``, the
    restarts run in lockstep.

    A point is one complex pre-image per party, party i of shape
    ``shapes[i]`` (rows, cols); ``score`` maps per-party stacks with a
    leading restart axis to one value per restart. With a ``transform``
    (for instance ``phase_fixed_qr(x)[0]``), ``score`` sees each party's
    transformed stack instead; the transformed stacks are kept next to the
    pre-images, so an iteration transforms only the party it moves. Restart j
    starts at its ``seeded_starts`` point and draws its noise from the same
    generator, ``_NOISE_BLOCK`` iterations per call, the same numbers as one
    call per draw. Iteration t adds step (0.5 at the start) times complex
    Gaussian noise to party t % n of every live restart and scores all the
    proposals in one call. A gain above ``accept`` is taken; one below
    ``reset`` still counts as stale. A rejection that makes the stale count a
    multiple of ``patience`` multiplies the step by ``shrink``; a step below
    ``stop`` ends the restart (converged).

    Returns per-restart ``(values, pre-images, converged, iterations)``, the
    pre-images as one (restarts, rows, cols) array per party.
    """
    n = len(shapes)
    sizes = [int(np.prod(s)) for s in shapes]
    rngs, x = seeded_starts(seed, restarts, shapes)
    # the state of the live restarts, compacted whenever one drops out
    ids, xs = np.arange(restarts), [q.copy() for q in x]
    ts = xs if transform is None else [transform(q) for q in xs]
    values = score(ts)
    converged = np.zeros(restarts, dtype=bool)
    iterations = np.full(restarts, max_iters)
    cur = values.copy()
    step, stale = np.full(restarts, 0.5), np.zeros(restarts, dtype=int)
    for t in range(max_iters):
        if t % _NOISE_BLOCK == 0:
            block = range(t, min(t + _NOISE_BLOCK, max_iters))
            noise = np.empty((ids.size, 2 * sum(sizes[i % n] for i in block)))
            for row, i in zip(noise, ids):
                rngs[i].standard_normal(out=row)
            off = 0
        j, size = t % n, sizes[t % n]
        re, im = noise[:, off:off + size], noise[:, off + size:off + 2 * size]
        off += 2 * size
        prop = xs[j] + step[:, None, None] * (re + 1j * im).reshape(
            (ids.size,) + tuple(shapes[j]))
        tprop = prop if transform is None else transform(prop)
        pval = score([tprop if q == j else tq for q, tq in enumerate(ts)])
        better = pval > cur + accept
        stale += 1
        shrinking = stale % patience == 0
        if better.any():
            stale[better & (pval - cur >= reset)] = 0
            xs[j][better], cur[better] = prop[better], pval[better]
            if ts is not xs:
                ts[j][better] = tprop[better]
            shrinking &= ~better
        step[shrinking] *= shrink
        done = step < stop
        if done.any():
            gone, keep = ids[done], ~done
            converged[gone], iterations[gone], values[gone] = True, t + 1, cur[done]
            for q in range(n):
                x[q][gone] = xs[q][done]
            ids, cur, step, stale, noise = ids[keep], cur[keep], step[keep], stale[keep], noise[keep]
            xs = [xq[keep] for xq in xs]
            ts = xs if transform is None else [tq[keep] for tq in ts]
            if ids.size == 0:
                break
    values[ids] = cur
    for q in range(n):
        x[q][ids] = xs[q]
    return values, x, converged, iterations


# L-BFGS-B's constants (Byrd, Lu, Nocedal and Zhu, SIAM J. Sci. Comput. 16,
# 1190 (1995)): the number of stored pairs; the Moré-Thuente line search's
# sufficient decrease, curvature and interval tolerances (ACM TOMS 20, 286
# (1994)), its evaluation cap and the largest step of an unconstrained search
_LBFGS_MEMORY = 10
_WOLFE_DECREASE, _WOLFE_CURVATURE, _WOLFE_XTOL = 1e-3, 0.9, 0.1
_SEARCH_EVALS = 20
_STEP_MAX = 1e10
# iterations after which a row stops by default (L-BFGS-B's default maxiter)
_ITERATION_CAP = 15000
# machine epsilon: the curvature test of a new pair and the rounding floor
_EPS = float(np.finfo(float).eps)


def _cubic_terms(sa, fa, da, sb, fb, db):
    """theta and gamma (unsigned) of the cubic through (sa, fa, da) and
    (sb, fb, db), scaled by the largest of |theta|, |da| and |db| as dcstep
    scales them."""
    theta = 3.0 * (fa - fb) / (sb - sa) + da + db
    s = max(abs(theta), abs(da), abs(db))
    return theta, s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))


def _cubic_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stmin, stmax):
    """One safeguarded trial step of the Moré-Thuente search (MINPACK-2
    dcstep): the cubic or quadratic interpolant's minimizer, kept inside the
    bracket. Returns the updated (stx, fx, dx, sty, fy, dy, stp, brackt)."""
    opposite = (dp > 0 > dx) or (dp < 0 < dx)
    if fp > fx:  # higher value: the minimum is bracketed
        theta, gamma = _cubic_terms(stx, fx, dx, stp, fp, dp)
        if stp < stx:
            gamma = -gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:  # lower value, derivative changed sign: bracketed
        theta, gamma = _cubic_terms(stx, fx, dx, stp, fp, dp)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # lower value, same sign, smaller slope
        theta, gamma = _cubic_terms(stx, fx, dx, stp, fp, dp)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stmax if stp > stx else stmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(stmax, max(stmin, stpf))
    elif brackt:  # lower value, same sign, no smaller slope
        theta, gamma = _cubic_terms(sty, fy, dy, stp, fp, dp)
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stmax if stp > stx else stmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


class _WolfeSearch:
    """The Moré-Thuente line search (MINPACK-2 dcsrch) of one row, driven one
    trial at a time: a step satisfying the strong Wolfe conditions
    f(stp) <= f(0) + 1e-3 stp f'(0) and |f'(stp)| <= 0.9 |f'(0)|.

    ``trial`` takes f and f' at ``stp`` and returns None while it wants
    another trial (now in ``stp``), "wolfe" when the conditions hold and
    "stalled" when the bracket can shrink no further or rounding stops it.
    """

    def __init__(self, f0: float, g0: float, stp: float):
        self.stp, self.evals = stp, 0
        self.brackt, self.stage = False, 1
        self.finit, self.ginit, self.gtest = f0, g0, _WOLFE_DECREASE * g0
        self.width, self.width1 = _STEP_MAX, 2.0 * _STEP_MAX
        self.best = (0.0, f0, g0)   # stx, fx, gx: the step of least value
        self.other = (0.0, f0, g0)  # sty, fy, gy: the bracket's other end
        self.stmin, self.stmax = 0.0, 5.0 * stp

    def trial(self, f: float, g: float):
        self.evals += 1
        stp = self.stp
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0:
            self.stage = 2
        if f <= ftest and abs(g) <= _WOLFE_CURVATURE * -self.ginit:
            return "wolfe"
        if (self.brackt and (stp <= self.stmin or stp >= self.stmax
                             or self.stmax - self.stmin <= _WOLFE_XTOL * self.stmax)
                or (stp == _STEP_MAX and f <= ftest and g <= self.gtest)
                or (stp == 0.0 and (f > ftest or g >= self.gtest))):
            return "stalled"
        (stx, fx, gx), (sty, fy, gy) = self.best, self.other
        try:
            if self.stage == 1 and fx >= f > ftest:
                # a lower value without enough decrease: step on the
                # modified function psi(stp) = f(stp) - f(0) - 1e-3 stp f'(0)
                gt = self.gtest
                stx, fx, gx, sty, fy, gy, stp, self.brackt = _cubic_step(
                    stx, fx - stx * gt, gx - gt, sty, fy - sty * gt, gy - gt,
                    stp, f - stp * gt, g - gt, self.brackt, self.stmin, self.stmax)
                fx, fy, gx, gy = fx + stx * gt, fy + sty * gt, gx + gt, gy + gt
            else:
                stx, fx, gx, sty, fy, gy, stp, self.brackt = _cubic_step(
                    stx, fx, gx, sty, fy, gy, stp, f, g, self.brackt, self.stmin, self.stmax)
        except (ZeroDivisionError, OverflowError):
            return "stalled"
        self.best, self.other = (stx, fx, gx), (sty, fy, gy)
        if self.brackt:
            if abs(sty - stx) >= 0.66 * self.width1:  # too slow a shrink: bisect
                stp = stx + 0.5 * (sty - stx)
            self.width1, self.width = self.width, abs(sty - stx)
            self.stmin, self.stmax = min(stx, sty), max(stx, sty)
        else:
            self.stmin, self.stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(_STEP_MAX, max(0.0, stp))
        if self.brackt and (stp <= self.stmin or stp >= self.stmax
                            or self.stmax - self.stmin <= _WOLFE_XTOL * self.stmax):
            stp = stx  # the last trial: the best step so far
        if not math.isfinite(stp):
            return "stalled"
        self.stp = stp
        return None


def _lbfgs_direction(g, s, y, rinv, dsy, h0) -> np.ndarray:
    """-H g per row, H the L-BFGS inverse Hessian of the row's stored pairs in
    its compact form (Byrd, Nocedal and Schnabel, Math. Prog. 63, 129 (1994)):
    H g = h0 g + S^T p - h0 Y^T u, u = R^-1 S g and p = R^-T [D u + h0 Y (Y^T u
    - g)], with S and Y the (k, 10, n) stacks of pairs, R the products
    s_i . y_j of s_i not newer than y_j, ``rinv`` its inverse and ``dsy`` its
    diagonal, all in the same slot order; empty slots hold zeros and add
    nothing."""
    h = h0[:, None, None]
    u = rinv @ (s @ g[..., None])
    ytu = y.swapaxes(-1, -2) @ u
    p = rinv.swapaxes(-1, -2) @ (dsy[..., None] * u + h * (y @ (ytu - g[..., None])))
    return -(h0[:, None] * g + (s.swapaxes(-1, -2) @ p - h * ytu)[..., 0])


# stop codes of ``lockstep_lbfgs``, 0 while a row runs
_STOPS = ("", "gtol", "ftol", "line search", "max_iters")
_GTOL, _FTOL, _LINE_SEARCH, _MAX_ITERS = 1, 2, 3, 4


def lockstep_lbfgs(fun_and_grad, x0, *, ftol: float, gtol: float,
                   max_iters: int = _ITERATION_CAP):
    """Minimize from every row of ``x0`` by L-BFGS with a strong Wolfe line
    search, the rows run in lockstep.

    ``fun_and_grad`` maps a (k, n) stack of real points to (k,) values and
    (k, n) gradients; every line-search trial of every live row goes through
    one call. Each row keeps its own memory of the last 10 (s, y) pairs, its
    own line search (the first trial step 1 / ||d||, then 1) and its own stop
    tests, those of L-BFGS-B: ||g||_inf <= ``gtol`` ("gtol"), a relative
    reduction (f_old - f) / max(|f_old|, |f|, 1) <= ``ftol`` ("ftol"), or
    ``max_iters`` iterations ("max_iters"; with 0 every row that does not
    meet the gradient test stops at its start). A new search whose predicted
    decrease at step 1, -g . d, is at most machine epsilon times |f| cannot
    resolve a decrease in f; the row stops there ("ftol" too) instead of
    spending trials on rounding noise. A line search that takes 20
    evaluations, ends without lowering f, or meets a direction that is not
    one of descent stops the row at its last point ("line search",
    ``success`` False). A row's path does not depend on the other rows.

    Returns per-row ``(x, f, iterations, evaluations, success, stop)``.
    """
    x_out = np.array(x0, dtype=float)
    k, n = x_out.shape
    f_out, g = (np.array(a, dtype=float) for a in fun_and_grad(x_out))
    iterations, evaluations = [0] * k, [1] * k
    stop = [_GTOL if gmax <= gtol else _MAX_ITERS if max_iters <= 0 else 0
            for gmax in np.max(np.abs(g), axis=1).tolist()]
    # the state of the live rows, compacted whenever one stops. In arrays:
    # the point, the gradient, the direction and the memory, a ring of 10
    # slots (pairs, R^-1 and diag R in slot order; the next slot to write;
    # the H0 scale). In lists: the row's index, value, slope along the
    # direction at the point, trial step, line search and stop code.
    ids = [i for i in range(k) if not stop[i]]
    m = len(ids)
    x, g = x_out[ids], g[ids]
    s_mem, y_mem = np.zeros((m, _LBFGS_MEMORY, n)), np.zeros((m, _LBFGS_MEMORY, n))
    rinv = np.zeros((m, _LBFGS_MEMORY, _LBFGS_MEMORY))
    dsy, head, h0 = np.zeros((m, _LBFGS_MEMORY)), np.zeros(m, dtype=int), np.ones(m)
    d = -g  # steepest descent first, tried at step 1 / ||d||
    f, slope0 = f_out[ids].tolist(), np.sum(g * d, axis=1).tolist()
    stp = np.minimum(1.0 / np.linalg.norm(d, axis=1), _STEP_MAX).tolist()
    searches = [_WolfeSearch(*a) for a in zip(f, slope0, stp)]
    ended = [0] * m
    while True:
        if any(ended):
            keep = [j for j, code in enumerate(ended) if not code]
            for j, code in enumerate(ended):
                if code:
                    x_out[ids[j]], f_out[ids[j]], stop[ids[j]] = x[j], f[j], code
            x, g, d, s_mem, y_mem, rinv, dsy, head, h0 = (
                a[keep] for a in (x, g, d, s_mem, y_mem, rinv, dsy, head, h0))
            ids, f, slope0, stp, searches = ([a[j] for j in keep]
                                             for a in (ids, f, slope0, stp, searches))
            ended = [0] * len(ids)
        if not ids:
            break
        steps = np.array(stp)
        xt = x + steps[:, None] * d
        ft, gt = (np.array(a, dtype=float) for a in fun_and_grad(xt))
        for i in ids:
            evaluations[i] += 1
        slopes = np.sum(gt * d, axis=1).tolist()
        found, ft = [], ft.tolist()  # rows whose line search found a step
        for j, fj in enumerate(ft):
            slope, search = slopes[j], searches[j]
            end = (search.trial(fj, slope) if math.isfinite(fj) and math.isfinite(slope)
                   else "stalled")
            if end is None:
                stp[j] = search.stp
                if search.evals >= _SEARCH_EVALS:
                    ended[j] = _LINE_SEARCH
            elif fj < f[j]:
                found.append(j)
            else:  # nothing gained: stay at the last point
                ended[j] = _LINE_SEARCH
        if not found:
            continue
        if len(found) == len(ids):
            y, x, g = gt - g, xt, gt
        else:
            found = np.array(found)
            y = gt[found] - g[found]
            x[found], g[found] = xt[found], gt[found]
        fresh, new, new_sy = [], [], []
        for a, (j, gmax) in enumerate(zip(found, np.max(np.abs(g[found]), axis=1).tolist())):
            f_old, f[j] = f[j], ft[j]
            iterations[ids[j]] += 1
            sy = stp[j] * (slopes[j] - slope0[j])
            if gmax <= gtol:
                ended[j] = _GTOL
            elif f_old - f[j] <= ftol * max(abs(f_old), abs(f[j]), 1.0):
                ended[j] = _FTOL
            elif iterations[ids[j]] >= max_iters:
                ended[j] = _MAX_ITERS
            else:
                fresh.append(j)
                # a pair without positive curvature is skipped (L-BFGS-B's rule)
                if sy > _EPS * -stp[j] * slope0[j]:
                    new.append((a, j))
                    new_sy.append(sy)
        if new:
            # the new pair takes the ring's next slot, the oldest pair's once
            # the memory is full; R^-1 of the pairs that stay is R^-1 without
            # the oldest pair's row and column, the oldest being first in R.
            # Where every live row takes a pair the memory is updated in place.
            pos, rows = (np.array(a) for a in zip(*new))
            whole = rows.size == len(ids)
            sy, slot, row = np.array(new_sy), head[rows], np.arange(rows.size)
            ri, s_rows, y_new, s_new = ((rinv, s_mem, y, steps[:, None] * d) if whole else
                                        (rinv[rows], s_mem[rows], y[pos],
                                         steps[rows, None] * d[rows]))
            ri[row, slot], ri[row, :, slot] = 0.0, 0.0
            s_rows[row, slot] = s_new
            col = (ri @ (s_rows @ y_new[..., None]))[..., 0] / -sy[:, None]
            col[row, slot] = 1.0 / sy
            ri[row, :, slot] = col
            if not whole:
                rinv[rows], s_mem[rows] = ri, s_rows
            y_mem[rows, slot], dsy[rows, slot] = y_new, sy
            head[rows] = (slot + 1) % _LBFGS_MEMORY
            h0[rows] = sy / (y_new * y_new).sum(axis=1)
        if not fresh:
            continue
        # a new direction and line search, first trial step 1, where one
        # ended; only those rows' directions are computed
        rows = slice(None) if len(fresh) == len(ids) else np.array(fresh)
        g_rows = g[rows]
        d[rows] = d_rows = _lbfgs_direction(g_rows, s_mem[rows], y_mem[rows], rinv[rows],
                                            dsy[rows], h0[rows])
        slopes = np.sum(g_rows * d_rows, axis=1).tolist()
        for j, slope in zip(fresh, slopes):
            if not slope < 0:
                ended[j] = _LINE_SEARCH
            elif -slope <= _EPS * abs(f[j]):
                # the predicted decrease at step 1 is below the rounding of
                # f: no trial can resolve a decrease, so f has converged
                ended[j] = _FTOL
            else:
                slope0[j], stp[j], searches[j] = slope, 1.0, _WolfeSearch(f[j], slope, 1.0)
    return (x_out, f_out, np.array(iterations), np.array(evaluations),
            np.array([code in (_GTOL, _FTOL) for code in stop]),
            tuple(_STOPS[code] for code in stop))


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-random d x d unitary via QR of a Ginibre matrix with phase fix."""
    return phase_fixed_qr(_ginibre(as_rng(rng), d, d))[0]


def random_isometry(rows: int, cols: int, rng) -> np.ndarray:
    """rows x cols matrix with orthonormal columns (rows >= cols)."""
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} x {cols}")
    return phase_fixed_qr(_ginibre(as_rng(rng), rows, cols))[0]


def _pair_spec(d: int) -> DimSpec:
    return DimSpec.make(("A", d, ROLE_A), ("B", d, ROLE_B))


def random_pure(dims: DimSpec | int, rng) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector).

    An integer d is shorthand for a two-party d x d A/B layout.
    """
    rng = as_rng(rng)
    spec = _pair_spec(dims) if isinstance(dims, int) else dims
    vec = _ginibre(rng, spec.total_dim, 1).ravel()
    return PureState(vec / np.linalg.norm(vec), spec)


def random_density(dims: DimSpec, rng, rank: int | None = None) -> DensityOperator:
    """Random density operator of the given rank via a Haar purification.

    The state is the reduced operator of a Haar-random pure vector on
    system x (rank)-dimensional ancilla; rank defaults to the full dimension.
    """
    rng = as_rng(rng)
    d = dims.total_dim
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range 1..{d}")
    g = _ginibre(rng, d, rank)
    mat = g @ g.conj().T
    return DensityOperator(mat / np.trace(mat).real, dims)


def random_povm(d: int, outcomes: int, rng) -> list[np.ndarray]:
    """Complete POVM with the given number of outcomes on a d-level system.

    Built from an isometry V: C^d -> C^outcomes ⊗ C^d by slicing row blocks,
    so completeness holds by construction.
    """
    if outcomes < 1:
        raise ValueError("need at least one outcome")
    rng = as_rng(rng)
    v = random_isometry(outcomes * d, d, rng)
    elements = []
    for k in range(outcomes):
        block = v[k * d : (k + 1) * d, :]
        elements.append(block.conj().T @ block)
    return elements


def random_rank1_povm(d: int, outcomes: int, rng) -> list[np.ndarray]:
    """Complete POVM with rank-one elements a_k a_k^dag (outcomes >= d)."""
    if outcomes < d:
        raise ValueError(f"rank-one POVM needs outcomes >= d, got {outcomes} < {d}")
    rng = as_rng(rng)
    v = random_isometry(outcomes, d, rng)
    return [np.outer(v[k, :].conj(), v[k, :]) for k in range(outcomes)]


def random_instrument(d: int, n_outcomes: int, kraus_per_outcome, rng) -> list[list[np.ndarray]]:
    """Trace-preserving instrument: outcome j carries Kraus list {M_jk}.

    ``kraus_per_outcome`` is an int or a length-n_outcomes list. Raw Ginibre
    Kraus operators are right-normalized by S^{-1/2}, S = sum M^dag M.
    """
    rng = as_rng(rng)
    if isinstance(kraus_per_outcome, int):
        kraus_per_outcome = [kraus_per_outcome] * n_outcomes
    if len(kraus_per_outcome) != n_outcomes:
        raise ValueError("kraus_per_outcome length mismatch")
    raw = [[_ginibre(rng, d, d) for _ in range(nk)] for nk in kraus_per_outcome]
    s = sum(m.conj().T @ m for ms in raw for m in ms)
    evals, evecs = np.linalg.eigh(s)
    s_inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [[m @ s_inv_sqrt for m in ms] for ms in raw]

