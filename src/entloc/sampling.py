"""Seeded random quantum objects: Haar pure states and unitaries, fixed-rank
density operators, complete POVMs, and trace-preserving instruments; and the
seeded multi-start random search that the LE ascent and the convex roof share.

All sampling is deterministic given the generator/seed passed in; nothing here
touches global RNG state.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

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


def phase_fixed_qr_backward(q: np.ndarray, r: np.ndarray, g_q: np.ndarray) -> np.ndarray:
    """Carry a gradient through one phase-fixed QR x = Q R (x tall, Q and R
    from ``phase_fixed_qr``).

    Gradients are complex, G = df/dRe + i df/dIm of a real f. With
    M = Q^H G_Q and N = tril(M, -1) - tril(M^H, -1) + i diag(Im M), the
    gradient with respect to x is G_x = [Q N + (I - Q Q^H) G_Q] R^-H.
    """
    mq = q.conj().T @ g_q
    skew = np.tril(mq, -1) - np.tril(mq.conj().T, -1) + 1j * np.diag(np.diag(mq).imag)
    # G_x R^H = Q (N - M) + G_Q, solved as R G_x^H = (...)^H
    return solve_triangular(r, (q @ (skew - mq) + g_q).conj().T).conj().T


# iterations of proposal noise a restart draws per generator call; fixed, so
# the noise buffer does not grow with the iteration budget
_NOISE_BLOCK = 32


def lockstep_search(score, shapes, seed, restarts: int, max_iters: int, *,
                    accept: float, reset: float, shrink: float, patience: int,
                    stop: float):
    """Multi-start adaptive random local search maximizing ``score``, the
    restarts run in lockstep.

    A point is one complex pre-image per party, party i of shape
    ``shapes[i]`` (rows, cols); ``score`` maps per-party stacks with a
    leading restart axis to one value per restart. Restart j draws its start (party by party,
    real then imaginary part) and its noise from generator j of
    ``spawn_rngs(seed, restarts)``, ``_NOISE_BLOCK`` iterations per call, the
    same numbers as one call per draw. Iteration t adds step (0.5 at the
    start) times complex Gaussian noise to party t % n of every live restart
    and scores all the proposals in one call. A gain above ``accept`` is
    taken; one below ``reset`` still counts as stale. A rejection that makes
    the stale count a multiple of ``patience`` multiplies the step by
    ``shrink``; a step below ``stop`` ends the restart (converged).

    Returns per-restart ``(values, pre-images, converged, iterations)``, the
    pre-images as one (restarts, rows, cols) array per party.
    """
    n = len(shapes)
    sizes = [int(np.prod(s)) for s in shapes]
    rngs = spawn_rngs(seed, restarts)
    starts = [[rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
              for rng in rngs]
    x = [np.stack(party) for party in zip(*starts)]
    values = score(x)
    converged = np.zeros(restarts, dtype=bool)
    iterations = np.full(restarts, max_iters)
    # the state of the live restarts, compacted whenever one drops out
    ids, cur, xs = np.arange(restarts), values.copy(), [q.copy() for q in x]
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
        pval = score([prop if q == j else xq for q, xq in enumerate(xs)])
        better = pval > cur + accept
        stale += 1
        shrinking = stale % patience == 0
        if better.any():
            stale[better & (pval - cur >= reset)] = 0
            xs[j][better], cur[better] = prop[better], pval[better]
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
            if ids.size == 0:
                break
    values[ids] = cur
    for q in range(n):
        x[q][ids] = xs[q]
    return values, x, converged, iterations


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

