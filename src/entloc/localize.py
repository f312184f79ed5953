"""Localizable entanglement: the best average root-measure entanglement the
helper (Z-role) parties can steer onto the A-B pair with a product POVM.

``optimize_le`` is a seeded multi-start alternating ascent over per-party
rank-one POVMs and carries LOWER-bound semantics (the true maximum can only
be higher). ``grid_oracle_le`` is the independent brute-force check for a
single helper qubit: a Bloch-sphere grid of two-outcome projective
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .jamiolkowski import from_state
from .measures import RootMeasure
from .sampling import phase_fixed_qr
from .states import DensityOperator, DimSpec, DimensionError, PureState


@dataclass(frozen=True)
class ProductPOVM:
    """Finite POVM on the helper parties with tensor-product outcomes.

    ``factors[k][i]`` is the positive operator of outcome k on helper party i
    (party order given by ``z_labels``); the tensor products must sum to the
    identity.
    """

    z_labels: tuple[str, ...]
    factors: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        facs = tuple(
            tuple(np.asarray(f, dtype=np.complex128) for f in out) for out in self.factors
        )
        object.__setattr__(self, "factors", facs)
        if not facs:
            raise ValueError("POVM needs at least one outcome")
        for out in facs:
            if len(out) != len(self.z_labels):
                raise DimensionError("each outcome needs one factor per helper party")
            for f in out:
                if np.max(np.abs(f - f.conj().T)) > 1e-10:
                    raise ValueError("POVM factor not Hermitian")
                if np.linalg.eigvalsh(f)[0] < -1e-10:
                    raise ValueError("POVM factor not positive semidefinite")
        total = sum(self.element(k) for k in range(len(facs)))
        d = total.shape[0]
        if np.max(np.abs(total - np.eye(d))) > 1e-8:
            raise ValueError("POVM outcomes do not sum to the identity")

    @property
    def n_outcomes(self) -> int:
        return len(self.factors)

    def element(self, k: int) -> np.ndarray:
        """Full outcome operator on the joint helper space (kron over parties)."""
        out = self.factors[k][0]
        for f in self.factors[k][1:]:
            out = np.kron(out, f)
        return out

    @staticmethod
    def single_party(label: str, elements) -> "ProductPOVM":
        return ProductPOVM((label,), tuple((np.asarray(e),) for e in elements))


@dataclass(frozen=True)
class LEResult:
    """Outcome of one average / one LE search.

    ``value`` is the achieved average; for the optimizer it is a lower bound
    to the true localizable entanglement.
    """

    value: float
    povm: ProductPOVM
    branches: tuple[tuple[float, float], ...]  # (probability, branch measure value)
    converged: bool = True
    seed: int | None = None
    iterations: int = 0

    def to_dict(self, measure_name: str = "") -> dict:
        return {
            "value": self.value,
            "measure": measure_name,
            "bound": "lower",
            "converged": self.converged,
            "seed": self.seed,
            "iterations": self.iterations,
            "branches": [{"p": p, "branch_value": v} for p, v in self.branches],
            "povm": [
                [[[float(c.real), float(c.imag)] for c in f.ravel()] for f in out]
                for out in self.povm.factors
            ],
        }


@dataclass(frozen=True)
class LEConfig:
    """Knobs of the LE ascent; outcomes_per_party=None means local dim squared."""

    restarts: int = 16
    max_iters: int = 300
    outcomes_per_party: int | None = None
    tol: float = 1e-9
    seed: int = 0
    polish: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")

    @staticmethod
    def from_dict(doc: dict) -> "LEConfig":
        return LEConfig(
            restarts=int(doc.get("restarts", 16)),
            max_iters=int(doc.get("max_iters", 300)),
            outcomes_per_party=doc.get("outcomes_per_party"),
            tol=float(doc.get("tol", 1e-9)),
            seed=int(doc.get("seed", 0)),
            polish=bool(doc.get("polish", True)),
        )


def _y_cut(dims: DimSpec):
    dims.require_bipartite_roles()
    return dims.a_labels, dims.b_labels


def average_root_entanglement(rho: DensityOperator, povm: ProductPOVM,
                              measure: RootMeasure) -> LEResult:
    """Average branch entanglement for a fixed product POVM on the helpers.

    Every branch is the Jamiolkowski map of the state applied to one POVM
    element; all of them come from one contraction and are scored in one
    batched call. Null branches (probability below 1e-14) contribute zero.
    """
    if tuple(povm.z_labels) != tuple(rho.dims.z_labels):
        raise DimensionError(
            f"POVM helper labels {povm.z_labels} != state helper labels {rho.dims.z_labels}"
        )
    cut = _y_cut(rho.dims)
    jam = from_state(rho)
    elements = np.stack([povm.element(k) for k in range(povm.n_outcomes)])
    p, values = measure.operator_branches(jam.apply_physical(elements), jam.y_dims, cut)
    branches = tuple((float(pk), float(vk)) for pk, vk in zip(p, values))
    return LEResult(float(np.dot(p, values)), povm, branches)


# ---------------------------------------------------------------------------
# optimizer internals


def _rank1_factors(params: list[np.ndarray]) -> list[np.ndarray]:
    """Per-party isometries (K x d, orthonormal columns) from raw Gaussians."""
    return [phase_fixed_qr(x)[0] for x in params]


def _outcome_vectors(isos) -> np.ndarray:
    """Row-wise Kronecker product of the per-party isometries.

    Row k is the joint helper vector of outcome k, with outcomes in
    ``np.ndindex`` order over the parties (the last party varies fastest).
    """
    out = isos[0]
    for v in isos[1:]:
        out = (out[:, None, :, None] * v[None, :, None, :]).reshape(
            out.shape[0] * v.shape[0], out.shape[1] * v.shape[1])
    return out


def _povm_from_isometries(z_labels, isos) -> ProductPOVM:
    per_party = [
        [np.outer(v[k, :], v[k, :].conj()) for k in range(v.shape[0])] for v in isos
    ]
    factors = []
    for combo in np.ndindex(*[len(e) for e in per_party]):
        factors.append(tuple(per_party[i][c] for i, c in enumerate(combo)))
    return ProductPOVM(tuple(z_labels), tuple(factors))


class _PureEvaluator:
    """Vector form: pure global state, rank-one product outcomes.

    The branch of outcome k is the state tensor contracted with the conjugate
    outcome vector on the helper indices; one matrix product gives all of them
    as a (K, d_A, d_B) stack, scored by one batched SVD.
    """

    def __init__(self, psi: PureState, measure: RootMeasure):
        dims = psi.dims
        a, b = _y_cut(dims)
        self.da = dims.dim_of_labels(a)
        self.db = dims.dim_of_labels(b)
        measure.check_cut(self.da, self.db)
        axes = dims.axes_of(a + b + dims.z_labels)
        # (d_A d_B, d_Z): rows index the A-B pair, columns the joint helper space
        self.tensor = psi.as_tensor().transpose(axes).reshape(self.da * self.db, -1)
        self.measure = measure

    def average(self, isos) -> float:
        mats = (_outcome_vectors(isos).conj() @ self.tensor.T).reshape(-1, self.da, self.db)
        p, values = self.measure.vector_branches(mats)
        return float(np.dot(p, values))


class _DensityEvaluator:
    """Operator form: the Jamiolkowski map of a mixed global state, built once,
    applied to the stack of rank-one outcome projectors."""

    def __init__(self, rho: DensityOperator, measure: RootMeasure):
        a, b = self.cut = _y_cut(rho.dims)
        measure.check_cut(rho.dims.dim_of_labels(a), rho.dims.dim_of_labels(b))
        self.jam = from_state(rho)
        self.y_dims = self.jam.y_dims
        self.measure = measure

    def average(self, isos) -> float:
        w = _outcome_vectors(isos)
        q = w[:, :, None] * w[:, None, :].conj()
        p, values = self.measure.operator_branches(self.jam.apply_physical(q),
                                                   self.y_dims, self.cut)
        return float(np.dot(p, values))


def optimize_le(rho: DensityOperator, measure: RootMeasure,
                config: LEConfig | None = None) -> LEResult:
    """Seeded multi-start ascent over rank-one product POVMs on the helpers.

    Returns the best average found (a lower bound to the LE), together with
    the realizing POVM and its recomputed branch data.
    """
    if config is None:
        config = LEConfig()
    z_labels = rho.dims.z_labels
    if not z_labels:
        raise DimensionError("state has no helper (Z-role) parties")
    z_dims = [rho.dims.dim_of(lab) for lab in z_labels]
    n_out = [config.outcomes_per_party or d * d for d in z_dims]
    for k, d in zip(n_out, z_dims):
        if k < d:
            raise ValueError(f"outcomes per party must be >= local dimension ({k} < {d})")

    if rho.rank(tol=1e-11) == 1:
        evaluator = _PureEvaluator(rho.as_pure(), measure)
    else:
        evaluator = _DensityEvaluator(rho, measure)

    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(config.seed).spawn(config.restarts)]
    best_val = -np.inf
    best_isos = None
    total_iters = 0
    converged = False  # of the restart (or polish) that produced best_isos
    for rng in rngs:
        params = [rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
                  for k, d in zip(n_out, z_dims)]
        isos = _rank1_factors(params)
        val = evaluator.average(isos)
        step = 0.5
        stale = 0
        restart_converged = False
        for it in range(config.max_iters):
            total_iters += 1
            idx = it % len(params)
            prop = [p.copy() for p in params]
            prop[idx] = prop[idx] + step * (
                rng.standard_normal(prop[idx].shape) + 1j * rng.standard_normal(prop[idx].shape)
            )
            prop_isos = _rank1_factors(prop)
            pval = evaluator.average(prop_isos)
            if pval > val + config.tol / 10:
                gain = pval - val
                params, isos, val = prop, prop_isos, pval
                stale = stale + 1 if gain < config.tol else 0
            else:
                stale += 1
                if stale % (8 * len(params)) == 0:
                    step *= 0.5
            if step < 1e-5:
                restart_converged = True
                break
        if val > best_val:
            best_val = val
            best_isos = isos
            best_params = params
            converged = restart_converged

    if config.polish and best_isos is not None:
        shapes = [p.shape for p in best_params]
        sizes = [int(np.prod(s)) for s in shapes]

        def unflatten(flat):
            out = []
            off = 0
            for s, n in zip(shapes, sizes):
                re = flat[off : off + n].reshape(s)
                im = flat[off + n : off + 2 * n].reshape(s)
                out.append(re + 1j * im)
                off += 2 * n
            return out

        flat0 = np.concatenate(
            [np.concatenate([p.real.ravel(), p.imag.ravel()]) for p in best_params]
        )
        res = minimize(lambda f: -evaluator.average(_rank1_factors(unflatten(f))), flat0,
                       method="Powell",
                       options={"maxfev": 120 * flat0.size, "xtol": 1e-10, "ftol": 1e-12})
        if -res.fun > best_val:
            best_val = float(-res.fun)
            best_isos = _rank1_factors(unflatten(res.x))
            converged = bool(res.success)

    povm = _povm_from_isometries(z_labels, best_isos)
    result = average_root_entanglement(rho, povm, measure)
    return LEResult(result.value, povm, result.branches, converged=converged,
                    seed=config.seed, iterations=total_iters)


def grid_oracle_le(rho: DensityOperator, measure: RootMeasure,
                   resolution: int = 64) -> float:
    """Brute-force LE lower bound for a single helper qubit.

    Scans two-outcome projective measurements over a Bloch-angle grid; this is
    exhaustive within the projective class at the given resolution and stays
    independent of the ascent optimizer.
    """
    z_labels = rho.dims.z_labels
    if len(z_labels) != 1 or rho.dims.dim_of(z_labels[0]) != 2:
        raise DimensionError("grid oracle requires exactly one helper qubit")
    if rho.rank(tol=1e-11) == 1:
        evaluator = _PureEvaluator(rho.as_pure(), measure)
    else:
        evaluator = _DensityEvaluator(rho, measure)
    best = -np.inf
    # resolution counts intervals, so even resolutions sample theta = pi/2 exactly
    thetas = np.linspace(0.0, np.pi, resolution + 1)
    phis = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    for theta in thetas:
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        for phi in phis:
            up = np.array([c, np.exp(1j * phi) * s])
            down = np.array([-np.exp(-1j * phi) * s, c])
            val = evaluator.average([np.vstack([up, down])])
            best = max(best, val)
    return float(best)
