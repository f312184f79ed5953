"""Localizable entanglement: the best average root-measure entanglement the
helper (Z-role) parties can steer onto the A-B pair with a product POVM.

``optimize_le`` has one closed form: with one helper on a pure state with a
2 x 2 cut, under the concurrence or G, the LE is the concurrence of
assistance, reached by the projective measurement of d_Z outcomes on the
helper's Takagi basis (``_takagi_measurement``); its value is exact.
Everywhere else it searches rank-one product POVMs (``_search``), d^2
outcomes per helper of dimension d, each party's outcomes being the rows of
an isometry Q from the phase-fixed QR of a Gaussian pre-image x, from seeded
restarts run in lockstep. The input picks the one descent every restart
runs. Where the branches have a closed-form kernel
(``RootMeasure.kernel``: on a pure state the determinant kernel for
concurrence and G on an equal cut and the Schmidt kernel otherwise, the
Takagi kernel for concurrence and G on a mixed 2 x 2 cut) it is
``sampling.lockstep_lbfgs``, the convex roof's descent too, on the kernel's
exact gradient of the branch average (the pattern of Audenaert, Verstraete
and De Moor, PRA 64, 052304 (2001)), carried back through the row-wise
Kronecker product of the outcome vectors and the QR to x, for every restart
in one pass (the helpers' pre-images of one shape in one QR). The remaining
cases (G on a larger mixed cut, entropy on a mixed state) run the
random-step search ``sampling.lockstep_search`` alone. Every branch comes
from the state's Jamiolkowski map (``jamiolkowski``), built once per call
from its eigen-factor (a ``PureState`` is its own one-column factor): the
search scores its winner on its own evaluator's branches, so the value
``optimize_le`` reports is the value its search reached, and
``average_root_entanglement`` scores a fixed POVM on the same contraction,
its elements factored by their eigendecomposition. The
search's values carry LOWER-bound semantics (the true maximum can only be
higher) unless a live branch took a convex-roof solve, itself an upper
bound; such a value is labelled an estimate.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .jamiolkowski import from_state
from .measures import RootMeasure, _takagi_stack, takagi_factorization
from .sampling import (flatten_complex, lockstep_lbfgs, lockstep_search, phase_fixed_qr,
                       phase_fixed_qr_backward, seeded_starts, unflatten_complex)
from .states import DensityOperator, DimensionError, PureState

# fixed stop tests of the L-BFGS descent: relative reduction, largest |gradient|
_LBFGS_FTOL, _LBFGS_GTOL = 1e-15, 1e-10
# the random search takes a gain above _ACCEPT; one below _RESET still counts
# as stale
_ACCEPT, _RESET = 1e-10, 1e-9
# restarts within this share of the best value reached it too
_SAME_VALUE = 1e-12


@dataclass(frozen=True)
class ProductPOVM:
    """Finite POVM on the helper parties with tensor-product outcomes.

    ``factors[k][i]`` is the positive operator of outcome k on helper party i
    (party order given by ``z_labels``); the tensor products must sum to the
    identity. Each party's factors are checked as one (K, d_i, d_i) stack:
    finite, Hermitian within 1e-10 and no eigenvalue below -1e-10; the
    products' sum, from one batched Kronecker product, within 1e-8 of I.
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
        if not self.z_labels:
            raise DimensionError("POVM needs at least one helper party")
        if any(len(out) != len(self.z_labels) for out in facs):
            raise DimensionError("each outcome needs one factor per helper party")
        stacks = self._party_stacks()
        if not all(np.all(np.isfinite(s)) for s in stacks):
            raise ValueError("POVM factor has non-finite entries")
        if max(np.max(np.abs(s - s.conj().swapaxes(1, 2))) for s in stacks) > 1e-10:
            raise ValueError("POVM factor not Hermitian")
        if min(np.min(np.linalg.eigvalsh(s)[:, 0]) for s in stacks) < -1e-10:
            raise ValueError("POVM factor not positive semidefinite")
        total = _kron(stacks).sum(axis=0)
        if np.max(np.abs(total - np.eye(len(total)))) > 1e-8:
            raise ValueError("POVM outcomes do not sum to the identity")

    def _party_stacks(self) -> list[np.ndarray]:
        """One (K, d_i, d_i) stack of the outcomes' factors per helper party."""
        return [np.stack(party) for party in zip(*self.factors)]

    @property
    def n_outcomes(self) -> int:
        return len(self.factors)

    def element(self, k: int) -> np.ndarray:
        """Full outcome operator on the joint helper space (kron over parties)."""
        return _kron(self.factors[k])

    def elements(self) -> np.ndarray:
        """(K, D, D) stack of every outcome's ``element``."""
        return _kron(self._party_stacks())

    @staticmethod
    def single_party(label: str, elements) -> "ProductPOVM":
        return ProductPOVM((label,), tuple((np.asarray(e),) for e in elements))


@dataclass(frozen=True)
class LEResult:
    """Outcome of one average / one LE search.

    ``value`` is the achieved average; for the search it is a lower bound
    to the true localizable entanglement. ``bound`` says so ("lower") unless
    a live branch took a convex-roof solve (``RootMeasure.factor_branches``),
    whose value is an upper bound: the average is then an "estimate". The
    LE's closed form is "exact", converged, with no restarts and ``winner``
    None. For the search, ``converged`` is True when a restart within 1e-12
    (relative) of the winning value stopped on its test (L-BFGS: gtol or
    ftol, ftol including a next search whose predicted decrease is below the
    rounding of f; the search: its step rule), though ``winner`` itself may
    have stopped on "line search".
    """

    value: float
    povm: ProductPOVM
    branches: tuple[tuple[float, float], ...]  # (probability, branch measure value)
    converged: bool = True
    seed: int | None = None
    iterations: int = 0  # summed over the restarts
    evaluations: int = 0  # objective evaluations, summed over the restarts
    # per restart: final value and iterations run; ``winner`` is the first
    # restart with the best value, the one returned
    restart_values: tuple[float, ...] = ()
    restart_iterations: tuple[int, ...] = ()
    winner: int | None = None
    bound: str = "lower"

    def to_dict(self, measure_name: str = "") -> dict:
        return {
            "value": self.value,
            "measure": measure_name,
            "bound": self.bound,
            "converged": self.converged,
            "seed": self.seed,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "restart_values": list(self.restart_values),
            "restart_iterations": list(self.restart_iterations),
            "winner": self.winner,
            "branches": [{"p": p, "branch_value": v} for p, v in self.branches],
            "povm": [
                [[[float(c.real), float(c.imag)] for c in f.ravel()] for f in out]
                for out in self.povm.factors
            ],
        }


@dataclass(frozen=True)
class LEConfig:
    """Budget of the LE search: the restarts, each restart's iteration cap
    (of its L-BFGS descent or its random search) and the seed. In the search
    each helper party of local dimension d measures d^2 outcomes. The LE's
    closed form (one helper on a pure state with a 2 x 2 cut, under the
    concurrence or G) reads none of them."""

    restarts: int = 16
    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


def average_root_entanglement(rho: PureState | DensityOperator, povm: ProductPOVM,
                              measure: RootMeasure) -> LEResult:
    """Average branch entanglement for a fixed product POVM on the helpers.

    The branches come from the state's Jamiolkowski map
    (``JamiolkowskiMap.povm_branch_factors``), the contraction the evaluator
    of ``optimize_le`` runs, and are scored in one batched call, as the
    optimizer scores them. Null branches (probability below 1e-14)
    contribute zero. The result's ``bound`` is "estimate" when the scorer
    reports a live branch roofed, "lower" otherwise.
    """
    if tuple(povm.z_labels) != tuple(rho.dims.z_labels):
        raise DimensionError(
            f"POVM helper labels {povm.z_labels} != state helper labels {rho.dims.z_labels}"
        )
    evaluator = _FactorEvaluator(rho, measure)
    return _scored_result(povm, *measure.factor_branches(
        evaluator.jam.povm_branch_factors(povm.elements()), evaluator.y_dims, evaluator.cut))


def _scored_result(povm: ProductPOVM, p: np.ndarray, values: np.ndarray, roofed: np.ndarray,
                   **fields) -> LEResult:
    """The LEResult of ``povm`` from its scored branches (``factor_branches``):
    their average, and the bound "estimate" where a live branch was roofed,
    "lower" otherwise, unless ``fields`` says otherwise."""
    fields.setdefault("bound", "estimate" if roofed.any() else "lower")
    return LEResult(float(np.dot(p, values)), povm,
                    tuple((float(pk), float(vk)) for pk, vk in zip(p, values)), **fields)


# ---------------------------------------------------------------------------
# optimizer internals


def _kron(mats) -> np.ndarray:
    """Kronecker product of the last two axes of ``mats``, batched over any
    leading axes.

    On the per-party isometries, row k is the joint helper vector of outcome
    k, with outcomes in ``np.ndindex`` order over the parties (the last party
    varies fastest); on the per-party stacks of a ``ProductPOVM``, entry k is
    outcome k's element.
    """
    out = mats[0]
    for v in mats[1:]:
        out = (out[..., :, None, :, None] * v[..., None, :, None, :]).reshape(
            out.shape[:-2] + (out.shape[-2] * v.shape[-2], out.shape[-1] * v.shape[-1]))
    return out


def _kron_backward(isos, g_w: np.ndarray) -> list[np.ndarray]:
    """Per-party gradients from the gradient of ``_kron(isos)``, batched over
    any leading axes.

    Gradients are complex, G = df/dRe + i df/dIm of a real f; party j's is
    G_W contracted with the conjugates of every other party's isometry (with
    one party, G_W itself).
    """
    n = len(isos)
    if n == 1:
        return [g_w]
    ks, zs = string.ascii_lowercase[:n], string.ascii_uppercase[:n]
    g = g_w.reshape(g_w.shape[:-2] + tuple(v.shape[-2] for v in isos)
                    + tuple(v.shape[-1] for v in isos))
    out = []
    for j in range(n):
        others = [i for i in range(n) if i != j]
        spec = ("..." + ks + zs + "".join(f",...{ks[i]}{zs[i]}" for i in others)
                + f"->...{ks[j]}{zs[j]}")
        out.append(np.einsum(spec, g, *[isos[i].conj() for i in others]))
    return out


def _povm_from_isometries(z_labels, isos) -> ProductPOVM:
    """The rank-one product POVM whose party-i factors are the projectors on
    the rows of isometry i, outcomes in ``_kron`` order."""
    per_party = [v[:, :, None] * v[:, None, :].conj() for v in isos]
    return ProductPOVM(tuple(z_labels), tuple(
        tuple(e[c] for e, c in zip(per_party, combo))
        for combo in np.ndindex(*[len(v) for v in isos])))


def _shape_groups(arrays) -> list[list[int]]:
    """Indices of each group of equal-shaped ``arrays``, in order of first
    appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, a in enumerate(arrays):
        groups.setdefault(a.shape, []).append(i)
    return list(groups.values())


def _stacked(arrays, idx: list[int]) -> np.ndarray:
    """``arrays[i]`` for i in ``idx`` stacked on a new leading axis; a lone
    array as it is."""
    return arrays[idx[0]] if len(idx) == 1 else np.stack([arrays[i] for i in idx])


def _unstacked(groups, stacks, n: int) -> list[np.ndarray]:
    """The n arrays of the ``_stacked`` groups, back in index order."""
    out = [None] * n
    for idx, stack in zip(groups, stacks):
        for i, a in zip(idx, [stack] if len(idx) == 1 else stack):
            out[i] = a
    return out


class _FactorEvaluator:
    """Branch averages of one state over rank-one product outcomes on its
    Jamiolkowski map across (A..., B...) | Z: one ``branch_factors`` product
    gives the (K, d_A d_B, r) branch factors of K outcome vectors, scored by
    ``RootMeasure.factor_branches``.

    ``average_and_gradient`` carries the exact gradient back to the Gaussian
    pre-images where the branches have a closed-form kernel
    (``RootMeasure.kernel``, chosen once here; ``exact_gradient`` says
    whether there is one): r = 1 under every root, and r > 1 on a 2 x 2 cut
    under concurrence and G. The remaining cases (G on a larger mixed cut,
    entropy on a mixed state) have values only (``averages``).
    ``closed_form`` says whether the LE itself has one, the concurrence of
    assistance: r = 1, one helper party and a 2 x 2 cut, under concurrence
    or G.
    """

    def __init__(self, rho: PureState | DensityOperator, measure: RootMeasure):
        dims = rho.dims
        dims.require_bipartite_roles()
        a, b = self.cut = dims.a_labels, dims.b_labels
        self.da, self.db = dims.dim_of_labels(a), dims.dim_of_labels(b)
        measure.check_cut(self.da, self.db)
        self.jam = from_state(rho, a + b, dims.z_labels)
        self.y_dims, self.r = self.jam.y_dims, self.jam.factor.shape[-1]
        self.measure = measure
        self.kernel = measure.kernel(self.da, self.db, self.r)
        self.exact_gradient = self.kernel is not None
        self.closed_form = (self.r == 1 and len(dims.z_labels) == 1
                            and (self.da, self.db) == (2, 2) and measure.kind != "entropy")

    def branches(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(probabilities, values, roofed) of the branches of a (K, d_Z) stack
        of outcome vectors, by ``RootMeasure.factor_branches``."""
        return self.measure.factor_branches(self.jam.branch_factors(w), self.y_dims, self.cut)

    def averages(self, isos) -> np.ndarray:
        """Averages of a batch of POVMs, party i's isometries a (R, K_i, d_i)
        stack: all R K branches are scored in one call."""
        w = _kron(isos)
        p, values, _ = (a.reshape(w.shape[:2])
                        for a in self.branches(w.reshape(-1, w.shape[-1])))
        # row-by-column products: numpy's dot, one per restart
        return (p[:, None, :] @ values[:, :, None])[:, 0, 0]

    def average(self, isos) -> float:
        return float(self.averages([v[None] for v in isos])[0])

    def average_and_gradient(self, params) -> tuple[np.ndarray, list[np.ndarray]]:
        """Averages at the pre-images ``params`` (one (..., K_i, d_i) stack per
        helper party, batched over the leading axes) and their gradients with
        respect to each, G = df/dRe x + i df/dIm x: through the branch
        factors, the outcome vectors and the phase-fixed QR, each step one
        call for the whole batch, the parties' pre-images of one shape
        stacked into one QR and one QR backward."""
        groups = _shape_groups(params)
        qrs = [phase_fixed_qr(_stacked(params, idx)) for idx in groups]
        isos = _unstacked(groups, [q for q, _ in qrs], len(params))
        w = _kron(isos)
        _, values, g_f = self.kernel(self.jam.branch_factors(w.reshape(-1, w.shape[-1])))
        g_w = g_f.reshape(w.shape[:-1] + (-1,)).conj() @ self.jam.factor.reshape(
            self.jam.d_z, -1).T
        g_isos = _kron_backward(isos, g_w)
        return values.reshape(w.shape[:-1]).sum(axis=-1), _unstacked(groups, [
            phase_fixed_qr_backward(q, r, _stacked(g_isos, idx))
            for idx, (q, r) in zip(groups, qrs)], len(params))


def optimize_le(rho: PureState | DensityOperator, measure: RootMeasure,
                config: LEConfig | None = None) -> LEResult:
    """Localizable entanglement over rank-one product POVMs on the helpers.

    Where the evaluator has a closed form (``closed_form``: one helper on a
    pure state with a 2 x 2 cut, under concurrence or G) it is the concurrence
    of assistance, reached by the Takagi-basis measurement of d_Z outcomes
    (``_takagi_measurement``), and ``config`` is not read. Elsewhere it is
    the seeded multi-start search (``_search``) on d^2 outcomes per helper
    of dimension d.

    Returns the value (exact, or a lower bound to the LE unless a branch took
    a roof solve), together with the realizing POVM, its branch data and, for
    the search, every restart's final value and iterations.
    """
    z_labels = rho.dims.z_labels
    if not z_labels:
        raise DimensionError("state has no helper (Z-role) parties")
    evaluator = _FactorEvaluator(rho, measure)
    if evaluator.closed_form:
        return _takagi_measurement(evaluator, z_labels)
    return _search(rho, evaluator, LEConfig() if config is None else config)


def _takagi_measurement(evaluator: _FactorEvaluator, z_labels) -> LEResult:
    """The LE of one helper on a pure state with a 2 x 2 cut, under the
    concurrence or G (equal there).

    The helper's measurements realize every pure-state decomposition of
    rho_AB = M M^dag (Hughston, Jozsa and Wootters), so the LE is the
    concurrence of assistance (Laustsen, Verstraete and van Enk, QIC 3, 64
    (2003)): the sum of the Takagi values lam_j of tau = M^T (sy ⊗ sy) M.
    With tau = Q diag(lam) Q^T (``measures.takagi_factorization``), the
    projective measurement on the columns q_j of Q has the branch factors
    M conj(q_j), whose p C is q_j^dag tau conj(q_j) = lam_j. The branches are
    scored by ``factor_branches`` on the evaluator's ``branch_factors``.
    """
    # the (d_Z, 4) rows of the one-column factor are M's columns
    iso = takagi_factorization(_takagi_stack(evaluator.jam.factor[:, :, 0].T))[1].T
    return _scored_result(_povm_from_isometries(z_labels, [iso]), *evaluator.branches(iso),
                          bound="exact")


def _search(rho: PureState | DensityOperator, evaluator: _FactorEvaluator,
            config: LEConfig) -> LEResult:
    """Seeded multi-start search over rank-one product POVMs on the helpers,
    d^2 outcomes per helper of dimension d, restarts in lockstep: L-BFGS on
    the exact gradient where the evaluator has one (``exact_gradient``), the
    random-step search elsewhere.

    Returns the best average found (a lower bound to the LE unless a branch
    took a roof solve), together with the realizing POVM, the winner's
    branches scored once more on the evaluator (``branches``) and every
    restart's final value and iterations.
    """
    z_labels = rho.dims.z_labels
    z_dims = [rho.dims.dim_of(lab) for lab in z_labels]
    shapes = [(d * d, d) for d in z_dims]

    if evaluator.exact_gradient:
        def fun_and_grad(flat):  # the descent minimizes -average
            averages, grads = evaluator.average_and_gradient(unflatten_complex(flat, shapes))
            return -averages, -flatten_complex(grads)

        flat, f, iterations, evals, flags, _ = lockstep_lbfgs(
            fun_and_grad, flatten_complex(seeded_starts(config.seed, config.restarts, shapes)[1]),
            ftol=_LBFGS_FTOL, gtol=_LBFGS_GTOL, max_iters=config.max_iters)
        values, params, evaluations = -f, unflatten_complex(flat, shapes), int(np.sum(evals))
    else:
        values, params, flags, iterations = lockstep_search(
            evaluator.averages, shapes, config.seed, config.restarts, config.max_iters,
            accept=_ACCEPT, reset=_RESET, shrink=0.5, patience=8 * len(z_dims), stop=1e-5,
            transform=lambda x: phase_fixed_qr(x)[0])
        evaluations = config.restarts + int(np.sum(iterations))
    winner = int(np.argmax(values))  # the first restart with the best value
    reached = np.abs(values - values[winner]) <= _SAME_VALUE * abs(values[winner])

    isos = [phase_fixed_qr(x[winner])[0] for x in params]
    return _scored_result(_povm_from_isometries(z_labels, isos), *evaluator.branches(_kron(isos)),
                          converged=bool(np.any(np.asarray(flags)[reached])),
                          seed=config.seed, iterations=int(np.sum(iterations)),
                          evaluations=evaluations,
                          restart_values=tuple(float(v) for v in values),
                          restart_iterations=tuple(int(i) for i in iterations), winner=winner)
