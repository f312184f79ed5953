"""Bipartite root entanglement measures: entropy of entanglement, the
two-qubit concurrence closed form, the geometric-mean concurrence family for
pure states, and the per-outcome contraction factor of dimension-preserving
instruments.

``RootMeasure`` scores every state in one form, a stack of branch factors F_k
in cut order, the branch being F_k F_k^dag (``RootMeasure.factor_branches``).
One state is scored by ``RootMeasure.density`` alone, as a stack of one, its
``jamiolkowski.eigen_factor`` (a state vector is its own column): calling a
measure, ``wootters_concurrence``, ``gconcurrence_pure`` and
``entropy_of_entanglement`` go through it, and ``roof.gconcurrence_mixed``
takes its closed forms from ``factor_branches`` on the same factor. Each
closed form is one kernel returning (p, p v, gradient of p v), which the LE
ascent differentiates too: ``determinant_kernel`` on rank-one branches under
the concurrence and G on an equal cut (d |det C|^(2/d), the formula
``smoothed_determinant`` also gives the convex roof), ``schmidt_kernel`` on
the other rank-one branches (entropy, unequal cuts) and ``takagi_kernel``
(Wootters) on two-qubit branches under the concurrence or G.
``RootMeasure.kernel`` is the one rule for which branches take a kernel; any
other branch is scored on the Schmidt spectrum of its top singular vector,
or, where ``RootMeasure.needs_roof`` says so (G of a mixed branch on a cut
larger than 2 x 2), by the convex roof, and ``factor_branches`` reports
which branches did. ``takagi_factorization`` is the one Takagi
factorization, which both Wootters' roof ensemble and the LE's closed form
(``localize``) take, and ``concurrence_of_assistance`` is that closed
form's value.

The geometric-mean concurrence for a d x d pure state is
d * (lambda_0 ... lambda_{d-1})^(1/d) with lambda the squared Schmidt
coefficients zero-padded to d = max(d_left, d_right); for unequal local
dimensions the padding forces the value to zero. Evaluated on an
unnormalized vector it is homogeneous of degree one in the density operator
(degree two in the vector), which the convex-roof optimizer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .jamiolkowski import eigen_factor
from .sampling import phase_fixed_qr
from .states import (
    DensityOperator,
    DimSpec,
    DimensionError,
    PureState,
    permute_factor,
)

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
_PURITY_TOL = 1e-8
_RANK_TOL = 1e-10
NULL_BRANCH_TOL = 1e-14


class MixedBranchError(ValueError):
    """A root measure defined on pure states only (entropy) met a mixed state."""


def _cut_or_default(dims: DimSpec, cut):
    """The cut as two label tuples; None is the A-role | rest cut of a state
    without Z parties."""
    if cut is not None:
        return tuple(cut[0]), tuple(cut[1])
    dims.require_bipartite_roles()
    if dims.z_labels:
        raise DimensionError("state has Z parties; pass an explicit cut or reduce to Y first")
    return dims.a_labels, tuple(lab for lab in dims.labels if lab not in dims.a_labels)


def spectrum_value(kind: str, lam: np.ndarray, d: int) -> np.ndarray:
    """Root measure of squared Schmidt spectra, batched over the leading axes.

    ``lam`` holds the squared Schmidt coefficients along its last axis, not
    necessarily normalized. Entropy: -sum lambda log2 lambda over the
    coefficients above 1e-15. Any other kind: the geometric-mean concurrence
    d * (prod lambda)^(1/d), zero when fewer than d = max(d_left, d_right)
    coefficients are given (the zero padding annihilates the product).
    """
    lam = np.asarray(lam, dtype=float)
    if kind == "entropy":
        live = lam > 1e-15
        return -np.sum(np.where(live, lam * np.log2(np.where(live, lam, 1.0)), 0.0), axis=-1)
    if lam.shape[-1] < d:
        return np.zeros(lam.shape[:-1])
    return d * np.prod(lam, axis=-1) ** (1.0 / d)


def entropy_of_entanglement(psi: PureState, cut=None) -> float:
    """Von Neumann entropy (base-2) of the reduced state across the cut, in ebits."""
    return RootMeasure("entropy").density(psi, cut)


def gconcurrence_pure(psi: PureState, cut=None) -> float:
    """Geometric-mean concurrence of a pure state across the cut.

    d * (prod lambda_i)^(1/d) with d = max of the two cut dimensions; exactly
    zero when the cut dimensions differ (zero padding annihilates the product).
    """
    return RootMeasure("gconcurrence").density(psi, cut)


def _takagi_stack(factors: np.ndarray) -> np.ndarray:
    """Takagi matrices tau_k = F_k^T (sy ⊗ sy) F_k of a (K, 4, r) stack of
    factors of two-qubit operators rho_k = F_k F_k^dag."""
    return np.swapaxes(factors, -1, -2) @ _YY @ factors


def takagi_factorization(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi values lam (decreasing, >= 0) and a unitary Q with tau = Q
    diag(lam) Q^T, for a complex symmetric n x n tau.

    The columns q_j of Q solve tau conj(q_j) = lam_j q_j: they are the
    eigenvectors [Re q; Im q] of the real symmetric [[Re tau, Im tau],
    [Im tau, -Re tau]] (spectrum +-lam) for its n largest eigenvalues, made
    unitary by a phase-fixed QR, which also completes them where lam is 0.
    """
    n = tau.shape[-1]
    s, vecs = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    top = vecs[:, :n - 1:-1]
    return np.clip(s[:n - 1:-1], 0.0, None), phase_fixed_qr(top[:n] + 1j * top[n:])[0]


def concurrence_of_assistance(rho: DensityOperator, cut=None) -> float:
    """Largest average concurrence over the pure-state decompositions of a
    two-qubit rho (None: the A|B role cut): the sum of the Takagi values of
    tau = M^T (sy ⊗ sy) M, M rho's ``eigen_factor`` in cut order (Laustsen,
    Verstraete and van Enk, QIC 3, 64 (2003)). It is the LE of one helper
    on a pure state whose A-B marginal is rho; homogeneous of degree one in
    rho. Any cut other than 2 x 2 raises DimensionError."""
    left, right = _cut_or_default(rho.dims, cut)
    factor, dims = permute_factor(eigen_factor(rho), rho.dims, left + right)
    RootMeasure("concurrence").check_cut(dims.dim_of_labels(left), dims.dim_of_labels(right))
    return float(np.sum(np.linalg.svd(_takagi_stack(factor), compute_uv=False)))


def smoothed_determinant(mats: np.ndarray, eps: float):
    """a = (|det C|^2 + eps^2)^(1/d) of each of a (..., d, d) stack of matrices
    C, and the gradient of d a, G = 2 a |det C|^2 / (|det C|^2 + eps^2) C^-H
    (0 where det C = 0), by one determinant and one inverse call.

    At eps = 0, d a = d |det C|^(2/d) is G of the pure state with coefficient
    matrix C (Gour, PRA 71, 012318 (2005)), its gradient 2 |det C|^(2/d)
    C^-H; the roof descends on eps > 0, smooth at det C = 0.
    """
    d = mats.shape[-1]
    det = np.linalg.det(mats)
    det2 = det.real ** 2 + det.imag ** 2
    smooth = det2 + eps * eps
    a = smooth ** (1.0 / d)
    live = det2 > 0
    inv = np.linalg.inv(np.where(live[..., None, None], mats, np.eye(d)))
    coef = 2.0 * a * det2 / np.where(live, smooth, 1.0)  # 0 where det C = 0
    return a, coef[..., None, None] * inv.conj().swapaxes(-1, -2)


def determinant_kernel(d: int, factors: np.ndarray):
    """(p, p v, gradient of p v) of each of a (K, d d, 1) stack of rank-one
    branch factors on a d x d cut in cut order, under G (the concurrence
    where d = 2): p v = d |det C|^(2/d) of the coefficient matrix C, its
    gradient 2 |det C|^(2/d) C^-H (``smoothed_determinant`` at eps = 0), the
    Schmidt kernel's value and gradient without an SVD. p v = 0 and gradient
    0 on a null branch and where det C = 0.
    """
    p = np.sum(np.abs(factors) ** 2, axis=(-2, -1))
    live = p >= NULL_BRANCH_TOL
    a, grad = smoothed_determinant(factors.reshape(-1, d, d), 0.0)
    grad[~live] = 0.0
    return p, np.where(live, d * a, 0.0), grad.reshape(factors.shape)


def schmidt_kernel(kind: str, d_left: int, d_right: int, factors: np.ndarray):
    """(p, p v, gradient of p v) of each of a (K, d_left d_right, 1) stack of
    rank-one branch factors in cut order, p v = 0 and gradient 0 on a null
    branch; the gradient, in the factor, is U diag(df/ds) V^H of one batched
    SVD of the branch coefficient matrices.

    With lambda = s^2 and p = sum lambda: entropy p S(lambda / p) and df/ds =
    -2 s log2(lambda / p); G (and the concurrence, its 2 x 2 case) the
    homogeneous ``spectrum_value`` of lambda and df/ds = 2 p v / (d s), zero
    on an unequal cut. ``RootMeasure.kernel`` takes it for entropy and for G
    on an unequal cut; on an equal cut ``determinant_kernel`` gives G's value
    and gradient to rounding without the SVD.
    """
    u, s, vh = np.linalg.svd(factors.reshape(-1, d_left, d_right), full_matrices=False)
    lam = s * s
    p = np.sum(lam, axis=-1)
    live = p >= NULL_BRANCH_TOL
    d = max(d_left, d_right)
    if kind == "entropy":
        ratio = lam / np.where(live, p, 1.0)[:, None]
        pv = p * spectrum_value(kind, ratio, d)
        dfds = -2.0 * s * np.log2(np.where(ratio > 1e-15, ratio, 1.0))
    else:
        pv = spectrum_value(kind, lam, d)
        dfds = np.divide(2.0 * pv[:, None] / d, s, out=np.zeros_like(s), where=s > 0)
    dfds[~live] = 0.0
    return p, np.where(live, pv, 0.0), ((u * dfds[:, None, :]) @ vh).reshape(factors.shape)


def takagi_kernel(factors: np.ndarray):
    """(p, p C, gradient of p C) of each of a (K, 4, r) stack of two-qubit
    branch factors B in cut order, p C = 0 and gradient 0 on a null branch.

    C = max(0, s_1 - sum_{i>=2} s_i) over the singular values of the Takagi
    matrix tau = B^T (sy ⊗ sy) B, the square roots of the eigenvalues of rho
    (sy ⊗ sy) rho* (sy ⊗ sy) (Wootters, PRL 80, 2245 (1998)); homogeneous of
    degree one in rho = B B^dag. With G_tau = U diag(1, -1, ...) V^H the
    gradient is 2 (sy ⊗ sy) conj(B) sym(G_tau), zero where C = 0.
    """
    u, s, vh = np.linalg.svd(_takagi_stack(factors))
    sign = np.where(np.arange(s.shape[-1]) == 0, 1.0, -1.0)
    pc = s @ sign
    p = np.sum(np.abs(factors) ** 2, axis=(-2, -1))
    live = (p >= NULL_BRANCH_TOL) & (pc > 0)
    g_tau = (u * sign) @ vh
    grad = _YY @ factors.conj() @ (g_tau + np.swapaxes(g_tau, -1, -2))
    grad[~live] = 0.0
    return p, np.where(live, pc, 0.0), grad


def wootters_concurrence(rho: DensityOperator, cut=None) -> float:
    """Two-qubit concurrence closed form.

    max(0, mu_1 - mu_2 - mu_3 - mu_4) with mu_i the decreasing square roots of
    the eigenvalues of rho (sy ⊗ sy) rho* (sy ⊗ sy): ``RootMeasure.density``
    under the concurrence, the Takagi kernel on rho's eigen-factor (the
    Schmidt kernel where that has one column). Any other cut raises
    DimensionError.
    """
    return RootMeasure("concurrence").density(rho, cut)


def f_factor(kraus_ops, d: int | None = None) -> float:
    """Contraction coefficient sum_k |Det M_k|^(2/d) of one instrument outcome.

    Only square (dimension-preserving) Kraus operators are supported; the
    determinant is undefined otherwise.
    """
    total = 0.0
    for m in kraus_ops:
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"Kraus operator shape {m.shape} is not square")
        if d is None:
            d = m.shape[0]
        elif m.shape[0] != d:
            raise DimensionError(f"Kraus operator of size {m.shape[0]}, expected {d}")
        total += abs(np.linalg.det(m)) ** (2.0 / d)
    return total


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed Kraus description of a local operation on one party.

    ``outcomes[j]`` is the Kraus list of outcome j; the summed map must be
    trace preserving.
    """

    party: str
    outcomes: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        outs = tuple(
            tuple(np.asarray(m, dtype=np.complex128) for m in ms) for ms in self.outcomes
        )
        object.__setattr__(self, "outcomes", outs)
        if not outs or any(not ms for ms in outs):
            raise ValueError("instrument needs at least one Kraus operator per outcome")
        d = outs[0][0].shape[0]
        for ms in outs:
            for m in ms:
                if m.shape != (d, d):
                    raise DimensionError("all Kraus operators must be square of equal size")
                if not np.all(np.isfinite(m)):
                    raise ValueError("Kraus operator has non-finite entries")
        total = sum(m.conj().T @ m for ms in outs for m in ms)
        if np.max(np.abs(total - np.eye(d))) > 1e-8:
            raise ValueError("instrument is not trace preserving")

    @property
    def dim(self) -> int:
        return self.outcomes[0][0].shape[0]

    @staticmethod
    def unitary(party: str, u: np.ndarray) -> "Instrument":
        return Instrument(party, ((u,),))

    @staticmethod
    def projective(party: str, projectors) -> "Instrument":
        return Instrument(party, tuple((np.asarray(p),) for p in projectors))

    def f_factors(self) -> list[float]:
        return [f_factor(ms, self.dim) for ms in self.outcomes]


@dataclass(frozen=True)
class RootMeasure:
    """Tagged bipartite measure scoring the final A-B state.

    ``kind`` is one of "entropy", "concurrence", "gconcurrence". Every value
    comes from ``factor_branches``, a state's from ``density`` (a stack of
    one): the concurrence uses the closed form on a qubit pair; G uses the
    closed form on a qubit pair (where the two coincide), on a pure state and
    on an unequal cut (0 by the zero padding), and the convex roof on a mixed
    state elsewhere (``needs_roof``); entropy accepts only (numerically) pure
    inputs. ``kernel`` says which branches have a closed-form kernel.
    """

    kind: str
    roof_config: object = None  # RoofConfig; resolved lazily to avoid an import cycle

    def __post_init__(self):
        if self.kind not in ("entropy", "concurrence", "gconcurrence"):
            raise ValueError(f"unknown measure kind {self.kind!r}")

    def check_cut(self, d_left: int, d_right: int) -> None:
        """Raise DimensionError when this root cannot score a d_left x d_right cut."""
        if self.kind == "concurrence" and (d_left, d_right) != (2, 2):
            raise DimensionError("concurrence closed form requires a qubit pair")

    def kernel(self, d_left: int, d_right: int, rank: int):
        """The closed-form kernel of a d_left x d_right branch whose factor has
        ``rank`` columns, the one rule for which branches have one, or None.

        Rank one under the concurrence and G on an equal cut:
        ``determinant_kernel``; under entropy, and G on an unequal cut:
        ``schmidt_kernel``. Rank above one under the concurrence and G on a
        2 x 2 cut: ``takagi_kernel``. The kernel maps a (K, d_left d_right,
        rank) factor stack in cut order to (p, p v, gradient of p v).
        Elsewhere (None) a branch is scored on its top singular vector, or
        takes the roof where ``needs_roof`` says so.
        """
        if rank == 1:
            if self.kind != "entropy" and d_left == d_right:
                return partial(determinant_kernel, d_left)
            return partial(schmidt_kernel, self.kind, d_left, d_right)
        if self.kind != "entropy" and (d_left, d_right) == (2, 2):
            return takagi_kernel
        return None

    def needs_roof(self, dims: DimSpec, cut, spectrum) -> np.ndarray:
        """Where a state with eigenvalues ``spectrum`` (last axis, any scale)
        on the layout ``dims`` needs the convex-roof search across ``cut``
        (None: the A|B role cut), the one rule for closed form versus roof.

        That is G of a mixed state, more than one eigenvalue above 1e-10 of
        the trace, on an equal cut larger than 2 x 2. Elsewhere every root
        has a closed form: G is 0 on an unequal cut (the zero padding), the
        Wootters concurrence on 2 x 2, and the Schmidt value on a pure state.
        """
        left, right = _cut_or_default(dims, cut)
        d = dims.dim_of_labels(left)
        lam = np.asarray(spectrum)
        mixed = np.count_nonzero(lam > _RANK_TOL * np.sum(lam, axis=-1, keepdims=True),
                                 axis=-1) > 1
        return mixed & (self.kind == "gconcurrence" and d == dims.dim_of_labels(right) > 2)

    def density(self, rho: PureState | DensityOperator, cut=None) -> float:
        """p v of one state across the cut (None: the A|B role cut), p its
        kept trace: its ``eigen_factor`` (a state vector's is its one column,
        no operator built) scored as a stack of one, or, where ``needs_roof``
        says so on the factor's column norms, the convex roof of rho itself.
        Homogeneous of degree one in rho; the zero operator, whose factor has
        no columns, gives 0."""
        left, right = _cut_or_default(rho.dims, cut)
        factor, dims = permute_factor(eigen_factor(rho), rho.dims, left + right)
        if not factor.shape[1]:
            return 0.0
        if self.needs_roof(dims, (left, right), np.sum(np.abs(factor) ** 2, axis=0)):
            from .roof import gconcurrence_mixed

            return gconcurrence_mixed(rho, (left, right), self.roof_config)[0]
        p, values, _ = self.factor_branches(factor[None], dims, (left, right))
        return float(p[0] * values[0])

    def factor_branches(self, factors: np.ndarray, dims: DimSpec,
                        cut) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(probabilities, values, roofed) of a (K, d, r) stack of branch
        factors, the branch of outcome k being F_k F_k^dag on the layout
        ``dims``, whose parties are in cut order (``states.permute_factor``),
        scored across ``cut``; ``roofed`` marks the branches that took a
        convex-roof solve.

        Where ``kernel`` gives one, the value is its p v / p. Elsewhere one SVD
        of each factor gives the branch spectrum and its top eigenvector,
        scored on its Schmidt spectrum; the entropy root rejects a mixed
        branch, and a branch that ``needs_roof`` takes one roof solve. Null
        branches (probability below 1e-14) report (0, 0) and are not roofed.
        """
        left, right = tuple(cut[0]), tuple(cut[1])
        dl, dr = dims.dim_of_labels(left), dims.dim_of_labels(right)
        self.check_cut(dl, dr)
        if dims.labels != left + right:
            raise DimensionError(f"factor parties {dims.labels} are not in cut order")
        kernel = self.kernel(dl, dr, factors.shape[-1])
        if kernel is not None:
            p, pv, _ = kernel(factors)
            live = p >= NULL_BRANCH_TOL
            return (np.where(live, p, 0.0), pv / np.where(live, p, 1.0),
                    np.zeros(p.shape, dtype=bool))
        u, s, _ = np.linalg.svd(factors, full_matrices=False)
        lam = s * s
        p = np.sum(lam, axis=-1)
        live = p >= NULL_BRANCH_TOL
        if self.kind == "entropy" and np.any(live & (lam[:, 0] < p * (1 - _PURITY_TOL))):
            raise MixedBranchError("entropy root is defined on pure states only; got a mixed branch")
        schmidt = np.linalg.svd(u[:, :, 0].reshape(-1, dl, dr), compute_uv=False)
        values = spectrum_value(self.kind, schmidt * schmidt, max(dl, dr))
        roofed = live & self.needs_roof(dims, (left, right), lam)
        for k in np.flatnonzero(roofed):
            from .roof import gconcurrence_mixed

            op = factors[k] @ factors[k].conj().T
            sigma = DensityOperator(0.5 * (op + op.conj().T) / p[k], dims)
            values[k] = gconcurrence_mixed(sigma, (left, right), self.roof_config)[0]
        return np.where(live, p, 0.0), np.where(live, values, 0.0), roofed

    def __call__(self, state: PureState | DensityOperator, cut=None) -> float:
        """``density``: a state vector is scored as its one-column factor, with
        no dense operator built."""
        return self.density(state, cut)


def entropy_measure() -> RootMeasure:
    return RootMeasure("entropy")


def concurrence_measure() -> RootMeasure:
    return RootMeasure("concurrence")


def gconcurrence_measure(roof_config=None) -> RootMeasure:
    return RootMeasure("gconcurrence", roof_config)
