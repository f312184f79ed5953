"""Bipartite root entanglement measures: entropy of entanglement, the
two-qubit concurrence closed form, the geometric-mean concurrence family for
pure states, and the per-outcome contraction factor of dimension-preserving
instruments.

``RootMeasure`` scores every state in one form, a stack of branch factors F_k
in cut order, the branch being F_k F_k^dag (``RootMeasure.factor_branches``):
one state is its eigen-factor (``density``), a state vector one column
(``gconcurrence_pure``, ``entropy_of_entanglement``). A rank-one branch is
scored on its Schmidt spectrum, a two-qubit branch under the concurrence or G
by one Wootters kernel, any other branch on the Schmidt spectrum of its top
singular vector. ``RootMeasure.needs_roof`` is the one rule that sends G of a
mixed branch to the convex roof instead.

The geometric-mean concurrence for a d x d pure state is
d * (lambda_0 ... lambda_{d-1})^(1/d) with lambda the squared Schmidt
coefficients zero-padded to d = max(d_left, d_right); for unequal local
dimensions the padding forces the value to zero. Evaluated on an
unnormalized vector it is homogeneous of degree one in the density operator
(degree two in the vector), which the convex-roof optimizer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    if abs(np.linalg.norm(psi.amplitudes) - 1.0) > 1e-8 and psi.normalized:
        raise ValueError("entropy of entanglement needs a normalized state")
    return _pure_value("entropy", psi, cut)


def gconcurrence_pure(psi: PureState, cut=None) -> float:
    """Geometric-mean concurrence of a pure state across the cut.

    d * (prod lambda_i)^(1/d) with d = max of the two cut dimensions; exactly
    zero when the cut dimensions differ (zero padding annihilates the product).
    """
    return _pure_value("gconcurrence", psi, cut)


def _pure_value(kind: str, psi: PureState, cut) -> float:
    """p v of a state vector scored as a one-column stack in cut order."""
    left, right = _cut_or_default(psi.dims, cut)
    factor, dims = permute_factor(psi.amplitudes[:, None], psi.dims, left + right)
    p, values = RootMeasure(kind).factor_branches(factor[None], dims, (left, right))
    return float(p[0] * values[0])


def _takagi_stack(factors: np.ndarray) -> np.ndarray:
    """Takagi matrices tau_k = F_k^T (sy ⊗ sy) F_k of a (K, 4, r) stack of
    factors of two-qubit operators rho_k = F_k F_k^dag."""
    return np.swapaxes(factors, -1, -2) @ _YY @ factors


def _wootters_from_factors(factors: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence of rho_k = F_k F_k^dag for a (K, 4, r) factor stack.

    The square roots of the eigenvalues of rho (sy ⊗ sy) rho* (sy ⊗ sy) are
    the singular values s of the Takagi matrix, so C = max(0, s_1 - s_2 -
    ...). Homogeneous of degree one in rho: an unnormalized factor gives
    p C(rho / p).
    """
    s = np.linalg.svd(_takagi_stack(factors), compute_uv=False)
    return np.maximum(0.0, s[..., 0] - np.sum(s[..., 1:], axis=-1))


def wootters_concurrence(rho: DensityOperator, cut=None) -> float:
    """Two-qubit concurrence closed form.

    max(0, mu_1 - mu_2 - mu_3 - mu_4) with mu_i the decreasing square roots of
    the eigenvalues of rho (sy ⊗ sy) rho* (sy ⊗ sy), taken as the singular
    values of the Takagi matrix of rho's eigen-factor.
    """
    left, right = _cut_or_default(rho.dims, cut)
    if rho.dims.dim_of_labels(left) != 2 or rho.dims.dim_of_labels(right) != 2:
        raise DimensionError("concurrence closed form requires a 2 x 2 qubit pair")
    evals, evecs = rho.eigensystem()
    return float(_wootters_from_factors((evecs * np.sqrt(evals))[None])[0])


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
    inputs.
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

    def density(self, rho: DensityOperator, cut=None) -> float:
        """Value of one state across the cut (None: the A|B role cut): its
        eigen-factor scored as a stack of one, or, where ``needs_roof`` says
        so, the convex roof of rho itself."""
        left, right = _cut_or_default(rho.dims, cut)
        evals, evecs = rho.eigensystem()
        if self.needs_roof(rho.dims, (left, right), evals):
            from .roof import gconcurrence_mixed

            return gconcurrence_mixed(rho, (left, right), self.roof_config)[0]
        factor, dims = permute_factor(evecs * np.sqrt(evals), rho.dims, left + right)
        return float(self.factor_branches(factor[None], dims, (left, right))[1][0])

    def factor_branches(self, factors: np.ndarray, dims: DimSpec,
                        cut) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, values) of a (K, d, r) stack of branch factors, the
        branch of outcome k being F_k F_k^dag on the layout ``dims``, whose
        parties are in cut order (``states.permute_factor``), scored across
        ``cut``.

        Rank one (r = 1): the Schmidt spectrum of each factor. Concurrence and
        G on a two-qubit cut: the Wootters kernel on the Takagi matrices of the
        factors. Anything else: one SVD of each factor gives the branch
        spectrum and its top eigenvector, scored on its Schmidt spectrum; the
        entropy root rejects a mixed branch, and a branch that ``needs_roof``
        takes one roof solve. Null branches (probability below 1e-14) report
        (0, 0).
        """
        left, right = tuple(cut[0]), tuple(cut[1])
        dl, dr = dims.dim_of_labels(left), dims.dim_of_labels(right)
        self.check_cut(dl, dr)
        if dims.labels != left + right:
            raise DimensionError(f"factor parties {dims.labels} are not in cut order")
        if factors.shape[-1] == 1:
            s = np.linalg.svd(factors.reshape(-1, dl, dr), compute_uv=False)
            lam = s * s
            p = np.sum(lam, axis=-1)
            live = p >= NULL_BRANCH_TOL
            values = spectrum_value(self.kind, lam / np.where(live, p, 1.0)[:, None],
                                    max(dl, dr))
            return np.where(live, p, 0.0), np.where(live, values, 0.0)
        if self.kind != "entropy" and (dl, dr) == (2, 2):
            p = np.sum(np.abs(factors) ** 2, axis=(-2, -1))
            live = p >= NULL_BRANCH_TOL
            values = np.zeros(p.size)
            values[live] = _wootters_from_factors(factors[live]) / p[live]
            return np.where(live, p, 0.0), values
        u, s, _ = np.linalg.svd(factors, full_matrices=False)
        lam = s * s
        p = np.sum(lam, axis=-1)
        live = p >= NULL_BRANCH_TOL
        if self.kind == "entropy" and np.any(live & (lam[:, 0] < p * (1 - _PURITY_TOL))):
            raise MixedBranchError("entropy root is defined on pure states only; got a mixed branch")
        schmidt = np.linalg.svd(u[:, :, 0].reshape(-1, dl, dr), compute_uv=False)
        values = spectrum_value(self.kind, schmidt * schmidt, max(dl, dr))
        for k in np.flatnonzero(live & self.needs_roof(dims, (left, right), lam)):
            from .roof import gconcurrence_mixed

            op = factors[k] @ factors[k].conj().T
            sigma = DensityOperator(0.5 * (op + op.conj().T) / p[k], dims)
            values[k] = gconcurrence_mixed(sigma, (left, right), self.roof_config)[0]
        return np.where(live, p, 0.0), np.where(live, values, 0.0)

    def __call__(self, state, cut=None) -> float:
        if isinstance(state, PureState):
            state = state.to_density()
        return self.density(state, cut)


def entropy_measure() -> RootMeasure:
    return RootMeasure("entropy")


def concurrence_measure() -> RootMeasure:
    return RootMeasure("concurrence")


def gconcurrence_measure(roof_config=None) -> RootMeasure:
    return RootMeasure("gconcurrence", roof_config)
