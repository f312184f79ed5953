"""Independent reference computations the benchmark checks entloc against.

Nothing here imports entloc. States are plain numpy arrays: a vector or a
density matrix together with the tuple of local dimensions in party order.
The formulas are the textbook ones:

- Wootters concurrence and the concurrence of assistance (Laustsen,
  Verstraete and van Enk, QIC 3, 64, 2003) share the spectrum
  lambda_i = sqrt(eig(sqrt(rho) rho~ sqrt(rho))), rho~ = (Y x Y) rho* (Y x Y):
  C = max(0, l1 - l2 - l3 - l4) and CoA = l1 + l2 + l3 + l4.
- Entropy of entanglement and G-concurrence are functions of the Schmidt
  spectrum (squared Schmidt coefficients).
- The branch average at a product POVM is recomputed from the global state
  by contracting each helper with its POVM factor.
"""

from __future__ import annotations

import numpy as np

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
NULL_BRANCH_TOL = 1e-14


def _hermitian(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def psd_sqrt(rho: np.ndarray, null_tol: float = 1e-14) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues below ``null_tol`` are set to 0: the square root would turn
    their rounding noise (~1e-17) into ~3e-9 entries."""
    w, v = np.linalg.eigh(_hermitian(rho))
    w = np.where(w < null_tol, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def wootters_spectrum(rho: np.ndarray) -> np.ndarray:
    """Decreasing lambda_i of a two-qubit density matrix (see module docstring).

    sqrt(rho) rho~ sqrt(rho) = A A^dag with A = sqrt(rho) (Y x Y) sqrt(rho)*,
    so the lambda_i are the singular values of A. That keeps full precision
    on rank-deficient states, where square roots of eigenvalues would not."""
    if rho.shape != (4, 4):
        raise ValueError(f"two-qubit density matrix expected, got shape {rho.shape}")
    root = psd_sqrt(rho)
    return np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)


def wootters_concurrence(rho: np.ndarray) -> float:
    lam = wootters_spectrum(rho)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_of_assistance(rho: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) rho~ sqrt(rho)): the largest average concurrence of
    any pure-state decomposition of a two-qubit state."""
    return float(np.sum(wootters_spectrum(rho)))


def entropy_from_spectrum(lam) -> float:
    """Base-2 entropy of a Schmidt spectrum (squared coefficients)."""
    lam = np.asarray(lam, dtype=float)
    lam = lam / lam.sum()
    nz = lam[lam > 1e-15]
    return float(-np.sum(nz * np.log2(nz)))


def gconcurrence_from_spectrum(lam, d: int) -> float:
    """d * (lambda_1 ... lambda_d)^(1/d), zero when fewer than d coefficients."""
    lam = np.asarray(lam, dtype=float)
    lam = lam / lam.sum()
    if lam.size < d:
        return 0.0
    prod = float(np.prod(np.clip(lam, 0.0, None)))
    return d * prod ** (1.0 / d) if prod > 0.0 else 0.0


def schmidt_spectrum(vec: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """Normalized squared singular values of a (possibly unnormalized) vector."""
    s = np.linalg.svd(np.asarray(vec).reshape(d_left, d_right), compute_uv=False)
    return s * s / np.sum(s * s)


def reduced_spectrum(sigma: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """Eigenvalues of the left reduced state; the Schmidt spectrum of a pure sigma."""
    if abs(np.trace(sigma @ sigma).real - np.trace(sigma).real ** 2) > 1e-8:
        raise ValueError("branch state is not pure")
    left = np.einsum("ibjb->ij", sigma.reshape(d_left, d_right, d_left, d_right))
    return np.clip(np.linalg.eigvalsh(_hermitian(left)), 0.0, None)


def density(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.complex128)
    return np.outer(vec, vec.conj())


def reduce(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace keeping the party indices in ``keep`` (in party order)."""
    n = len(dims)
    keep = sorted(keep)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + i for i in keep]
    tens = np.einsum(np.asarray(rho).reshape(tuple(dims) * 2), row + col, out)
    d = int(np.prod([dims[i] for i in keep]))
    return tens.reshape(d, d)


def branches(rho: np.ndarray, dims, helpers, outcomes):
    """(p_k, normalized state on the non-helper parties) for each outcome.

    ``outcomes[k][i]`` is the POVM factor of outcome k on party ``helpers[i]``;
    the branch is Tr_Z[rho (I_Y x E_k)] / p_k. Null branches give (0, None).
    """
    n = len(dims)
    tens = np.asarray(rho).reshape(tuple(dims) * 2)
    keep = [i for i in range(n) if i not in helpers]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = []
    for factors in outcomes:
        operands = [tens, list(range(2 * n))]
        for i, f in zip(helpers, factors):
            # sum over z, z'' of rho[.. z .., .. z'' ..] E[z'', z]
            operands += [np.asarray(f), [n + i, i]]
        sigma = np.einsum(*operands, keep + [n + i for i in keep])
        sigma = _hermitian(sigma.reshape(d_keep, d_keep))
        p = float(np.trace(sigma).real)
        out.append((p, sigma / p) if p >= NULL_BRANCH_TOL else (0.0, None))
    return out


def branch_average(rho: np.ndarray, dims, helpers, outcomes, score) -> float:
    """sum_k p_k score(sigma_k) over the non-null branches of a product POVM."""
    return float(sum(p * score(s) for p, s in branches(rho, dims, helpers, outcomes)
                     if s is not None))


def povm_error(outcomes) -> float:
    """Largest deviation from a product POVM: negative eigenvalues, non-Hermitian
    parts and the distance of sum_k (x)_i E_ki from the identity."""
    err = 0.0
    total = 0.0
    for factors in outcomes:
        elem = np.ones((1, 1), dtype=np.complex128)
        for f in factors:
            f = np.asarray(f)
            err = max(err, float(np.max(np.abs(f - f.conj().T))),
                      float(-min(0.0, np.linalg.eigvalsh(_hermitian(f))[0])))
            elem = np.kron(elem, f)
        total = total + elem
    return max(err, float(np.max(np.abs(total - np.eye(total.shape[0])))))


def kraus_f_sum(outcomes) -> float:
    """sum over outcomes and Kraus operators of |det M|^(2/d)."""
    return float(sum(abs(np.linalg.det(m)) ** (2.0 / m.shape[0])
                     for ms in outcomes for m in ms))


def apply_local_kraus(rho: np.ndarray, dims, party: int, kraus) -> np.ndarray:
    """sum_k (M_k on one party) rho (M_k on one party)^dag, unnormalized."""
    n = len(dims)
    tens = np.asarray(rho).reshape(tuple(dims) * 2)
    out = np.zeros_like(tens)
    rows, cols = list(range(2 * n)), list(range(2 * n))
    new_row, new_col = 2 * n, 2 * n + 1
    res_axes = [new_row if i == party else i for i in range(n)] + \
               [new_col if i == n + party else i for i in range(n, 2 * n)]
    for m in kraus:
        out += np.einsum(np.asarray(m), [new_row, party], tens, rows,
                         np.asarray(m).conj(), [new_col, n + party], res_axes)
    d = int(np.prod(dims))
    return out.reshape(d, d)


def ensemble_matrix(weights, vectors) -> np.ndarray:
    """sum_i w_i |psi_i><psi_i|."""
    return sum(w * density(v) for w, v in zip(weights, vectors))


def ensemble_gconcurrence(weights, vectors, d_left: int, d_right: int) -> float:
    d = max(d_left, d_right)
    return float(sum(w * gconcurrence_from_spectrum(schmidt_spectrum(v, d_left, d_right), d)
                     for w, v in zip(weights, vectors)))


def eigen_ensemble_gconcurrence(rho: np.ndarray, d_left: int, d_right: int) -> float:
    """Average G-concurrence of the eigen-decomposition: an upper bound to the roof."""
    w, v = np.linalg.eigh(_hermitian(rho))
    keep = w > 1e-12
    return ensemble_gconcurrence(w[keep], v[:, keep].T, d_left, d_right)
