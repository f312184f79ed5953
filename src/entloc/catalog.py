"""Explicit test states: the 2x4x4x2 locked state (parties a, A, B, C) with
its key unitaries, and the usual canonical states (Bell pairs, the 4x4
maximally entangled state, GHZ, W, Werner).

The locked state encodes a classical bit y in Charlie's qubit behind one of
two scrambling unitaries V_x keyed by Alice's ancilla qubit a, with a 4x4
maximally entangled A-B pair whose basis is twisted by U_xy:

    |Psi> = (1/2) sum_{x,y} |x>_a  (I ⊗ U_xy)|phi+>_AB  V_x|y>_C

Party order is fixed as a ⊗ A ⊗ B ⊗ C in the flattened index so that file
round-trips are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import DimSpec, DensityOperator, PureState, ROLE_A, ROLE_B, ROLE_Z

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

LOCKED_DIMS = DimSpec.make(
    ("a", 2, ROLE_A), ("A", 4, ROLE_A), ("B", 4, ROLE_B), ("C", 2, ROLE_Z)
)


def key_unitary_v1() -> np.ndarray:
    """The unitary key (I + i sigma_y)/sqrt(2) = [[1, 1], [-1, 1]]/sqrt(2).

    The literal matrix (I + sigma_y)/sqrt(2) is not unitary (see
    :func:`nonunitary_v1_literal`); the extra phase i repairs it while keeping
    the same rotation axis.
    """
    return (np.eye(2) + 1j * SIGMA_Y) / np.sqrt(2)


def nonunitary_v1_literal() -> np.ndarray:
    """(I + sigma_y)/sqrt(2) -- kept only as the negative unitarity test case."""
    return (np.eye(2) + SIGMA_Y) / np.sqrt(2)


def _default_v():
    return (np.eye(2, dtype=np.complex128), key_unitary_v1())


def _default_u():
    return (
        np.eye(4, dtype=np.complex128),                  # U_00
        np.diag([1j, 1.0, -1j, -1.0]).astype(np.complex128),  # U_01
        np.eye(4, dtype=np.complex128),                  # U_10
        np.diag([1j, 1.0, 1j, 1.0]).astype(np.complex128),    # U_11
    )


@dataclass(frozen=True)
class LockedStateSpec:
    """The six unitaries defining one member of the locked-state family.

    ``v[x]`` scrambles Charlie's qubit, ``u[2 * x + y]`` twists Bob's half of
    the maximally entangled pair. Defaults are the canonical choices.
    """

    v: tuple[np.ndarray, np.ndarray] = field(default_factory=_default_v)
    u: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(default_factory=_default_u)

    def __post_init__(self):
        for name, mats, d in (("v", self.v, 2), ("u", self.u, 4)):
            for i, m in enumerate(mats):
                m = np.asarray(m, dtype=np.complex128)
                if m.shape != (d, d) or np.max(np.abs(m.conj().T @ m - np.eye(d))) > 1e-12:
                    raise ValueError(f"{name}[{i}] is not a {d}x{d} unitary")

    def u_xy(self, x: int, y: int) -> np.ndarray:
        return np.asarray(self.u[2 * x + y], dtype=np.complex128)


def phi_plus_vector(d: int) -> np.ndarray:
    """Normalized maximally entangled vector sum_i |ii> / sqrt(d)."""
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return vec


def build_locked_state(spec: LockedStateSpec | None = None) -> PureState:
    """The 64-dimensional locked pure state for the given unitary choices."""
    if spec is None:
        spec = LockedStateSpec()
    phi = phi_plus_vector(4)
    vec = np.zeros(64, dtype=np.complex128)
    for x in range(2):
        ket_x = np.zeros(2, dtype=np.complex128)
        ket_x[x] = 1.0
        for y in range(2):
            ab = np.kron(np.eye(4), spec.u_xy(x, y)) @ phi
            c = np.asarray(spec.v[x], dtype=np.complex128)[:, y]
            vec += 0.5 * np.kron(ket_x, np.kron(ab, c))
    return PureState(vec, LOCKED_DIMS)


def bell_state() -> PureState:
    dims = DimSpec.make(("A", 2, ROLE_A), ("B", 2, ROLE_B))
    return PureState(phi_plus_vector(2), dims)


def phi_plus_4_state() -> PureState:
    dims = DimSpec.make(("A", 4, ROLE_A), ("B", 4, ROLE_B))
    return PureState(phi_plus_vector(4), dims)


def ghz_state(n: int = 3) -> PureState:
    """n-qubit GHZ; first qubit is A, second B, the rest are helpers."""
    if n < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    roles = [ROLE_A, ROLE_B] + [ROLE_Z] * (n - 2)
    dims = DimSpec.make(*[(f"q{i}", 2, roles[i]) for i in range(n)])
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2)
    return PureState(vec, dims)


def w_state(n: int = 3) -> PureState:
    """n-qubit W state; same role layout as GHZ."""
    if n < 2:
        raise ValueError("W needs at least 2 qubits")
    roles = [ROLE_A, ROLE_B] + [ROLE_Z] * (n - 2)
    dims = DimSpec.make(*[(f"q{i}", 2, roles[i]) for i in range(n)])
    vec = np.zeros(2**n, dtype=np.complex128)
    for i in range(n):
        vec[1 << (n - 1 - i)] = 1.0 / np.sqrt(n)
    return PureState(vec, dims)


def werner_state(p: float) -> DensityOperator:
    """p |phi+><phi+| + (1 - p) I/4 on a qubit pair, p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter {p} outside [0, 1]")
    bell = bell_state()
    mat = p * np.outer(bell.amplitudes, bell.amplitudes.conj()) + (1 - p) * np.eye(4) / 4
    return DensityOperator(mat, bell.dims)


def canonical_state(name: str, **params):
    """Dispatch for the named fixture states used by the CLI.

    name: "bell" | "phi_plus_4" | "ghz" | "w" | "werner" | "locked";
    ghz/w take n=<qubits>, werner takes p=<mixing>.
    """
    if name == "bell":
        return bell_state()
    if name == "phi_plus_4":
        return phi_plus_4_state()
    if name == "ghz":
        return ghz_state(int(params.get("n", 3)))
    if name == "w":
        return w_state(int(params.get("n", 3)))
    if name == "werner":
        return werner_state(float(params["p"]))
    if name == "locked":
        return build_locked_state()
    raise ValueError(f"unknown canonical state {name!r}")
