"""Seeded numerical checks of the paper's claims, one draw-and-test loop each.

Each check takes ``(trials, seed)`` and returns ``(worst, failures)``.
``worst`` maps each figure's name to its largest value over the trials (None
with no trials). ``failures`` holds one ``"trial i: ..."`` line per trial
that breaks a gate; the gates are the module constants below. ``entloc
properties`` runs the checks by name, and acceptance criteria 7, 5, 8, 3, 4
and 6 run them at their pinned seeds and trial counts.
"""

from __future__ import annotations

import numpy as np

from .catalog import build_locked_state, phi_plus_vector, werner_state
from .jamiolkowski import eigen_factor, from_state
from .localize import LEConfig, ProductPOVM, average_root_entanglement
from .measures import (Instrument, concurrence_measure, gconcurrence_measure, gconcurrence_pure,
                       wootters_concurrence)
from .protocols import monotonicity_gap
from .roof import RoofConfig, _descent
from .sampling import (random_density, random_instrument, random_povm, random_pure,
                       random_rank1_povm, spawn_rngs)
from .states import DensityOperator, DimSpec, NullBranchError, PureState, conditional_state

ROUND_TRIP_TOL = 1e-12       # max |reconstruct(from_state(rho)) - rho|
BRANCH_TOL = 1e-10           # Jamiolkowski branch vs conditional_state, p and state
RARE_BRANCH_TOL = 1e-6       # duality skips branches less likely than this
HOMOGENEITY_TOL = 1e-12      # |G(c psi) - c^2 G(psi)|
MULTIPLICATIVITY_TOL = 1e-10  # |G((A x B) psi) - |det A det B|^(2/d) G(psi)|, relative
UNIT_VALUE_TOL = 1e-12       # |G(phi+_d) - 1|
CONVEXITY_TOL = 1e-9         # average on the mixture minus the mixed averages
F_SUM_TOL = 1e-10            # sum of an instrument's f-factors minus 1
MONOTONICITY_TOL = 1e-6      # sum_j q_j LE(after outcome j) - LE(before)
ROOF_TOL = 1e-5              # |roof descent - closed form| on two qubits

_QUBITS = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
_PAIR = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))
_WERNER_P = (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0)


def _tally(figures: list[dict], gates: dict) -> tuple[dict, list[str]]:
    """Worst value of each figure over the trials, and one line per trial
    with a figure over its gate (NaN breaks the gate too)."""
    worst = {name: max((f[name] for f in figures if name in f), default=None) for name in gates}
    failures = []
    for i, trial in enumerate(figures):
        broken = [f"{name} {value:.2e} > {gates[name]:.0e}"
                  for name, value in trial.items() if not value <= gates[name]]
        if broken:
            failures.append(f"trial {i}: {', '.join(broken)}")
    return worst, failures


def duality(trials: int, seed: int):
    """Round trip rho -> Jamiolkowski map -> rho, and each branch of a
    rank-one helper POVM against the direct conditional state: on the locked
    state, then on random states of 2-3 dimensional parties drawn from
    ``spawn_rngs(seed, trials - 1)``; the POVMs from ``spawn_rngs(seed + 1, trials)``.
    """
    figures = []
    states = [build_locked_state().to_density()]
    for rng in spawn_rngs(seed, max(trials - 1, 0)):
        da, db, dz = (int(rng.integers(2, 4)) for _ in range(3))
        dims = DimSpec.make(("A", da, "A"), ("B", db, "B"), ("C", dz, "Z"))
        states.append(random_density(dims, rng, rank=int(rng.integers(1, 4))))
    for rho, rng in zip(states, spawn_rngs(seed + 1, trials)):
        jam = from_state(rho)
        round_trip = float(np.max(np.abs(jam.reconstruct().matrix - rho.matrix)))
        branch = 0.0
        for q in random_rank1_povm(jam.d_z, jam.d_z + 1, rng):
            try:
                p_direct, sig_direct = conditional_state(rho, q, null_tol=RARE_BRANCH_TOL)
            except NullBranchError:
                continue
            p_jam, sig_jam = jam.branch(q)
            branch = max(branch, abs(p_direct - p_jam),
                         float(np.max(np.abs(sig_direct.matrix - sig_jam.matrix))))
        figures.append({"round_trip": round_trip, "branch": branch})
    return _tally(figures, {"round_trip": ROUND_TRIP_TOL, "branch": BRANCH_TOL})


def gconcurrence_algebra(trials: int, seed: int):
    """G(c psi) = c^2 G(psi), G((A x B) psi) = |det A det B|^(2/d) G(psi) and
    G(phi+_d) = 1 on Haar-random d x d states, d in 2..4, Ginibre A and B."""
    figures = []
    for rng in spawn_rngs(seed, trials):
        d = int(rng.integers(2, 5))
        psi = random_pure(d, rng)
        g = gconcurrence_pure(psi)
        c = float(rng.uniform(0.1, 2.0))
        scaled = PureState(c * psi.amplitudes, psi.dims, normalized=False)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mapped = PureState(np.kron(a, b) @ psi.amplitudes, psi.dims, normalized=False)
        expected = (abs(np.linalg.det(a)) * abs(np.linalg.det(b))) ** (2 / d) * g
        figures.append({
            "homogeneity": abs(gconcurrence_pure(scaled) - c * c * g),
            "multiplicativity": abs(gconcurrence_pure(mapped) - expected) / max(1.0, expected),
            "unit_value": abs(gconcurrence_pure(PureState(phi_plus_vector(d), psi.dims)) - 1.0),
        })
    return _tally(figures, {"homogeneity": HOMOGENEITY_TOL,
                            "multiplicativity": MULTIPLICATIVITY_TOL,
                            "unit_value": UNIT_VALUE_TOL})


def povm_convexity(trials: int, seed: int):
    """At a fixed helper POVM, the concurrence average on a mixture of three
    random 2 x 2 x 2 states of rank 1-2 is at most the mixed averages. The
    POVM has 3 or 4 outcomes with rank-one or full-rank elements, so both the
    one-column and the many-column element factors of the average are run.
    """
    measure, figures = concurrence_measure(), []
    for rng in spawn_rngs(seed, trials):
        parts = [random_density(_QUBITS, rng, rank=int(rng.integers(1, 3))) for _ in range(3)]
        t = rng.dirichlet(np.ones(3))
        mix = DensityOperator(sum(w * p.matrix for w, p in zip(t, parts)), _QUBITS)
        draw = random_povm if rng.integers(2) else random_rank1_povm
        povm = ProductPOVM.single_party("C", draw(2, int(rng.integers(3, 5)), rng))
        lhs = average_root_entanglement(mix, povm, measure).value
        rhs = sum(w * average_root_entanglement(p, povm, measure).value
                  for w, p in zip(t, parts))
        figures.append({"violation": lhs - rhs})
    return _tally(figures, {"violation": CONVEXITY_TOL})


def gconcurrence_monotonicity(trials: int, seed: int):
    """The f-factors of a random instrument on A (2-3 outcomes of 1-2 Kraus
    operators) sum to at most one, and the G-rooted LE of a Haar-random
    2 x 2 x 2 state does not rise under it. The pure input, and the pure
    post-measurement states of one-Kraus outcomes, take the LE's closed form
    (the concurrence of assistance); the mixed post-measurement states of
    two-Kraus outcomes take a seeded 6-restart search."""
    measure, figures = gconcurrence_measure(), []
    for rng in spawn_rngs(seed, trials):
        psi = random_pure(_QUBITS, rng)
        inst = Instrument("A", random_instrument(2, int(rng.integers(2, 4)),
                                                 int(rng.integers(1, 3)), rng))
        gap = monotonicity_gap(psi, inst, measure,
                               config=LEConfig(restarts=6, max_iters=200,
                                               seed=int(rng.integers(2**31))))
        figures.append({"f_sum": sum(inst.f_factors()), "gap": gap})
    return _tally(figures, {"f_sum": 1.0 + F_SUM_TOL, "gap": MONOTONICITY_TOL})


def kraus_bound(trials: int, seed: int):
    """The f-factors of a random instrument on one party of dimension 2-4
    (1-4 outcomes of 1-3 Kraus operators) sum to at most one."""
    figures = []
    for rng in spawn_rngs(seed, trials):
        d = int(rng.integers(2, 5))
        inst = Instrument("A", random_instrument(d, int(rng.integers(1, 5)),
                                                 int(rng.integers(1, 4)), rng))
        figures.append({"f_sum": sum(inst.f_factors())})
    return _tally(figures, {"f_sum": 1.0 + F_SUM_TOL})


def roof_descent(trials: int, seed: int):
    """The convex-roof descent, which ``gconcurrence_mixed`` runs on d x d cuts
    with d > 2, run here on two qubits, where the roof has a closed form: its
    distance to the Wootters concurrence on random states of rank 2-4 drawn
    from ``spawn_rngs(seed, trials)``, then to max(0, (3p - 1) / 2) on six
    Werner states, one figure row each after the random ones. The descent
    takes rank + 2 members and the default ``RoofConfig``."""

    def descent(rho: DensityOperator) -> float:
        return _descent(eigen_factor(rho), rho.dims, RoofConfig())[0]

    figures = []
    for rng in spawn_rngs(seed, trials):
        rho = random_density(_PAIR, rng, rank=int(rng.integers(2, 5)))
        figures.append({"random": abs(descent(rho) - wootters_concurrence(rho))})
    for p in _WERNER_P:
        figures.append({"werner": abs(descent(werner_state(p)) - max(0.0, (3 * p - 1) / 2))})
    return _tally(figures, {"random": ROOF_TOL, "werner": ROOF_TOL})
