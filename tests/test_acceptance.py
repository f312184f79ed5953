"""End-to-end acceptance gate.

Each test checks one headline claim of the library at a pinned tolerance and
prints a single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see them), at full published settings, budgets included. Criteria 3, 5, 7
and 8 run the seeded checks of ``entloc.checks`` (the ones ``entloc
properties`` runs) at their pinned seed and trial count.
"""

import time

import numpy as np

from entloc import (DimSpec, Instrument, LEConfig, checks, entropy_measure, evaluate_protocol,
                    gconcurrence_mixed, locked_state_protocol, optimize_le, wootters_concurrence)
from entloc.catalog import LockedStateSpec, build_locked_state, phi_plus_vector, werner_state
from entloc.sampling import random_density, random_instrument, spawn_rngs

LOCKED = build_locked_state().to_density()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_collaboration_value():
    t0 = time.perf_counter()
    result = evaluate_protocol(LOCKED, locked_state_protocol(), entropy_measure())
    spec = LockedStateSpec()
    phi = phi_plus_vector(4)
    worst_fid = 1.0
    for (p, _, path), leaf in zip(result.leaves, result.leaf_states):
        x, y = path[0], path[-1]
        target = np.kron(np.eye(2)[x], np.kron(np.eye(4), spec.u_xy(x, y)) @ phi) / 2
        target /= np.linalg.norm(target)
        fid = float(np.real(target.conj() @ leaf.matrix @ target))
        worst_fid = min(worst_fid, fid)
    elapsed = time.perf_counter() - t0
    ok = (abs(result.average - 2.0) <= 1e-9 and worst_fid >= 1 - 1e-10
          and elapsed < 1.0)
    _report(1, ok, f"average={result.average:.9f}, min leaf fidelity="
                   f"{worst_fid:.12f}, {elapsed:.2f}s")


def test_criterion_2_strict_gap():
    t0 = time.perf_counter()
    values = []
    for seed in range(10):
        res = optimize_le(LOCKED, entropy_measure(),
                          LEConfig(restarts=64, seed=seed))
        values.append(res.value)
    elapsed = time.perf_counter() - t0
    worst = max(values)
    ok = worst < 2.0 - 1e-3 and elapsed < 300.0
    _report(2, ok, f"max LE over 10 seeds = {worst:.6f} < 1.999, {elapsed:.0f}s")


def test_criterion_3_monotone_root():
    t0 = time.perf_counter()
    worst, failures = checks.gconcurrence_monotonicity(100, 20240303)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    _report(3, ok, f"max gap over 100 trials = {worst['gap']:+.2e} <= 1e-6, {elapsed:.0f}s")


def test_criterion_4_kraus_bound():
    worst = -np.inf
    for rng in spawn_rngs(41, 1000):
        d = int(rng.integers(2, 5))
        kraus_sets = random_instrument(d, int(rng.integers(1, 5)),
                                       int(rng.integers(1, 4)), rng)
        inst = Instrument("A", tuple(tuple(ms) for ms in kraus_sets))
        worst = max(worst, sum(inst.f_factors()))
    ok = worst <= 1 + 1e-10
    _report(4, ok, f"max sum of f-factors over 1000 instruments = {worst:.12f}")


def test_criterion_5_gconcurrence_algebra():
    worst, failures = checks.gconcurrence_algebra(500, 51)
    _report(5, not failures, f"homogeneity err {worst['homogeneity']:.1e}, multiplicativity "
                             f"err {worst['multiplicativity']:.1e}, unit-value err "
                             f"{worst['unit_value']:.1e}")


def test_criterion_6_roof_vs_closed_form():
    dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"))
    worst = 0.0
    for rng in spawn_rngs(61, 50):
        rho = random_density(dims, rng, rank=int(rng.integers(2, 5)))
        roof, _ = gconcurrence_mixed(rho)
        worst = max(worst, abs(roof - wootters_concurrence(rho)))
    worst_w = 0.0
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        roof, _ = gconcurrence_mixed(werner_state(p))
        worst_w = max(worst_w, abs(roof - max(0.0, (3 * p - 1) / 2)))
    ok = worst <= 1e-5 and worst_w <= 1e-5
    _report(6, ok, f"max |roof - closed form| = {worst:.1e} (random), "
                   f"{worst_w:.1e} (Werner)")


def test_criterion_7_channel_state_duality():
    worst, failures = checks.duality(200, 71)
    _report(7, not failures, f"round-trip err {worst['round_trip']:.1e}, branch err "
                             f"{worst['branch']:.1e} over 200 states")


def test_criterion_8_per_povm_convexity():
    worst, failures = checks.povm_convexity(100, 81)
    _report(8, not failures, f"max convexity violation over 100 mixtures = "
                             f"{worst['violation']:+.2e}")
