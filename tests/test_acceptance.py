"""End-to-end acceptance gate.

Each test checks one headline claim of the library at a pinned tolerance and
prints a single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see them), at full published settings, budgets included. Criteria 3 to 9
run the seeded checks of ``entloc.checks`` (the ones ``entloc properties``
runs) at their pinned seed and trial count.
"""

import time

import numpy as np

from entloc import (LEConfig, checks, entropy_measure, evaluate_protocol, locked_state_protocol,
                    optimize_le)
from entloc.catalog import LockedStateSpec, build_locked_state, phi_plus_vector

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
    worst, failures = checks.kraus_bound(1000, 41)
    _report(4, not failures, f"max sum of f-factors over 1000 instruments = "
                             f"{worst['f_sum']:.12f}")


def test_criterion_5_gconcurrence_algebra():
    worst, failures = checks.gconcurrence_algebra(500, 51)
    _report(5, not failures, f"homogeneity err {worst['homogeneity']:.1e}, multiplicativity "
                             f"err {worst['multiplicativity']:.1e}, unit-value err "
                             f"{worst['unit_value']:.1e}")


def test_criterion_6_roof_vs_closed_form():
    worst, failures = checks.roof_descent(50, 61)
    _report(6, not failures, f"max |roof - closed form| = {worst['random']:.1e} (random), "
                             f"{worst['werner']:.1e} (Werner)")


def test_criterion_7_channel_state_duality():
    worst, failures = checks.duality(200, 71)
    _report(7, not failures, f"round-trip err {worst['round_trip']:.1e}, branch err "
                             f"{worst['branch']:.1e} over 200 states")


def test_criterion_8_per_povm_convexity():
    worst, failures = checks.povm_convexity(100, 81)
    _report(8, not failures, f"max convexity violation over 100 mixtures = "
                             f"{worst['violation']:+.2e}")


def test_criterion_9_protocol_covariance():
    worst, failures = checks.protocol_covariance(90, 91)
    _report(9, not failures, "max |tree average - path factorization| over 90 trees = "
                             + ", ".join(f"{v:.1e} ({k})" for k, v in worst.items()))
