"""End-to-end acceptance gate.

Each test checks one headline claim of the library at a pinned tolerance and
prints a single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see them).  These are deliberately redundant with the unit suites: they run
the public entry points at full published settings, budgets included.
"""

import time

import numpy as np

from entloc import (
    DensityOperator,
    DimSpec,
    Instrument,
    LEConfig,
    ProductPOVM,
    PureState,
    average_root_entanglement,
    concurrence_measure,
    conditional_state,
    entropy_measure,
    evaluate_protocol,
    from_state,
    gconcurrence_measure,
    gconcurrence_mixed,
    gconcurrence_pure,
    monotonicity_gap,
    NullBranchError,
    optimize_le,
    locked_state_protocol,
    wootters_concurrence,
)
from entloc.catalog import (
    LockedStateSpec,
    build_locked_state,
    phi_plus_vector,
    werner_state,
)
from entloc.sampling import (
    random_density,
    random_instrument,
    random_pure,
    random_rank1_povm,
    spawn_rngs,
)

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
    dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
    measure = gconcurrence_measure()
    worst = -np.inf
    for rng in spawn_rngs(20240303, 100):
        psi = random_pure(dims, rng)
        inst = Instrument("A", tuple(
            tuple(ms)
            for ms in random_instrument(2, int(rng.integers(2, 4)),
                                        int(rng.integers(1, 3)), rng)
        ))
        gap = monotonicity_gap(psi.to_density(), inst, measure,
                               config=LEConfig(restarts=6, max_iters=200,
                                               seed=int(rng.integers(2**31))))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 600.0
    _report(3, ok, f"max gap over 100 trials = {worst:+.2e} <= 1e-6, {elapsed:.0f}s")


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
    worst_h, worst_m = 0.0, 0.0
    for rng in spawn_rngs(51, 500):
        d = int(rng.integers(2, 5))
        psi = random_pure(d, rng)
        g = gconcurrence_pure(psi)
        c = float(rng.uniform(0.1, 2.0))
        scaled = PureState(c * psi.amplitudes, psi.dims, normalized=False)
        worst_h = max(worst_h, abs(gconcurrence_pure(scaled) - c * c * g))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mapped = PureState(np.kron(a, b) @ psi.amplitudes, psi.dims,
                           normalized=False)
        expected = (abs(np.linalg.det(a)) * abs(np.linalg.det(b))) ** (2 / d) * g
        worst_m = max(worst_m,
                      abs(gconcurrence_pure(mapped) - expected) / max(1.0, expected))
    worst_unit = max(
        abs(gconcurrence_pure(PureState(phi_plus_vector(d),
                                        DimSpec.make(("A", d, "A"), ("B", d, "B"))))
            - 1.0)
        for d in (2, 3, 4)
    )
    ok = worst_h <= 1e-12 and worst_m <= 1e-10 and worst_unit <= 1e-12
    _report(5, ok, f"homogeneity err {worst_h:.1e}, multiplicativity err "
                   f"{worst_m:.1e}, unit-value err {worst_unit:.1e}")


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
    ok = worst <= 2e-3 and worst_w <= 2e-3
    _report(6, ok, f"max |roof - closed form| = {worst:.1e} (random), "
                   f"{worst_w:.1e} (Werner)")


def test_criterion_7_channel_state_duality():
    worst_rt, worst_br = 0.0, 0.0
    cases = [LOCKED]
    for rng in spawn_rngs(71, 199):
        da, db, dz = (int(rng.integers(2, 4)) for _ in range(3))
        dims = DimSpec.make(("A", da, "A"), ("B", db, "B"), ("C", dz, "Z"))
        cases.append(random_density(dims, rng, rank=int(rng.integers(1, 4))))
    rngs = spawn_rngs(72, len(cases))
    for rho, rng in zip(cases, rngs):
        jam = from_state(rho)
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(jam.reconstruct().matrix - rho.matrix))))
        povm = random_rank1_povm(jam.d_z, jam.d_z + 1, rng)
        for q in povm:
            try:
                p_direct, sig_direct = conditional_state(rho, q, null_tol=1e-6)
            except NullBranchError:
                continue
            p_jam, sig_jam = jam.branch(q)
            worst_br = max(worst_br, abs(p_direct - p_jam),
                           float(np.max(np.abs(sig_direct.matrix - sig_jam.matrix))))
    ok = worst_rt <= 1e-12 and worst_br <= 1e-10
    _report(7, ok, f"round-trip err {worst_rt:.1e}, branch err {worst_br:.1e} "
                   f"over {len(cases)} states")


def test_criterion_8_per_povm_convexity():
    dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
    measure = concurrence_measure()
    worst = -np.inf
    for rng in spawn_rngs(81, 100):
        parts = [random_density(dims, rng, rank=int(rng.integers(1, 3)))
                 for _ in range(3)]
        t = rng.dirichlet(np.ones(3))
        mix = DensityOperator(sum(w * p.matrix for w, p in zip(t, parts)), dims)
        povm = ProductPOVM.single_party("C", random_rank1_povm(2, 3, rng))
        lhs = average_root_entanglement(mix, povm, measure).value
        rhs = sum(w * average_root_entanglement(p, povm, measure).value
                  for w, p in zip(t, parts))
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-9
    _report(8, ok, f"max convexity violation over 100 mixtures = {worst:+.2e}")
