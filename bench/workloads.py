"""The benchmark's three workloads: their inputs, operations and checks.

Each ``build_*`` function is the set-up of one workload. It draws the inputs,
writes any input files and returns the list of operations of one round. An
operation's ``call`` is the timed work, made only through entloc's public
functions and its CLI. The calls look the functions up on the ``entloc``
package at call time, so the traced run's wrappers see them. An operation's
``check`` compares the output with the benchmark's own computations in
``reference.py`` and returns the problems it found. It also returns the bound
the op achieved next to the best value a closed form allows. An LE lower bound is set against the ceiling above it:
the concurrence of assistance of the A-B marginal, or log2 d. For a roof
upper bound, the closed-form floor below it (the Wootters value, the Werner
formula, or 0 where none is known) is set against the roof. ``fault`` marks
the one known program fault the benchmark keeps in a workload. An operation
that hits it counts as failed.

Core states are drawn once from ``PANEL_SEED``. The workload seed draws a
Haar-random local unitary for every party, which changes every amplitude
the program sees but no entanglement value. Every seed then poses the same
problems in another local frame. The bound tightness, and the optimizer
work it takes, compare across seeds, while the seed still moves every input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import entloc
import reference as ref
from entloc import (
    DensityOperator,
    DimSpec,
    Instrument,
    LEConfig,
    RoofConfig,
    concurrence_measure,
    gconcurrence_measure,
)
from entloc import cli
from entloc.catalog import build_locked_state, werner_state
from entloc.protocols import locked_state_protocol
from entloc.sampling import random_density, random_instrument, random_pure, random_unitary
from entloc.serialize import save_protocol, save_state

PANEL_SEED = 2006
SEPARABLE_SEED = 2007

# LE optimizer budget of the random pure states; the Powell polish dominates
LE_BUDGET = dict(restarts=2, max_iters=100)
LOCKED_RESTARTS = 4
ROOF_RESTARTS = 8

VALUE_TOL = 1e-9      # recomputed value vs reported value
# entloc's Wootters formula takes square roots of eigenvalues of rho rho~, so
# on rank-deficient branches it carries up to ~1.2e-8 of rounding (measured)
WOOTTERS_TOL = 1e-7
# G = 3 (l1 l2 l3)^(1/3) is ill-conditioned near product members: the 3x3
# roof value and its ensemble's recomputed average differ by up to 3.1e-7
G3_ENSEMBLE_TOL = 1e-5
QUBIT_SHORTFALL = 1e-6  # ascent below CoA, qubit helper (measured <= 1.1e-8)
QUTRIT_SHORTFALL = 1e-3  # ascent below CoA, qutrit helper (measured <= 3.5e-4)
GAP_TOL = 2e-3        # one-step monotonicity gap
ROOF_TOL = 2e-3       # roof vs closed form; separable roof vs 0
RECON_TOL = 1e-10     # decomposition ensemble vs rho


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple]  # (problems, achieved, best); no problems when correct
    fault: Callable[[Any], str | None] | None = None  # the known fault, if hit


def qubit_pair_dims(*helpers: int) -> DimSpec:
    return DimSpec.make(("A", 2, "A"), ("B", 2, "B"),
                        *[(f"Z{i}", d, "Z") for i, d in enumerate(helpers)])


def local_frame(dims: DimSpec, rng) -> np.ndarray:
    """Kronecker product of one Haar unitary per party."""
    out = np.ones((1, 1), dtype=np.complex128)
    for d in dims.local_dims:
        out = np.kron(out, random_unitary(d, rng))
    return out


def rotated_density(rho_matrix: np.ndarray, dims: DimSpec, frame: np.ndarray) -> DensityOperator:
    mat = frame @ rho_matrix @ frame.conj().T
    return DensityOperator(0.5 * (mat + mat.conj().T), dims)


def run_cli(argv) -> dict:
    """``entloc.cli.main`` in process; returns the parsed JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"entloc {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def decode_povm(doc) -> list:
    """POVM factors from the JSON form [[[re, im], ...] per factor] per outcome."""
    def mat(flat):
        arr = np.array([complex(re, im) for re, im in flat])
        d = int(round(np.sqrt(arr.size)))
        return arr.reshape(d, d)
    return [[mat(f) for f in outcome] for outcome in doc]


def helper_axes(dims: DimSpec) -> list:
    return [dims.labels.index(lab) for lab in dims.z_labels]


def _close(name, got, want, tol) -> list:
    return [] if abs(got - want) <= tol else [f"{name}: {got!r} vs {want!r} (tol {tol:g})"]


def _le_checks(name, rho: np.ndarray, dims: DimSpec, value, factors, score, tol) -> list:
    """POVM validity and the value recomputed at the reported POVM."""
    problems = []
    err = ref.povm_error(factors)
    if err > 1e-9:
        problems.append(f"{name}: POVM off by {err:.2e}")
    try:
        recomputed = ref.branch_average(rho, dims.local_dims, helper_axes(dims), factors, score)
    except ValueError as exc:  # a branch the score cannot take, e.g. a mixed one
        return problems + [f"{name}: {exc}"]
    return problems + _close(f"{name} recomputed average", value, recomputed, tol)


def _g_score(d_left, d_right):
    d = max(d_left, d_right)
    return lambda sigma: ref.gconcurrence_from_spectrum(
        ref.reduced_spectrum(sigma, d_left, d_right), d)


def _entropy_score(d_left, d_right):
    return lambda sigma: ref.entropy_from_spectrum(ref.reduced_spectrum(sigma, d_left, d_right))


def _coa(rho: np.ndarray, dims: DimSpec) -> float:
    keep = [dims.labels.index(lab) for lab in dims.y_labels]
    return ref.concurrence_of_assistance(ref.reduce(rho, dims.local_dims, keep))


def _check_qubit_le(name, rho: DensityOperator, res, score, shortfall):
    """A helper-only POVM can do no better than the concurrence of assistance
    of the A-B marginal. With one helper on a pure state it reaches it, and
    ``shortfall`` is how far below it the ascent may stop (None: no check)."""
    factors = [list(f) for f in res.povm.factors]
    problems = _le_checks(name, rho.matrix, rho.dims, res.value, factors, score, WOOTTERS_TOL)
    coa = _coa(rho.matrix, rho.dims)
    if res.value > coa + WOOTTERS_TOL:
        problems.append(f"{name}: LE {res.value!r} above CoA {coa!r}")
    if shortfall is not None and res.value < coa - shortfall:
        problems.append(f"{name}: LE {res.value!r} more than {shortfall:g} below CoA {coa!r}")
    return problems, res.value, coa


# ---------------------------------------------------------------------------
# pure-le


def build_pure_le(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    locked = build_locked_state()
    state_path = os.path.join(workdir, "locked.json")
    protocol_path = os.path.join(workdir, "locked_protocol.json")
    save_state(locked, state_path)
    save_protocol(locked_state_protocol(), protocol_path)
    locked_rho = ref.density(locked.amplitudes)
    ldims = locked.dims
    l_left = ldims.dim_of_labels(ldims.a_labels)
    l_right = ldims.dim_of_labels(ldims.b_labels)
    ceiling = float(np.log2(min(l_left, l_right)))  # 2 ebits: EoC of the locked state
    le_seed = int(rng.integers(2**31))

    def check_le(doc):
        value = doc["results"]["value"]
        problems = _le_checks("locked LE", locked_rho, ldims, value,
                              decode_povm(doc["results"]["povm"]),
                              _entropy_score(l_left, l_right), VALUE_TOL)
        if not value < ceiling - 1e-3:
            problems.append(f"locked LE {value!r} not below the strict gap {ceiling} - 1e-3")
        return problems, value, ceiling

    def check_protocol(doc):
        leaves = doc["results"]["leaves"]
        problems = [f"EoC leaf {leaf['path']} = {leaf['value']!r}, not {ceiling}"
                    for leaf in leaves if abs(leaf["value"] - ceiling) > VALUE_TOL]
        problems += _close("EoC leaf probabilities", sum(leaf["p"] for leaf in leaves),
                           1.0, VALUE_TOL)
        return problems, doc["results"]["average"], ceiling

    ops = [
        Op("cli le locked entropy",
           lambda: run_cli(["le", state_path, "--measure", "entropy",
                            "--restarts", str(LOCKED_RESTARTS), "--seed", str(le_seed)]),
           check_le),
        Op("cli protocol locked entropy",
           lambda: run_cli(["protocol", state_path, protocol_path, "--measure", "entropy"]),
           check_protocol),
    ]

    panel = np.random.default_rng(np.random.SeedSequence([PANEL_SEED, 1]))
    cases = [(qubit_pair_dims(3), concurrence_measure(), "2x2x3 concurrence",
              QUTRIT_SHORTFALL)] * 2 + \
            [(qubit_pair_dims(2, 2), gconcurrence_measure(), "2x2x2x2 G", None)]
    for i, (dims, measure, name, shortfall) in enumerate(cases):
        core = random_pure(dims, panel).to_density().matrix
        rho = rotated_density(core, dims, local_frame(dims, rng))
        config = LEConfig(seed=int(rng.integers(2**31)), **LE_BUDGET)
        # G-concurrence equals the concurrence on a qubit pair
        score = ref.wootters_concurrence if measure.kind == "concurrence" else _g_score(2, 2)
        label = f"optimize_le {name} #{i}"
        ops.append(Op(label,
                      lambda rho=rho, measure=measure, config=config:
                          entloc.optimize_le(rho, measure, config),
                      lambda res, rho=rho, label=label, score=score, shortfall=shortfall:
                          _check_qubit_le(label, rho, res, score, shortfall)))
    return ops


# ---------------------------------------------------------------------------
# monotone

# (outcomes, Kraus operators per outcome) of each trial's instrument on A;
# one Kraus operator keeps the post-measurement states pure, two make them mixed
MONOTONE_TRIALS = ((2, 1), (3, 1), (2, 2))


def build_monotone(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    panel = np.random.default_rng(np.random.SeedSequence([PANEL_SEED, 2]))
    dims = qubit_pair_dims(2)
    measure = gconcurrence_measure()
    ops = []
    for i, (n_out, n_kraus) in enumerate(MONOTONE_TRIALS):
        core = random_pure(dims, panel).to_density().matrix
        kraus = random_instrument(2, n_out, n_kraus, panel)
        u_a = random_unitary(2, rng)
        frame = np.kron(u_a, np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        rho = rotated_density(core, dims, frame)
        inst = Instrument("A", tuple(tuple(u_a @ m @ u_a.conj().T for m in ms)
                                     for ms in kraus))
        config = LEConfig(seed=int(rng.integers(2**31)), **LE_BUDGET)

        def trial(rho=rho, inst=inst, config=config):
            outcomes = entloc.apply_instrument(rho, inst)
            base = entloc.optimize_le(rho, measure, config)
            posts = [None if post is None else entloc.optimize_le(post, measure, config)
                     for _, post in outcomes]
            return outcomes, base, posts

        label = f"monotone trial #{i} ({n_out} outcomes x {n_kraus} Kraus)"
        ops.append(Op(label, trial,
                      lambda out, rho=rho, inst=inst, label=label:
                          _check_trial(label, rho, inst, out)))
    return ops


def _check_trial(name, rho: DensityOperator, inst: Instrument, out):
    outcomes, base, posts = out
    dims = rho.dims
    problems, achieved, best = _check_qubit_le(f"{name} input", rho, base,
                                               ref.wootters_concurrence, QUBIT_SHORTFALL)
    fsum = ref.kraus_f_sum(inst.outcomes)
    if fsum > 1 + 1e-10:
        problems.append(f"{name}: sum |det M|^(2/d) = {fsum!r} > 1")
    party = dims.labels.index(inst.party)
    lhs = 0.0
    for j, ((q, post), kraus, res) in enumerate(zip(outcomes, inst.outcomes, posts)):
        mat = ref.apply_local_kraus(rho.matrix, dims.local_dims, party, kraus)
        q_ref = float(np.trace(mat).real)
        problems += _close(f"{name} outcome {j} probability", q, q_ref, 1e-12)
        if post is None:
            continue
        if np.max(np.abs(post.matrix - mat / q_ref)) > 1e-10:
            problems.append(f"{name} outcome {j}: post state differs from sum M rho M^dag / q")
        found, value, coa = _check_qubit_le(f"{name} outcome {j}", post, res,
                                            ref.wootters_concurrence, None)
        problems += found
        achieved += value
        best += coa
        lhs += q * res.value
    if lhs - base.value > GAP_TOL:
        problems.append(f"{name}: one-step gap {lhs - base.value:+.3e} > {GAP_TOL:g}")
    return problems, achieved, best


# ---------------------------------------------------------------------------
# roof

WERNER_P = (0.2, 0.8)
ROOF_22_RANKS = (2, 3, 4)
ROOF_33_RANKS = (2, 3)


def separable_state(rng) -> np.ndarray:
    """3x3 mixture of four random product vectors: rank 4, roof 0."""
    mat = np.zeros((9, 9), dtype=np.complex128)
    for w in rng.dirichlet(np.ones(4)):
        a, b = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        mat += w * ref.density(np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return mat


def build_roof(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    panel = np.random.default_rng(np.random.SeedSequence([PANEL_SEED, 3]))
    pair2, pair3 = qubit_pair_dims(), DimSpec.make(("A", 3, "A"), ("B", 3, "B"))
    cases = []  # (name, core matrix, dims, closed-form value or None)
    for rank in ROOF_22_RANKS:
        core = random_density(pair2, panel, rank=rank).matrix
        cases.append((f"2x2 rank {rank}", core, pair2, ref.wootters_concurrence(core)))
    for p in WERNER_P:
        cases.append((f"Werner p={p}", werner_state(p).matrix, pair2, max(0.0, (3 * p - 1) / 2)))
    for rank in ROOF_33_RANKS:
        cases.append((f"3x3 rank {rank}", random_density(pair3, panel, rank=rank).matrix,
                      pair3, None))
    ops = []
    for name, core, dims, exact in cases:
        rho = rotated_density(core, dims, local_frame(dims, rng))
        config = RoofConfig(restarts=ROOF_RESTARTS, seed=int(rng.integers(2**31)))
        label = f"roof {name}"
        ops.append(Op(label,
                      lambda rho=rho, config=config: entloc.gconcurrence_mixed(rho, config=config),
                      lambda out, rho=rho, label=label, exact=exact:
                          _check_roof(label, rho, out, exact)))
    # fixed input and optimizer seed, so the known fault shows on every run
    rho = DensityOperator(separable_state(np.random.default_rng(SEPARABLE_SEED)), pair3)
    config = RoofConfig(restarts=ROOF_RESTARTS, seed=SEPARABLE_SEED)
    label = "roof 3x3 separable rank 4"
    ops.append(Op(label,
                  lambda: entloc.gconcurrence_mixed(rho, config=config),
                  lambda out: _check_roof(label, rho, out, 0.0),
                  fault=lambda out: None if out[0] <= ROOF_TOL else
                      f"roof {out[0]:.3e} on a separable state, above {ROOF_TOL:g}"))
    return ops


def _check_roof(name, rho: DensityOperator, out, exact):
    value, ens = out
    d_left, d_right = rho.dims.local_dims
    vectors = [s.amplitudes for s in ens.states]
    problems = []
    if np.max(np.abs(ref.ensemble_matrix(ens.weights, vectors) - rho.matrix)) > RECON_TOL:
        problems.append(f"{name}: ensemble does not rebuild rho")
    problems += _close(f"{name} ensemble G average",
                       value, ref.ensemble_gconcurrence(ens.weights, vectors, d_left, d_right),
                       VALUE_TOL if d_left == 2 else G3_ENSEMBLE_TOL)
    if exact is not None:
        problems += _close(f"{name} roof vs closed form", value, exact, ROOF_TOL)
        return problems, exact, value
    eigen = ref.eigen_ensemble_gconcurrence(rho.matrix, d_left, d_right)
    if not 0.0 <= value <= eigen:
        problems.append(f"{name}: roof {value!r} outside [0, eigen-ensemble {eigen!r}]")
    return problems, 0.0, value


WORKLOADS = {
    "pure-le": build_pure_le,
    "monotone": build_monotone,
    "roof": build_roof,
}
