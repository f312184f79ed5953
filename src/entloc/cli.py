"""Command-line front end.

Subcommands: ``measure`` (score a state file), ``le`` (run the localizable
entanglement search), ``protocol`` (evaluate a protocol file), ``reproduce``
(the locked-state comparison table), ``properties`` (one seeded check of
``entloc.checks``: ``jamio``, ``gconc``, ``convexity``, ``monotonicity``,
``kraus``, ``roof`` or ``tree``, the checks of acceptance criteria 7, 5, 8,
3, 4, 6 and 9 at a chosen seed and trial count), ``emit`` (write catalog
states to the JSON format).

Exit codes: 0 ok, 1 property violation, 2 bad input (a parse error, a
non-finite entry, a bad option value, ``ENTLOC_SEED`` or ``--out`` path, or
the entropy root asked to score a mixed state), 3 dimension error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache

from . import __version__, checks
from .catalog import build_locked_state, canonical_state
from .localize import LEConfig, optimize_le
from .measures import (DimensionError, MixedBranchError, concurrence_measure, entropy_measure,
                       gconcurrence_measure)
from .protocols import evaluate_protocol, locked_state_protocol
from .roof import gconcurrence_mixed
from .serialize import ParseError, load_protocol, load_state, save_state
from .states import DensityOperator

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3

# ghz and w hold 2^n amplitudes: a larger --n is refused before any is allocated
_MAX_EMIT_QUBITS = 20

# the reproduce table's "kind" of an EoC and of an LE row, by the result's bound
_EOC_KIND = {"lower": "exact for the two-round protocol; lower bound on EoC",
             "estimate": "estimate (convex-roof leaves)"}
_LE_KIND = {"lower": "lower bound (search)", "estimate": "estimate (convex-roof branches)",
            "exact": "exact (concurrence of assistance)"}

MEASURES = {
    "entropy": entropy_measure,
    "wootters": concurrence_measure,
    "gconc": gconcurrence_measure,
}


def _non_negative_int(text: str) -> int:
    """argparse type of --seed and --trials: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _default_seed() -> int:
    try:
        return _non_negative_int(os.environ.get("ENTLOC_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"ENTLOC_SEED: {exc}") from exc


def _le_config(**budget) -> LEConfig:
    try:
        return LEConfig(**budget)
    except ValueError as exc:
        raise ParseError(f"bad optimizer budget: {exc}") from exc


def _emit_report(args, command: str, results: dict, config: dict, t0: float) -> None:
    report = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "results": results,
    }
    out = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    print(out)
    print(f"# wall time {time.perf_counter() - t0:.2f}s", file=sys.stderr)


def cmd_measure(args) -> int:
    t0 = time.perf_counter()
    state = load_state(args.state)  # a pure state stays a vector throughout
    measure = MEASURES[args.measure]()
    results = {"method": "closed form", "converged": True, "bound": "exact"}
    if measure.kind == "gconcurrence" and isinstance(state, DensityOperator):
        value, ens = gconcurrence_mixed(state)
        if ens.winner is not None:  # the descent ran: no closed form here
            results.update(method="convex-roof optimizer (upper bound)",
                           converged=ens.converged, bound="upper",
                           restart_values=list(ens.restart_values),
                           restart_evaluations=list(ens.restart_evaluations),
                           restart_iterations=list(ens.restart_iterations),
                           winner=ens.winner)
    else:
        value = measure.density(state)
    results["value"] = value
    _emit_report(args, "measure", results,
                 {"measure": args.measure, "state": args.state, "seed": None}, t0)
    return EXIT_OK


def cmd_le(args) -> int:
    t0 = time.perf_counter()
    state = load_state(args.state)
    measure = MEASURES[args.measure]()
    config = _le_config(restarts=args.restarts, seed=args.seed, max_iters=args.max_iters)
    result = optimize_le(state, measure, config)
    _emit_report(args, "le", result.to_dict(args.measure),
                 {"measure": args.measure, "state": args.state, "seed": args.seed,
                  "restarts": args.restarts, "max_iters": args.max_iters}, t0)
    return EXIT_OK


def cmd_protocol(args) -> int:
    t0 = time.perf_counter()
    state = load_state(args.state)
    tree = load_protocol(args.protocol)
    measure = MEASURES[args.measure]()
    result = evaluate_protocol(state, tree, measure)
    _emit_report(args, "protocol", result.to_dict(args.measure),
                 {"measure": args.measure, "state": args.state,
                  "protocol": args.protocol, "seed": None}, t0)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    """Locked-state comparison: collaboration value vs localizable value."""
    t0 = time.perf_counter()
    config = _le_config(restarts=args.restarts, seed=args.seed)
    config_g = _le_config(restarts=max(4, args.restarts // 4), seed=args.seed)
    locked = build_locked_state()  # scored as its vector: no dense operator

    eoc = evaluate_protocol(locked, locked_state_protocol(), entropy_measure())
    eoc_g = evaluate_protocol(locked, locked_state_protocol(), gconcurrence_measure())
    le = optimize_le(locked, entropy_measure(), config)
    le_g = optimize_le(locked, gconcurrence_measure(), config_g)

    rows = [
        ("EoC(entropy)", eoc.average, _EOC_KIND[eoc.bound]),
        ("LE(entropy)", le.value, _LE_KIND[le.bound]),
        ("EoC(G)", eoc_g.average, _EOC_KIND[eoc_g.bound]),
        ("LE(G)", le_g.value, _LE_KIND[le_g.bound]),
    ]
    results = {
        "table": [{"quantity": q, "value": v, "kind": k} for q, v, k in rows],
        "gap_entropy": eoc.average - le.value,
        "leaf_probabilities": [p for p, _, _ in eoc.leaves],
    }
    if args.format == "csv":
        print("quantity,value,kind")
        for q, v, k in rows:
            print(f"{q},{v:.6f},{k}")
    for q, v, _ in rows:
        print(f"{q} = {v:.6f}", file=sys.stderr)
    _emit_report(args, "reproduce", results,
                 {"seed": args.seed, "restarts": args.restarts}, t0)
    return EXIT_OK


SUITES = {
    "jamio": checks.duality,
    "gconc": checks.gconcurrence_algebra,
    "convexity": checks.povm_convexity,
    "monotonicity": checks.gconcurrence_monotonicity,
    "kraus": checks.kraus_bound,
    "roof": checks.roof_descent,
    "tree": checks.protocol_covariance,
}


def cmd_properties(args) -> int:
    t0 = time.perf_counter()
    worst, failures = SUITES[args.suite](args.trials, args.seed)
    results = {
        "suite": args.suite,
        "trials": args.trials,
        "failures": failures,
        "passed": args.trials - len(failures),
        "worst": worst,
    }
    _emit_report(args, "properties", results,
                 {"suite": args.suite, "trials": args.trials, "seed": args.seed}, t0)
    if failures:
        print(f"FAIL: {len(failures)} violation(s), reproducer seed {args.seed}",
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_emit(args) -> int:
    params = {}
    if args.p is not None:
        params["p"] = args.p
    if args.n is not None:
        if args.n > _MAX_EMIT_QUBITS:
            raise ParseError(f"--n {args.n} above the cap of {_MAX_EMIT_QUBITS} qubits")
        params["n"] = args.n
    if args.name == "werner" and args.p is None:
        raise ParseError("emit werner needs --p")
    try:
        state = canonical_state(args.name, **params)
    except ValueError as exc:  # e.g. a Werner parameter outside [0, 1]
        raise ParseError(str(exc)) from exc
    save_state(state, args.out)
    print(f"wrote {args.name} to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entloc",
        description="localizable entanglement and collaboration-protocol numerics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="score a state file with a root measure")
    p.add_argument("state")
    p.add_argument("--measure", choices=sorted(MEASURES), default="entropy")
    p.add_argument("--out")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("le", help="run the localizable-entanglement search")
    p.add_argument("state")
    p.add_argument("--measure", choices=sorted(MEASURES), default="entropy")
    p.add_argument("--restarts", type=int, default=LEConfig.restarts)
    p.add_argument("--max-iters", type=int, default=LEConfig.max_iters)
    p.add_argument("--seed", type=_non_negative_int, default=_default_seed())
    p.add_argument("--out")
    p.set_defaults(func=cmd_le)

    p = sub.add_parser("protocol", help="evaluate a protocol file on a state")
    p.add_argument("state")
    p.add_argument("protocol")
    p.add_argument("--measure", choices=sorted(MEASURES), default="entropy")
    p.add_argument("--out")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("reproduce", help="locked-state comparison table")
    p.add_argument("--seed", type=_non_negative_int, default=_default_seed())
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("properties", help="run a seeded invariant suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--trials", type=_non_negative_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=_default_seed())
    p.add_argument("--out")
    p.set_defaults(func=cmd_properties)

    p = sub.add_parser("emit", help="write a catalog state to a JSON file")
    p.add_argument("name",
                   choices=("bell", "phi_plus_4", "ghz", "w", "werner", "locked"))
    p.add_argument("--p", type=float, help="Werner mixing parameter")
    p.add_argument("--n", type=int, help="qubit count for ghz/w")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit)
    return parser


@lru_cache(maxsize=1)
def _parser(seed_env: str | None) -> argparse.ArgumentParser:
    """``build_parser()`` for one value of ENTLOC_SEED, the only input it
    reads (the --seed default): building it takes argparse ~0.9 ms, about as
    long as evaluating the locked-state protocol, so repeated in-process calls
    of ``main`` build it once."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser(os.environ.get("ENTLOC_SEED")).parse_args(argv)
        return args.func(args)
    except (ParseError, MixedBranchError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())
