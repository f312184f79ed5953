"""Benchmark entry point for entloc.

    python3 bench/run.py --workload pure-le --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; entloc is imported from ``src/``.
Set-up draws the workload's inputs from ``--seed`` and writes its input
files. The run then repeats whole rounds of the workload's operations while
another round fits in ``--seconds`` (at least one), checks every output
against the benchmark's own computations, and prints one JSON object as the
last line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` every untraced round is followed by a traced one, and the
metrics are the per-layer calls and self time per round, the trace coverage
and the tracing overhead.

The process runs on one BLAS/OpenMP thread, set before numpy is imported.
"""

from __future__ import annotations

import argparse
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import entloc; print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pure-le", "monotone", "roof"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time of ``import entloc`` in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_round(ops):
    """Seconds and output of every call; an exception is the op's output and
    counts as failed."""
    seconds, outputs = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            outputs.append(op.call())
        except Exception as exc:  # one failing op must not end the run
            outputs.append(exc)
            print(f"# {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        seconds.append(time.perf_counter() - start)
    return seconds, outputs


def evaluate(ops, outputs) -> dict:
    failed = 0
    problems = []
    achieved = best = 0.0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failed += 1
            continue
        fault = op.fault(out) if op.fault else None
        if fault:
            failed += 1
            print(f"# failed: {op.label}: {fault}", file=sys.stderr)
            continue
        found, op_achieved, op_best = op.check(out)
        problems += found
        achieved += op_achieved
        best += op_best
    return {"failed": failed, "problems": problems,
            "tightness": 100.0 * achieved / best if best else 0.0}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entloc" / "__init__.py").is_file():
        print(f"error: no entloc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_import = import_seconds()
    import workloads

    WORK.mkdir(exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        build_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = build(args.seed, workdir)
            build_times.append(time.perf_counter() - t0)
        setup_s = setup_import + statistics.median(build_times)
        print("# machine " + json.dumps(machine_facts(), sort_keys=True))

        results = []     # evaluation of every round, traced or not
        untraced = []    # seconds of each untraced round
        traced = []      # (seconds, tracer summary) of each traced round
        start = time.perf_counter()

        def measure_round() -> float:
            seconds, outputs = run_round(ops)
            results.append(evaluate(ops, outputs))
            print(f"# round {len(results)}: {sum(seconds):.3f} s, failed {results[-1]['failed']}, "
                  f"bound tightness {results[-1]['tightness']!r} %, op seconds "
                  + json.dumps([round(s, 4) for s in seconds]), file=sys.stderr)
            return sum(seconds)

        def time_left(last: float) -> bool:
            """Whether another round of the last one's length ends within --seconds."""
            return time.perf_counter() - start + last <= args.seconds

        tracer = tracing.Tracer() if args.trace else None
        while True:
            last = measure_round()
            untraced.append(last)
            if tracer:  # pair each untraced round with a traced one
                tracer.reset()
                tracer.install()
                try:
                    seconds = measure_round()
                finally:
                    tracer.remove()
                traced.append((seconds, tracer.summary()))
                last += seconds
            if not time_left(last):
                break
        if tracer:
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")

    problems = [p for r in results for p in r["problems"]]
    tightness = {r["tightness"] for r in results}
    if len(tightness) > 1:
        problems.append(f"rounds on identical inputs returned different bounds: {sorted(tightness)}")
    for p in problems:
        print(f"# problem: {p}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(traced, statistics.median(untraced))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(untraced), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "bound_tightness": metric(results[0]["tightness"], "%"),
        }
    print(json.dumps({"correct": not problems, "attempted": len(ops) * len(results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


def layer_metrics(traced, untraced_wall: float) -> dict:
    """Per-layer means per traced round; coverage and overhead from medians."""
    n = len(traced)
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = metric(sum(s["calls"][name] for _, s in traced) / n, "count")
        out[f"{name}.self_s"] = metric(sum(s["self_s"][name] for _, s in traced) / n, "s")
    out[tracing.ITERATIONS] = metric(sum(s["iterations"] for _, s in traced) / n, "count")
    out["trace.coverage"] = metric(
        100.0 * statistics.median(s["top_level_s"] / t for t, s in traced), "%")
    out["trace.overhead_s"] = metric(statistics.median(t for t, _ in traced) - untraced_wall, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
