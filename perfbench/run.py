"""ralmkit benchmark: one workload per process, closed loop, one operation at a time.

Run from the repository root:

    python3 perfbench/run.py --workload modes-cm200 --seed 0 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout that holds this file.
A run times ``SETUP_REPEATS`` set-ups in fresh processes, sets up once
itself, then runs whole passes over the workload's operations, checking
every result, until ``--seconds`` have elapsed and the workload's
``MIN_PASSES`` are done.  Earlier lines of standard output describe the
machine and every operation; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` installs the tracing wrappers, sets up once, runs traced passes
for half the time and untraced passes for the other half, and reports the
per-layer metrics of one traced pass, including the tracing overhead.  Its
spans are written to ``.bench_out/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Import the program, set the workload up once and exit; see timed_setup.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    # Must run before NumPy is imported: OpenBLAS reads these once, at load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import ralmkit from this checkout's ``src/`` and never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ralmkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {src / 'ralmkit'} is missing")
    sys.path.insert(0, str(src))
    import ralmkit

    if Path(ralmkit.__file__).resolve().parent != src / "ralmkit":
        raise SystemExit(f"error: imported ralmkit from {ralmkit.__file__}, not from {src}")
    # The inner solver warns on every exhausted line search; keep stderr quiet.
    logging.getLogger("ralmkit").setLevel(logging.CRITICAL + 1)
    return ralmkit


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_setup(args) -> float:
    """Median wall time of ``SETUP_REPEATS`` fresh processes that each start
    Python, import the program and set the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(ops, seconds: float, run_op=None, min_passes: int = 1):
    """Run whole passes over ``ops`` until ``seconds`` have elapsed and at
    least ``min_passes`` are done.  Returns per-operation times, outcomes and
    the number of passes."""
    from workloads import FAILED, Outcome

    times = {op.name: [] for op in ops}
    outcomes = []
    passes = 0
    begin = time.perf_counter()
    while True:
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = run_op(op.name, op.call) if run_op else op.call()
            except Exception as exc:  # a crashing operation is counted, not fatal
                times[op.name].append(time.perf_counter() - t0)
                traceback.print_exc()
                outcomes.append((op.name, Outcome(FAILED, f"{type(exc).__name__}: {exc}")))
                continue
            times[op.name].append(time.perf_counter() - t0)
            outcomes.append((op.name, op.check(result)))
        passes += 1
        if passes >= min_passes and time.perf_counter() - begin >= seconds:
            return times, outcomes, passes


def pass_seconds(times) -> float:
    """Wall time of one pass: the sum of each operation's median time."""
    return sum(statistics.median(ts) for ts in times.values())


def end_to_end(times, outcomes, setup_s: float) -> dict:
    from workloads import SOLVED

    op_medians = [statistics.median(ts) for ts in times.values()]
    solved = sum(out.status == SOLVED for _, out in outcomes)
    return {
        "setup_s": setup_s,
        "run_s": pass_seconds(times),
        "op_s_p50": statistics.median(op_medians),
        "op_s_max": max(op_medians),
        "solved_frac": solved / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_ops(times, outcomes) -> None:
    """One line per operation: its times, its first outcome and work counts."""
    first = {}
    statuses = {}
    for name, out in outcomes:
        first.setdefault(name, out)
        statuses.setdefault(name, []).append(out.status)
    for name, ts in times.items():
        out = first[name]
        print(json.dumps({"op": name, "seconds": ts, "statuses": statuses[name],
                          "detail": out.detail, "work": out.work}))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    pin_blas_threads()

    import_program()
    import workloads

    setup = workloads.SETUPS[args.workload]
    if args.setup_only:
        setup(args.seed)
        return 0
    meta = dict(machine_info(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print(json.dumps({"meta": meta}))

    if args.trace:
        metrics, outcomes = traced_run(args, setup, meta)
        wanted = spec["per_layer"]
    else:
        setup_s = timed_setup(args)
        times, outcomes, _ = run_passes(setup(args.seed), args.seconds,
                                        min_passes=workloads.MIN_PASSES[args.workload])
        report_ops(times, outcomes)
        metrics = end_to_end(times, outcomes, setup_s)
        wanted = spec["end_to_end"]

    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")
    failed = sum(out.status == workloads.FAILED for _, out in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def traced_run(args, setup, meta):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    ops = setup(args.seed)
    first = len(tracer.start)
    ties_in_setup = tracer.prox_ties
    times, outcomes, passes = run_passes(ops, args.seconds / 2, tracer.run_op)
    tracer.uninstall()
    report_ops(times, outcomes)
    plain_times, plain_outcomes, _ = run_passes(ops, args.seconds / 2)

    work = Counter()
    for _, out in outcomes:
        work.update(out.work)
    build_s = tracing.SpanTable(tracer, 0, first).total(tracing.BENCH_BUILD)
    metrics = tracing.layer_metrics(tracing.SpanTable(tracer, first), work, passes,
                                    tracer.prox_ties - ties_in_setup, build_s)
    traced_s, plain_s = pass_seconds(times), pass_seconds(plain_times)
    metrics["bench.trace_overhead_s"] = traced_s - plain_s
    metrics["bench.trace_overhead_frac"] = (traced_s - plain_s) / plain_s
    print(json.dumps({"trace": {"traced_run_s": traced_s, "untraced_run_s": plain_s,
                                "traced_passes": passes, "spans": len(tracer.start) - first}}))
    tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}.npz", meta)
    return metrics, outcomes + plain_outcomes

if __name__ == "__main__":
    sys.exit(main())
