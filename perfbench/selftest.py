"""Self-test of the benchmark: deterministic work counts repeat exactly.

    python3 perfbench/selftest.py [workload ...]

For every workload (default: all), runs one traced pass at seed 0 twice,
each after its own set-up, and checks that the outcomes, the solves' work
counts (from ``RalmResult``/``NewtonStats``) and the per-span call counts of
the trace are identical between the two.  For ``modes-cm200`` it also checks
the baseline of CM-200 seeds 0-4 measured when the benchmark was introduced
(single-threaded OpenBLAS): outer steps 18/48/53/37/35, 200,743 CG iterations
and 73 exhausted line searches.  Takes about two minutes; exits 0 when every
check holds and 1 otherwise.
"""

from __future__ import annotations

import sys

import run

MODES_BASELINE = {
    "outer_steps": {"cm200-seed0": 18, "cm200-seed1": 48, "cm200-seed2": 53,
                    "cm200-seed3": 37, "cm200-seed4": 35},
    "cg_iters": 200_743,
    "ls_failures": 73,
}


def traced_pass(setup, tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = setup(0)
        first = len(tracer.start)
        _, outcomes, _ = run.run_passes(ops, 0.0, tracer.run_op)
    finally:
        tracer.uninstall()
    spans = tracing.SpanTable(tracer, first)
    calls = {name: spans.count(name) for name in tracer.names}
    return {name: (out.status, out.work) for name, out in outcomes}, calls


def baseline_errors(ops) -> list:
    errors = []
    steps = {name: work.get("outer_steps") for name, (_, work) in ops.items()}
    if steps != MODES_BASELINE["outer_steps"]:
        errors.append(f"outer steps {steps}, baseline {MODES_BASELINE['outer_steps']}")
    for key in ("cg_iters", "ls_failures"):
        total = sum(work.get(key, 0) for _, work in ops.values())
        if total != MODES_BASELINE[key]:
            errors.append(f"{key} {total}, baseline {MODES_BASELINE[key]}")
    return errors


def main(argv) -> int:
    run.pin_blas_threads()
    run.import_program()
    import tracing
    import workloads

    names = argv or list(workloads.SETUPS)
    failures = 0
    for name in names:
        setup = workloads.SETUPS[name]
        first_ops, first_calls = traced_pass(setup, tracing)
        second_ops, second_calls = traced_pass(setup, tracing)
        errors = []
        if first_ops != second_ops:
            errors.append(f"outcomes or work counts differ: {first_ops} vs {second_ops}")
        if first_calls != second_calls:
            errors.append(f"traced call counts differ: {first_calls} vs {second_calls}")
        if name == "modes-cm200":
            errors += baseline_errors(first_ops)
        for err in errors:
            print(f"FAIL {name}: {err}")
        if not errors:
            print(f"ok   {name}: {len(first_ops)} operations, work and call counts repeat")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
