"""Bit-identity check of the benchmark's results across two checkouts.

    python3 tools/bitcheck.py dump OUT.npz [--root CHECKOUT] [--workload NAME ...]
    python3 tools/bitcheck.py compare A.npz B.npz

``dump`` runs every seed-0 operation of ``perfbench/workloads.py``'s
``SETUPS`` with BLAS pinned to one thread, importing ``ralmkit`` from
``CHECKOUT/src`` and the workloads from ``CHECKOUT/perfbench`` (default: the
checkout that holds this file; nothing there is written).  Each
``--workload NAME`` (repeatable) restricts it to the named workloads.  It
saves, per operation, every array a result holds:

* a solve: the final ``X`` and ``y``, every ``IterateRecord`` row, every
  inner objective trace, the ``NewtonStats`` counts and each inner solve's
  ``stop_reason``;
* a certificate: its fields (``min_eig``, ``subspace_dim``,
  ``boundary_count``, ``operator_applications``, ...).

``compare`` prints, per operation, ``IDENTICAL`` or the first field whose
bytes differ with its max abs difference, and exits 1 on any difference.
When the ``records`` differ it also prints their first differing row, which
is the outer step k: the two solves are byte-identical before it.  When any
bytes differ it adds whether the work counts held: the integer, bool and
string fields (``newton_counts``, ``stop_reasons``, ``trace_lengths``,
``converged``, a certificate's counts), so a change that only moves rounding
shows as ``work counts identical``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

# NumPy is imported inside the functions: `dump` must pin BLAS threads first.
ROOT = Path(__file__).resolve().parent.parent
STAT_COUNTS = ("iterations", "cg_iterations", "fallbacks", "rank_drop_retries",
               "line_search_failed", "stopped")
# dtype kinds of the work-count fields: integer, bool and string arrays
WORK_KINDS = "iubU"


def _import(root: Path):
    """Import ``root``'s workloads and ``ralmkit`` from ``root/src`` the way
    the benchmark does: BLAS pinned to one thread, solver warnings off."""
    sys.path.insert(0, str(root / "perfbench"))
    import run

    run.pin_blas_threads()
    run.import_program()
    import workloads

    return workloads


def _fields(result) -> dict:
    """Every array of one operation's result, by name."""
    import numpy as np

    if hasattr(result, "inner_stats"):  # a RalmResult
        stats = result.inner_stats
        return {
            "X": result.X.X,
            "y": result.y,
            "records": np.array([rec.as_row() for rec in result.records], dtype=float),
            "converged": np.array(result.converged),
            "newton_counts": np.array([[getattr(s, f) for f in STAT_COUNTS] for s in stats],
                                      dtype=np.int64).reshape(-1, len(STAT_COUNTS)),
            "stop_reasons": np.array([s.stop_reason for s in stats], dtype=str),
            "trace_lengths": np.array([len(s.objective_trace) for s in stats], dtype=np.int64),
            "objective_traces": np.array([v for s in stats for v in s.objective_trace]),
        }
    return {f.name: np.array(getattr(result, f.name)) for f in dataclasses.fields(result)}


def dump(out: str, root: Path, names=None) -> int:
    workloads = _import(root)
    import numpy as np

    unknown = sorted(set(names or ()) - set(workloads.SETUPS))
    if unknown:
        raise SystemExit(f"unknown workload {', '.join(unknown)}; "
                         f"known: {', '.join(workloads.SETUPS)}")
    arrays = {}
    for workload, setup in workloads.SETUPS.items():
        if names and workload not in names:
            continue
        for op in setup(0):
            for name, value in _fields(op.call()).items():
                arrays[f"{workload}/{op.name}/{name}"] = np.asarray(value)
            print(f"{workload}/{op.name}: dumped", flush=True)
    np.savez(out, **arrays)
    return 0


def _difference(a, b) -> str:
    import numpy as np

    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{list(a.shape)} vs {b.dtype}{list(b.shape)}"
    if a.tobytes() == b.tobytes():
        return ""
    if a.dtype.kind in "fiub":
        gap = np.abs(a.astype(float) - b.astype(float))
        return f"max abs difference {np.nanmax(gap) if gap.size else 0.0:.3e}"
    return "values differ"


def _first_row(a, b) -> int:
    """The first row where two row stacks differ; the shorter one's length
    when it is a prefix of the other."""
    n = min(len(a), len(b))
    return next((i for i in range(n) if a[i].tobytes() != b[i].tobytes()), n)


def compare(path_a: str, path_b: str) -> int:
    import numpy as np

    with np.load(path_a) as A, np.load(path_b) as B:
        ops = {}
        for key in list(A.files) + [k for k in B.files if k not in A.files]:
            op, name = key.rsplit("/", 1)
            ops.setdefault(op, []).append((key, name))
        differ = 0
        for op, keys in ops.items():
            gaps, row, counts = [], None, {}
            for key, name in keys:
                if key not in A.files or key not in B.files:
                    gap = f"only in {path_a if key in A.files else path_b}"
                    kind = (A if key in A.files else B)[key].dtype.kind
                else:
                    a, b = A[key], B[key]
                    gap, kind = _difference(a, b), a.dtype.kind
                    if gap and name == "records":
                        row = _first_row(a, b)
                if gap:
                    gaps.append(f"{name}: {gap}")
                if kind in WORK_KINDS:
                    counts[name] = gap
            verdict = gaps[0] if gaps else "IDENTICAL"
            if row is not None:
                verdict += f"; records differ from row {row}"
            if gaps and counts:
                moved = [name for name, gap in counts.items() if gap]
                verdict += (f"; work counts differ ({', '.join(moved)})" if moved
                            else "; work counts identical")
            differ += bool(gaps)
            print(f"{op}: {verdict}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run every seed-0 operation and save its results")
    p_dump.add_argument("out")
    p_dump.add_argument("--root", type=Path, default=ROOT, help="checkout to run")
    p_dump.add_argument("--workload", action="append", metavar="NAME",
                        help="dump only this workload (repeatable; default: every workload)")
    p_cmp = sub.add_parser("compare", help="compare two dumps field by field")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out, args.root, args.workload)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
