"""Bit-identity check of the benchmark's results across two checkouts.

    python3 tools/bitcheck.py dump OUT.npz [--root CHECKOUT] [--workload NAME ...]
    python3 tools/bitcheck.py compare A.npz B.npz
    python3 tools/bitcheck.py peak NAME [--root CHECKOUT] [--top N]

``dump`` runs every seed-0 operation of ``perfbench/workloads.py``'s
``SETUPS`` with BLAS pinned to one thread, importing ``ralmkit`` from
``CHECKOUT/src`` and the workloads from ``CHECKOUT/perfbench`` (default: the
checkout that holds this file; nothing there is written).  Each
``--workload NAME`` (repeatable) restricts it to the named workloads.  It
saves, per operation, every array a result holds:

* a solve: the final ``X`` and ``y``, every ``IterateRecord`` row, every
  inner objective trace, the ``NewtonStats`` counts (its integer fields,
  ``line_search_failed`` and ``stopped``), each inner solve's
  ``stop_reason`` and the ``dual_jumps`` count;
* a certificate: its fields (``min_eig``, ``subspace_dim``,
  ``boundary_count``, ``operator_applications``, ...).

Its ``dumped`` line for each operation also prints the operation's
tracemalloc peak above its start, in MiB and, for a solve, in arrays of its
point's ambient size.  The peak is not saved, so ``compare`` never reads it.

``compare`` prints, per operation, ``IDENTICAL`` or the first field whose
bytes differ with its max abs difference, and exits 1 on any difference.
When the ``records`` differ it also prints their first differing row, which
is the outer step k: the two solves are byte-identical before it.  When any
bytes differ it adds whether the work counts held: the integer, bool and
string fields (``newton_counts``, ``stop_reasons``, ``trace_lengths``,
``dual_jumps``, ``converged``, a certificate's counts), so a change that only moves rounding
shows as ``work counts identical``.

``peak`` runs the one seed-0 operation named ``NAME`` (``OP`` or
``WORKLOAD/OP``, as ``dump`` prints it) under a line-level probe: a
``sys.settrace`` hook that closes each ``CHECKOUT/src`` line with
``tracemalloc.reset_peak()``, so every line gets the traced peak above the
operation's start while it ran.  It prints the ``--top`` lines (default 10)
with the highest peak, in ambient arrays for a solve and in MiB otherwise.
The operation runs twice and only the second run is measured: the
interpreter builds its line tables for tracing in the first.
"""

from __future__ import annotations

import argparse
import dataclasses
import linecache
import os
import sys
import tracemalloc
import types
from array import array
from pathlib import Path

# NumPy is imported inside the functions: `dump` must pin BLAS threads first.
ROOT = Path(__file__).resolve().parent.parent
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
        from ralmkit.newton import NewtonStats

        stats = result.inner_stats
        counts = [f.name for f in dataclasses.fields(NewtonStats) if isinstance(f.default, int)]
        counts += ["line_search_failed", "stopped"]
        return {
            "X": result.X.X,
            "y": result.y,
            "records": np.array([rec.as_row() for rec in result.records], dtype=float),
            "converged": np.array(result.converged),
            "newton_counts": np.array([[getattr(s, f) for f in counts] for s in stats],
                                      dtype=np.int64).reshape(-1, len(counts)),
            "stop_reasons": np.array([s.stop_reason for s in stats], dtype=str),
            "trace_lengths": np.array([len(s.objective_trace) for s in stats], dtype=np.int64),
            "objective_traces": np.array([v for s in stats for v in s.objective_trace]),
            "dual_jumps": np.array(result.dual_jumps),
        }
    return {f.name: np.array(getattr(result, f.name)) for f in dataclasses.fields(result)}


def _traced(call):
    """``call()`` and its tracemalloc peak above its start, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _peak_text(result, peak: int) -> str:
    text = f"peak {peak / 2 ** 20:.3f} MiB"
    point = getattr(result, "X", None)  # a solve's point; a certificate has none
    return text if point is None else f"{text} = {peak / point.X.nbytes:.2f} ambient arrays"


def _code_lines(code):
    """The line numbers of ``code`` and of every code object nested in it."""
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_lines(const)


def _line_peaks(call, src: Path):
    """``call()`` under a line-level probe, and each line of a ``src`` file
    that ran with its highest tracemalloc peak above the start while it ran,
    by ``(file, line)``.

    The peak since the last reset belongs to the line that ran until the
    next event: a new line, a call (the caller's line so far) or a return
    (the callee's last line; then the nearest ``src`` caller's line runs
    again).  Every line of ``src`` has its slot before the start, so the
    probe keeps no new object while ``call`` runs; a first, unmeasured
    call makes the interpreter's line tables for tracing."""
    src = Path(src).resolve()
    prefix = f"{src}{os.sep}"
    keys = sorted({(str(path), line) for path in src.rglob("*.py")
                   for line in _code_lines(compile(path.read_bytes(), str(path), "exec"))})
    slots = {key: i for i, key in enumerate(keys)}
    peaks = array("q", [-1]) * len(keys)
    at, base = None, 0

    def close():
        if at is not None and tracemalloc.is_tracing():
            peaks[at] = max(peaks[at], tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.reset_peak()

    def local(frame, event, arg):
        nonlocal at
        close()
        if event == "line":
            at = slots.get((frame.f_code.co_filename, frame.f_lineno))
        elif event == "return":
            caller = frame.f_back
            while caller is not None and not caller.f_code.co_filename.startswith(prefix):
                caller = caller.f_back
            at = caller and slots.get((caller.f_code.co_filename, caller.f_lineno))
        return local

    def probe(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        close()
        return local

    sys.settrace(probe)
    try:
        call()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
        finally:
            tracemalloc.stop()
    finally:
        sys.settrace(None)
    return result, {key: peaks[i] for i, key in enumerate(keys) if peaks[i] >= 0}


def peak(name: str, root: Path, top: int = 10) -> int:
    root = root.resolve()  # the prefix of the imported modules' file names
    workloads = _import(root)
    for workload, setup in workloads.SETUPS.items():
        if "/" in name and not name.startswith(f"{workload}/"):
            continue
        op = next((op for op in setup(0) if name in (op.name, f"{workload}/{op.name}")), None)
        if op is not None:
            break
    else:
        raise SystemExit(f"no seed-0 operation {name}")
    result, peaks = _line_peaks(op.call, root / "src")
    point = getattr(result, "X", None)
    print(f"{workload}/{op.name}: {_peak_text(result, max(peaks.values(), default=0))}")
    for (path, line), size in sorted(peaks.items(), key=lambda kv: -kv[1])[:top]:
        amount = (f"{size / 2 ** 20:8.3f} MiB" if point is None
                  else f"{size / point.X.nbytes:6.2f} arrays")
        where = f"{os.path.relpath(path, root)}:{line}"
        print(f"{amount}  {where}  {linecache.getline(path, line).strip()}")
    return 0


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
            result, peak = _traced(op.call)
            for name, value in _fields(result).items():
                arrays[f"{workload}/{op.name}/{name}"] = np.asarray(value)
            print(f"{workload}/{op.name}: dumped; {_peak_text(result, peak)}", flush=True)
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
    p_peak = sub.add_parser("peak", help="print the src lines where one operation peaks")
    p_peak.add_argument("name", help="a seed-0 operation: OP or WORKLOAD/OP")
    p_peak.add_argument("--root", type=Path, default=ROOT, help="checkout to run")
    p_peak.add_argument("--top", type=int, default=10, help="lines to print (default 10)")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out, args.root, args.workload)
    if args.command == "peak":
        return peak(args.name, args.root, args.top)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
