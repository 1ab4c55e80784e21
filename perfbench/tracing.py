"""Outside-in tracing of ralmkit for the benchmark's traced runs.

``install`` replaces public functions and methods of ralmkit (and the two
SciPy routines the certificates spend their time in) by wrappers that record
one span per call: name, start, end, parent span and operation id.  Spans
are kept in flat arrays in memory and written out at the end of the run.
Nothing under ``src/`` is changed; ``uninstall`` puts the originals back, so
an untraced pass in the same process runs the original code.

Wrappers sit where callers look the name up: a module attribute for
functions reached through their module (``lagrangian.auglag_ghess_vec``,
``geometry.retract``), the importing module for names imported with
``from`` (``ralm.ssn_minimize``), and the class for methods
(``FixedRank.retract``, ``L1Norm.prox``).
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import scipy.linalg

from ralmkit import bench, certify, convex, geometry, lagrangian, newton, ralm

BENCH_BUILD = "bench.build"


def _targets():
    """(owner, attribute, span name) of every wrapped callable."""
    manifolds = {"stiefel": geometry.Stiefel, "fixed-rank": geometry.FixedRank}
    out = [
        (ralm, "ralm_solve", "ralm.solve"),
        (ralm, "ssn_minimize", "newton.ssn_minimize"),
        (newton, "cg_solve", "newton.cg_solve"),
        (lagrangian, "auglag_ghess_vec", "lagrangian.hvp"),
        (lagrangian, "auglag_value", "lagrangian.value"),
        (lagrangian, "auglag_rgrad", "lagrangian.rgrad"),
        (lagrangian, "auglag_dual_grad", "lagrangian.dual_grad"),
        (geometry, "retract", "geometry.retract"),
        (convex.L1Norm, "prox", "convex.prox"),
        (convex.L1Norm, "prox_jacobian", "convex.prox_jacobian"),
        (certify, "genhess_min_eig", "certify.genhess"),
        (certify, "mssosc_certificate", "certify.mssosc"),
        (certify, "critical_cone_basis", "certify.cone_basis"),
        (certify, "_quadratic_form", "certify.assembly"),
        (scipy.linalg, "eigvalsh", "certify.eig"),
        (scipy.linalg, "null_space", "scipy.null_space"),
    ]
    for label, cls in manifolds.items():
        out += [
            (cls, "retract", f"geometry.{label}.retract"),
            (cls, "project", f"geometry.{label}.project"),
            (cls, "tangent_basis", "geometry.tangent_basis"),
        ]
    for fn in ("build_cm", "cm_initial_point", "build_rmc", "rmc_random_outliers"):
        out.append((bench, fn, BENCH_BUILD))
    return out


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_names: List[str] = []
        self.prox_ties = 0
        self._stack = [-1]
        self._patches: list = []
        self._run_op = self._wrapper(self._id("bench.op"), lambda call: call())

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrapper(self, nid: int, fn: Callable, on_result: Callable = None) -> Callable:
        stack, names, parents, ops = self._stack, self.name, self.parent, self.op
        starts, ends, clock = self.start, self.end, time.perf_counter_ns
        op_names = self.op_names

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(len(op_names) - 1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_ties(self, jac) -> None:
        self.prox_ties += jac.boundary_count

    def install(self) -> None:
        for owner, attr, span in _targets():
            original = vars(owner)[attr]
            hook = self._count_ties if span == "convex.prox_jacobian" else None
            setattr(owner, attr, self._wrapper(self._id(span), original, hook))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_op(self, name: str, call: Callable):
        """Run one operation as a root span with a fresh operation id."""
        self.op_names.append(name)
        return self._run_op(call)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op, dtype=np.intc).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), op_names=np.array(self.op_names),
                 meta=np.array(json.dumps(meta)), **self.arrays())


class SpanTable:
    """Durations and self times of the spans recorded from index ``first`` on."""

    def __init__(self, tracer: Tracer, first: int = 0, last: int = None):
        a = tracer.arrays()
        dur = (a["end_ns"] - a["start_ns"]) * 1e-9
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        sel = slice(first, last)
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.name = a["name"][sel]
        self.parent_name = np.where(has_parent, a["name"][np.maximum(parent, 0)], -1)[sel]
        self.dur = dur[sel]
        self.self_time = (dur - child)[sel]

    def mask(self, name: str, parent: str = None) -> np.ndarray:
        m = self.name == self._ids.get(name, -1)
        if parent is not None:
            m &= self.parent_name == self._ids.get(parent, -1)
        return m

    def count(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def total(self, name: str, parent: str = None) -> float:
        return float(self.dur[self.mask(name, parent)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def mean_us(self, name: str) -> float:
        n = self.count(name)
        return 1e6 * self.total(name) / n if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanTable, work: Dict[str, int], passes: int, prox_ties: int,
                  build_s: float) -> Dict[str, float]:
    """Per-layer metrics of one pass; ``work`` sums the solve counts over
    ``passes`` whole passes.  A layer that did no work reports 0."""
    per = 1.0 / passes
    w = {k: v * per for k, v in work.items()}
    trials = spans.count("geometry.retract") * per
    m = {
        "newton.cg_iters": w.get("cg_iters", 0.0),
        "newton.cg_s": spans.total("newton.cg_solve") * per,
        "newton.cg_self_s": spans.self_total("newton.cg_solve") * per,
        "newton.cg_useful_frac": _ratio(w.get("cg_iters_met", 0.0), w.get("cg_iters", 0.0)),
        "newton.self_s": spans.self_total("newton.ssn_minimize") * per,
        "newton.steps": w.get("newton_steps", 0.0),
        "newton.ls_trials": trials,
        "newton.ls_accept_frac": _ratio(w.get("newton_steps", 0.0), trials),
        "newton.ls_failures": w.get("ls_failures", 0.0),
        "newton.fallbacks": w.get("fallbacks", 0.0),
        "newton.rank_drop_retries": w.get("rank_drop_retries", 0.0),
        "ralm.outer_steps": w.get("outer_steps", 0.0),
        "ralm.penalty_raises": w.get("penalty_raises", 0.0),
        "ralm.inner_unmet": w.get("inner_unmet", 0.0),
        "ralm.self_s": spans.self_total("ralm.solve") * per,
        "geometry.tangent_basis_s": spans.total("geometry.tangent_basis") * per,
        "convex.prox_ties": prox_ties * per,
        "certify.genhess_s": spans.total("certify.genhess") * per,
        "certify.mssosc_s": spans.total("certify.mssosc") * per,
        "certify.cone_basis_s": spans.total("certify.cone_basis") * per,
        "certify.eig_s": spans.total("certify.eig") * per,
        "certify.nullspace_s": spans.total("scipy.null_space", parent="certify.cone_basis") * per,
        "certify.assembly_s": spans.total("certify.assembly") * per,
        "bench.build_s": build_s,
    }
    for span in ("lagrangian.hvp", "lagrangian.value", "lagrangian.rgrad", "lagrangian.dual_grad",
                 "geometry.stiefel.retract", "geometry.stiefel.project",
                 "geometry.fixed-rank.retract", "geometry.fixed-rank.project",
                 "convex.prox", "convex.prox_jacobian"):
        m[f"{span}_calls"] = spans.count(span) * per
        m[f"{span}_us"] = spans.mean_us(span)
    return m
