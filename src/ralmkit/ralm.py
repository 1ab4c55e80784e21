"""Outer augmented-Lagrangian loop.

Alternates an inexact inner minimization (semismooth Newton, accepted by a
gradient-based criterion) with the dual ascent step, growing the penalty
whenever the KKT residual fails to halve.  At the largest penalty, a dual
step that repeats with little progress is extrapolated to the box of the
conjugate's domain.  Emits one telemetry record per outer iteration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from . import lagrangian
from .geometry import ManifoldPoint
from .lagrangian import ProblemSpec
from .newton import NewtonConfig, NewtonStats, ssn_minimize

log = logging.getLogger("ralmkit.ralm")

CRITERIA = ("a", "b", "c")
# The dual jump at rho_max: successive dual steps with cosine at least
# 1 - JUMP_COLLINEAR, with a KKT residual that fell but stayed above
# JUMP_PROGRESS times the last, move y along the step to the box face that
# the entries of the step above JUMP_SUPPORT times its largest one reach first.
JUMP_COLLINEAR = 1e-6
JUMP_PROGRESS = 0.9
JUMP_SUPPORT = 1e-3
# The inner-acceptance error schedule eps_k = max(EPS0 * KAPPA^k, EPS_MIN) is
# summable down to the floor, which bounds the criterion 'a' threshold below.
EPS0 = 0.5
KAPPA = 0.5
EPS_MIN = 1e-12


class RalmError(RuntimeError):
    pass


@dataclass
class RalmConfig:
    """Outer-loop tunables.

    ``rho_bar`` is the base level of the dual step: when positive, the
    dual step size is ``rho_k - rho_bar``; the default 0 takes the
    classical full step ``rho_tilde = rho``.  The inner-acceptance error
    schedule is ``eps_k = max(EPS0 * KAPPA^k, EPS_MIN)``, module constants,
    and ``criterion`` selects which gradient-based acceptance rule scales it.
    """

    rho0: float = 1.0
    rho_bar: float = 0.0
    gamma: float = 4.0
    rho_max: float = 1e8
    criterion: str = "b"
    exact_c: Optional[float] = None
    kkt_tol: float = 1e-8
    max_outer: int = 100
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.rho0 <= 0 or self.gamma < 1 or self.rho_max < self.rho0:
            raise ValueError("need rho0 > 0, gamma >= 1, rho_max >= rho0")
        if not 0 <= self.rho_bar < self.rho0:
            raise ValueError("base level must satisfy 0 <= rho_bar < rho0")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.exact_c is not None and self.exact_c <= 0:
            raise ValueError("exact-mode constant must be positive")
        if self.max_outer < 0:
            raise ValueError("max_outer must be nonnegative")


@dataclass
class IterateRecord:
    """Per-outer-iteration telemetry.  The fields, in order, are the columns
    of the CSV log, and their annotations (int or float) are its cell types."""

    k: int
    rho: float
    rho_tilde: float
    inner_iters: int
    grad_norm: float
    kkt_residual: float
    dual_step_norm: float
    auglag: float

    FIELDS: ClassVar[Tuple[str, ...]]  # the field names, set below the class

    def as_row(self) -> list:
        return [getattr(self, f) for f in self.FIELDS]

    def __post_init__(self):
        for f in self.FIELDS:
            v = getattr(self, f)
            if not isinstance(v, int) and not math.isfinite(v):  # an int may not fit a float
                raise RalmError(f"non-finite telemetry at outer iteration {self.k}: {f} = {v}")


IterateRecord.FIELDS = tuple(f.name for f in fields(IterateRecord))


@dataclass
class RalmResult:
    X: ManifoldPoint
    y: np.ndarray
    records: List[IterateRecord]
    converged: bool
    inner_stats: List[NewtonStats] = field(default_factory=list)
    dual_jumps: int = 0


def inner_threshold(variant: str, eps_k: float, rho_tilde: float, dual_step_norm: float) -> float:
    """Gradient-norm threshold for the inner acceptance criterion.

    The acceptance rule bounds ``sqrt(rho_tilde) * |grad l_rho|`` by an
    error term; this returns that bound divided by ``sqrt(rho_tilde)``.
    Variant 'a' uses the plain error, 'b' and 'c' scale it by the dual
    step norm and its square (each capped at one).
    """
    # these tests are written so that a NaN fails them
    if not 0 < rho_tilde < math.inf:
        raise RalmError(f"dual step size must be positive and finite, got {rho_tilde}")
    if variant not in CRITERIA:
        raise RalmError(f"unknown criterion variant {variant!r}")
    if not (0 <= eps_k < math.inf and 0 <= dual_step_norm < math.inf):
        raise RalmError("error parameter and dual step norm must be nonnegative and finite")
    if variant == "a":
        rhs = eps_k
    elif variant == "b":
        rhs = eps_k * min(1.0, dual_step_norm)
    else:
        rhs = eps_k * min(1.0, dual_step_norm ** 2)
    return rhs / math.sqrt(rho_tilde)


def dual_jump(y: np.ndarray, d: np.ndarray, d_prev: Optional[np.ndarray], armed: bool,
              R: float, R_prev: float, bound: float) -> Tuple[Optional[float], np.ndarray]:
    """Extrapolate the dual step ``d`` that produced ``y`` when it repeats.

    The rule applies when ``armed`` (the penalty is at its largest and the
    step is not the last), the KKT residual fell, but not below the
    JUMP_PROGRESS factor (``JUMP_PROGRESS * R_prev < R <= R_prev``), and
    ``d`` is collinear with ``d_prev``.  It then returns the step length
    ``t`` to the first face of the box ``|.|_inf <= bound`` over ``d``'s
    support, with ``clip(y + t d)`` when ``t > 1`` and ``y`` else.
    Otherwise it returns ``(None, y)``.
    """
    if not (armed and JUMP_PROGRESS * R_prev < R <= R_prev) or d_prev is None:
        return None, y
    scale = float(np.linalg.norm(d) * np.linalg.norm(d_prev))
    if not scale > 0 or float(np.vdot(d, d_prev)) < (1.0 - JUMP_COLLINEAR) * scale:
        return None, y
    size = np.abs(d)
    on = size > JUMP_SUPPORT * size.max()
    t = float(np.min((np.copysign(bound, d[on]) - y[on]) / d[on]))
    return t, (np.clip(y + t * d, -bound, bound) if t > 1 else y)


def ralm_solve(
    P: ProblemSpec,
    cfg: RalmConfig,
    X0: ManifoldPoint,
    y0: np.ndarray,
) -> RalmResult:
    """Run the outer loop from ``(X0, y0)`` until the KKT residual drops
    below ``cfg.kkt_tol`` or ``cfg.max_outer`` iterations elapse.  Record
    ``k`` describes the pair after ``k`` inner solves, record 0 the start."""
    y = np.asarray(y0, dtype=float)
    g_shape = np.shape(P.g_value(X0.X))
    if y.shape != g_shape:
        raise RalmError(f"multiplier shape {y.shape} does not match g(X0) {g_shape}")
    box = P.theta.mu
    if np.max(np.abs(y), initial=0.0) > box:
        log.warning("initial multiplier leaves the |.|_inf <= %g box", box)

    X, rho, R_prev = X0, cfg.rho0, math.inf
    R = lagrangian.kkt_residual(P, X, y)
    ev = lagrangian.Subproblem(P, rho, y).at(X)
    grad_norm, value = ev.grad_norm, ev.value
    del ev
    inner_iters, dual_step_norm, d_prev, stall_logged = 0, 0.0, None, False
    result = RalmResult(X=X0, y=y0, records=[], converged=False)  # X and y set at the end
    for k in range(cfg.max_outer + 1):
        result.records.append(IterateRecord(k, rho, rho - cfg.rho_bar, inner_iters, grad_norm, R,
                                            dual_step_norm, value))
        log.info("outer %d: rho=%.3g inner=%d |grad|=%.3e R=%.3e",
                 k, rho, inner_iters, grad_norm, R)
        result.converged = R <= cfg.kkt_tol
        if result.converged or k == cfg.max_outer:
            break
        if R > 0.5 * R_prev:
            rho = min(cfg.gamma * rho, cfg.rho_max)
        R_prev, rho_tilde = R, rho - cfg.rho_bar
        # 'b'/'c' scale eps_k by the dual step, which can still push their
        # threshold under rounding.
        eps_k = max(EPS0 * KAPPA ** k, EPS_MIN)

        def stop(ev):
            gnorm = ev.grad_norm
            # Criteria 'b'/'c' depend on the dual step at the current
            # iterate, so the threshold is re-evaluated every inner step.
            dual_step = rho_tilde * float(np.linalg.norm(ev.dual_grad))
            thr = inner_threshold(cfg.criterion, eps_k, rho_tilde, dual_step)
            ok = gnorm <= thr
            if cfg.exact_c is not None:
                ok = ok and gnorm <= cfg.exact_c * dual_step
            return ok

        if rho < cfg.rho_max:  # free the last dual step, which only a step at rho_max reads
            d_prev = d = None
        ev, nstats = ssn_minimize(P, rho, y, X, cfg.newton, stop)
        # the next record's fields; then the evaluation goes, and its dual
        # gradient, no longer held by it, takes y + rho_tilde * dual_grad
        X, grad_norm, value = ev.X, ev.grad_norm, ev.value
        step = ev.dual_grad
        del ev
        y_new = np.add(y, np.multiply(rho_tilde, step, out=step), out=step)
        result.inner_stats.append(nstats)
        if not nstats.stopped:
            log.warning("outer %d: inner solver exited before meeting its criterion: %s",
                        k + 1, nstats.stop_reason)
        R = lagrangian.kkt_residual(P, X, y_new)
        d = y_new - y
        dual_step_norm = float(np.linalg.norm(d))
        y, inner_iters = y_new, nstats.iterations
        # No jump on a final step: the last record's R must describe result.y.
        final = R <= cfg.kkt_tol or k + 1 == cfg.max_outer
        t, y = dual_jump(y, d, d_prev, rho == cfg.rho_max and not final, R, R_prev, box)
        if t is not None and t > 1:
            result.dual_jumps += 1
        elif t is not None and not stall_logged:
            log.warning("outer %d: the dual step repeats at rho_max with R %.3e -> %.3e, "
                        "but the box allows no jump (t = %.3g)", k + 1, R_prev, R, t)
            stall_logged = True
        d_prev = d
    result.X, result.y = X, y
    return result
