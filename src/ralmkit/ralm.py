"""Outer augmented-Lagrangian loop.

Alternates an inexact inner minimization (semismooth Newton, accepted by a
gradient-based criterion) with the dual ascent step, growing the penalty
whenever the KKT residual fails to halve.  Emits one telemetry record per
outer iteration.
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


class RalmError(RuntimeError):
    pass


@dataclass
class RalmConfig:
    """Outer-loop tunables.

    ``rho_bar`` is the base level of the dual step: when positive, the
    dual step size is ``rho_k - rho_bar``; the default 0 takes the
    classical full step ``rho_tilde = rho``.  The inner-acceptance error
    schedule is ``eps_k = eps0 * kappa^k`` (summable), and ``criterion``
    selects which gradient-based acceptance rule scales it.
    """

    rho0: float = 1.0
    rho_bar: float = 0.0
    gamma: float = 4.0
    rho_max: float = 1e8
    eps0: float = 0.5
    kappa: float = 0.5
    eps_min: float = 1e-12
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
        if not 0 < self.eps0 < 1 or not 0 < self.kappa < 1:
            raise ValueError("error schedule needs eps0, kappa in (0, 1)")
        if not 0 <= self.eps_min < 1:
            raise ValueError("error floor must lie in [0, 1)")
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


def inner_threshold(variant: str, eps_k: float, rho_tilde: float, dual_step_norm: float) -> float:
    """Gradient-norm threshold for the inner acceptance criterion.

    The acceptance rule bounds ``sqrt(rho_tilde) * |grad l_rho|`` by an
    error term; this returns that bound divided by ``sqrt(rho_tilde)``.
    Variant 'a' uses the plain error, 'b' and 'c' scale it by the dual
    step norm and its square (each capped at one).
    """
    if rho_tilde <= 0:
        raise RalmError(f"dual step size must be positive, got {rho_tilde}")
    if variant not in CRITERIA:
        raise RalmError(f"unknown criterion variant {variant!r}")
    if eps_k < 0 or dual_step_norm < 0:
        raise RalmError("error parameter and dual step norm must be nonnegative")
    if variant == "a":
        rhs = eps_k
    elif variant == "b":
        rhs = eps_k * min(1.0, dual_step_norm)
    else:
        rhs = eps_k * min(1.0, dual_step_norm ** 2)
    return rhs / math.sqrt(rho_tilde)


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
    box = P.theta.conjugate_bound()
    if np.max(np.abs(y), initial=0.0) > box:
        log.warning("initial multiplier leaves the |.|_inf <= %g box", box)

    X, rho, R_prev = X0, cfg.rho0, math.inf
    R = lagrangian.kkt_residual(P, X, y)
    ev = lagrangian.Subproblem(P, rho, y).at(X)
    inner_iters, dual_step_norm = 0, 0.0
    result = RalmResult(X=X, y=y, records=[], converged=False)
    for k in range(cfg.max_outer + 1):
        grad_norm = float(np.linalg.norm(ev.rgrad))
        result.records.append(IterateRecord(k, rho, rho - cfg.rho_bar, inner_iters, grad_norm, R,
                                            dual_step_norm, ev.value))
        log.info("outer %d: rho=%.3g inner=%d |grad|=%.3e R=%.3e",
                 k, rho, inner_iters, grad_norm, R)
        result.converged = R <= cfg.kkt_tol
        if result.converged or k == cfg.max_outer:
            break
        if R > 0.5 * R_prev:
            rho = min(cfg.gamma * rho, cfg.rho_max)
        R_prev, rho_tilde = R, rho - cfg.rho_bar
        # The floor stops eps_k from decaying below eps_min, which bounds the
        # criterion 'a' threshold below; 'b'/'c' scale it by the dual step,
        # which can still push it under rounding.  eps_min = 0 gives the pure
        # summable schedule.
        eps_k = max(cfg.eps0 * cfg.kappa ** k, cfg.eps_min)

        def stop(ev):
            gnorm = np.linalg.norm(ev.rgrad)
            # Criteria 'b'/'c' depend on the dual step at the current
            # iterate, so the threshold is re-evaluated every inner step.
            dual_step = rho_tilde * float(np.linalg.norm(ev.dual_grad))
            thr = inner_threshold(cfg.criterion, eps_k, rho_tilde, dual_step)
            ok = gnorm <= thr
            if cfg.exact_c is not None:
                ok = ok and gnorm <= cfg.exact_c * dual_step
            return ok

        del ev  # free the previous evaluation's arrays during the inner solve
        ev, nstats = ssn_minimize(P, rho, y, X, cfg.newton, stop)
        X = ev.X
        result.inner_stats.append(nstats)
        if not nstats.stopped:
            log.warning("outer %d: inner solver exited before meeting its criterion: %s",
                        k + 1, nstats.stop_reason)
        y_new = y + rho_tilde * ev.dual_grad
        dual_step_norm = float(np.linalg.norm(y_new - y))
        y, inner_iters = y_new, nstats.iterations
        R = lagrangian.kkt_residual(P, X, y)
        result.X, result.y = X, y
    return result
