"""Globalized semismooth Newton solver for the augmented-Lagrangian
subproblem ``min_x l_rho(x, y)`` at fixed multiplier and penalty.

Each iteration solves the shifted generalized-Newton system

    (G_k + omega_k I) V = -grad l_rho(x_k, y),
    omega_k = |grad|^NU_BAR,  residual tolerance min(1/(k+1)^2, |grad|^(1+NU_BAR)),

by conjugate gradients on the tangent space, falls back to the steepest
descent direction whenever the candidate fails the sufficient-descent
test, and globalizes with an Armijo backtracking line search along the
retraction.  The system, the descent test and the line search work in
tangent coordinates (``Manifold.coords``): on the fixed-rank manifold the
factors ``[M; Up; Vp]``, not m x n arrays.

Two rules apply only where rounding decides the outcome, and leave every
other iterate's bits alone.  Where the gradient's ambient array carries a
normal part (rounding, on Stiefel) larger than the CG tolerance, the system,
the descent test and the slope use its tangent projection, since H maps into
the tangent space and CG cannot remove that part.  Where the Armijo decrease
``MU_LS step slope`` is within ``ARMIJO_ROUNDING_C`` eps of the value's scale,
a trial that fails the Armijo test is accepted if its gradient norm falls by
the factor ``1 - MU_LS step`` (the approximate-Wolfe device of Hager & Zhang,
SIAM J. Optim. 16(1), 2005).

The iteration also ends, with stop reason ``"noise_floor"``, at an iterate
whose gradient is within ``NOISE_FLOOR_C`` times its own first-order
rounding error: below that a Newton step cannot be told from rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import lagrangian
from .geometry import ManifoldPoint, RankDropError
from .lagrangian import ProblemSpec

log = logging.getLogger("ralmkit.newton")


class NewtonError(RuntimeError):
    pass


# Fixed parameters of the inner iteration, from common semismooth Newton
# practice where only their ranges are prescribed.
NU_BAR = 1.0  # CG shift omega_k = |grad|^NU_BAR, in (0, 1]
MU_LS = 1e-4  # Armijo constant, in (0, 1/2)
# The Armijo test is below rounding when |MU_LS step slope| <= ARMIJO_ROUNDING_C
# * EPS * max(1, |value|); a trial is then judged by its gradient norm.
ARMIJO_ROUNDING_C = 64.0
# Exit when |grad| <= NOISE_FLOOR_C * EPS * (|egrad| + rho |p|), the gradient's
# first-order rounding error: ytilde = rho (p - q) carries ~rho eps |p| per entry.
NOISE_FLOOR_C = 2.0
EPS = float(np.finfo(float).eps)
DELTA = 0.5  # backtracking factor, in (0, 1)
M_MAX = 40  # backtracks per line search
# A direction V passes if <-grad, V> >= min(BETA0, BETA1 |V|^DESCENT_POWER) |V|^2.
# BETA0 <= 1 makes the steepest-descent fallback always pass this test.
BETA0 = 1e-6
BETA1 = 1e-6
DESCENT_POWER = 2.0


@dataclass
class NewtonConfig:
    """Iteration budgets and the gradient-norm stopping tolerance of the
    inner solver."""

    cg_max_iter: int = 500
    grad_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if self.max_iter < 0 or self.cg_max_iter < 1:
            raise ValueError("need max_iter >= 0 and cg_max_iter >= 1")
        if not math.isfinite(self.grad_tol):
            raise ValueError(f"grad_tol must be finite, got {self.grad_tol}")


@dataclass
class NewtonStats:
    """Work counts of one inner solve and why it ended: ``stop_reason`` is
    ``"criterion"`` (the stop test held), ``"grad_tol"``, ``"max_iter"``,
    ``"line_search"`` (backtracks exhausted) or ``"noise_floor"`` (the
    gradient reached its rounding floor).  ``rounding_accepts`` counts the
    steps accepted by the gradient test where the Armijo test is below
    rounding."""

    iterations: int = 0
    cg_iterations: int = 0
    fallbacks: int = 0
    rank_drop_retries: int = 0
    rounding_accepts: int = 0
    stop_reason: str = "max_iter"
    objective_trace: List[float] = field(default_factory=list)

    @property
    def stopped(self) -> bool:
        """Whether the solve met its stop test or the gradient tolerance."""
        return self.stop_reason in ("criterion", "grad_tol")

    @property
    def line_search_failed(self) -> bool:
        return self.stop_reason == "line_search"


def cg_solve(
    apply_H: Callable[[np.ndarray], np.ndarray],
    omega: float,
    b: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple:
    """Conjugate gradients for ``(H + omega I) v = b`` on a tangent space.

    Vectors are tangent coordinates, with the inner product ``np.vdot``;
    ``apply_H`` must be self-adjoint.  Returns ``(x, iterations, reason)``
    with ``reason`` ``"converged"`` (residual norm at most ``tol``),
    ``"curvature"`` (nonpositive curvature along a direction: ``x`` is the
    iterate before it) or ``"max_iter"``.  Never writes into ``b`` or into
    an array that ``apply_H`` returns.
    """
    if omega < 0:
        raise ValueError("shift must be nonnegative")
    x = 0.0 * b
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, 0, "converged"
    r, d, Hd, t = b.astype(float), b.astype(float), np.empty(b.shape), np.empty(b.shape)
    rr = np.vdot(r, r)
    for it in range(max_iter):
        np.multiply(omega, d, out=Hd)
        Hd += apply_H(d)
        dHd = np.vdot(d, Hd)
        # A non-finite entry of Hd makes dHd non-finite, also where d is 0.
        if not math.isfinite(dHd):
            raise NewtonError("operator returned non-finite values")
        dd = np.vdot(d, d)
        if dHd <= 1e-14 * dd:
            return x, it, "curvature"
        alpha = rr / dHd
        x += np.multiply(alpha, d, out=t)
        r -= np.multiply(alpha, Hd, out=t)
        rr_new = np.vdot(r, r)
        if math.sqrt(rr_new) <= tol:
            return x, it + 1, "converged"
        d *= rr_new / rr
        d += r
        rr = rr_new
    return x, max_iter, "max_iter"


def ssn_minimize(
    P: ProblemSpec,
    rho: float,
    y: np.ndarray,
    X0: ManifoldPoint,
    cfg: Optional[NewtonConfig] = None,
    stop: Optional[Callable[[lagrangian.Evaluation], bool]] = None,
) -> tuple:
    """Run the globalized semismooth Newton iteration from ``X0``, a point
    or a one-element list holding it, which the solve empties: a caller that
    keeps no other reference has the start point freed at the first
    accepted step.

    ``stop(ev)`` is evaluated at every iterate, the last one included, with
    the :class:`~ralmkit.lagrangian.Evaluation` there (``ev.X``, the gradient
    ``ev.rgrad`` and its norm ``ev.grad_norm``, the shifted multiplier
    ``ev.ytilde``, ...); when omitted
    the solver stops at ``|grad| <= cfg.grad_tol``.  Either ends the solve
    before the rounding floor is tested.  Returns the
    :class:`~ralmkit.lagrangian.Evaluation` at the final iterate (its point
    ``ev.X``) together with :class:`NewtonStats`, whose ``stop_reason``
    says which exit ended it.
    """
    cfg = cfg or NewtonConfig()
    stats = NewtonStats()
    sub = lagrangian.Subproblem(P, rho, y)
    ev = sub.at(X0.pop() if isinstance(X0, list) else X0)
    man = ev.X.manifold
    stats.objective_trace.append(ev.value)

    for k in range(cfg.max_iter + 1):
        grad, gnorm = ev.rgrad, ev.grad_norm
        if not math.isfinite(gnorm) or not math.isfinite(ev.value):
            raise NewtonError(f"non-finite subproblem state at iteration {k}")
        if stop is not None and stop(ev):
            stats.stop_reason = "criterion"
            return ev, stats
        if gnorm <= cfg.grad_tol:
            stats.stop_reason = "grad_tol"
            return ev, stats
        floor = EPS * (float(np.linalg.norm(ev.egrad)) + rho * float(np.linalg.norm(ev.p)))
        if gnorm <= NOISE_FLOOR_C * floor:
            stats.stop_reason = "noise_floor"
            log.debug("iter %d: |grad| %.3e within %g x its rounding floor %.3e",
                      k, gnorm, NOISE_FLOOR_C, floor)
            return ev, stats
        if k == cfg.max_iter:
            return ev, stats

        omega = gnorm ** NU_BAR
        eta_cap = min(1.0 / (k + 1.0) ** 2, gnorm ** (1.0 + NU_BAR))
        g = man.coords(ev.X, grad)
        if g is grad:  # ambient coordinates: they keep grad's rounding-level normal part
            tangent = man.project(ev.X, grad)
            if np.linalg.norm(grad - tangent) > eta_cap:
                g = tangent
        del grad  # each array goes after its last read here; a later read recomputes it
        ev.drop("rgrad", "dual_grad")  # grad_norm is kept
        apply_H = ev.ghess_operator()  # frees dense, p, ytilde and egrad
        V, cg_iters, cg_reason = cg_solve(apply_H, omega, -g, eta_cap, cfg.cg_max_iter)
        del apply_H
        stats.cg_iterations += cg_iters

        vnorm = float(np.linalg.norm(V))
        descent = np.vdot(-g, V)
        if vnorm == 0.0 or descent < min(BETA0, BETA1 * vnorm ** DESCENT_POWER) * vnorm ** 2:
            V = -g
            stats.fallbacks += 1
            log.debug("iter %d: gradient fallback (cg %s)", k, cg_reason)

        slope = np.vdot(g, V)
        rounding = ARMIJO_ROUNDING_C * EPS * max(1.0, abs(ev.value))
        for m in range(M_MAX + 1):
            step = DELTA ** m
            try:
                trial = sub.at(man.retract(ev.X, step * V))
            except RankDropError:
                stats.rank_drop_retries += 1
                continue
            decrease = MU_LS * step * slope
            if trial.value <= ev.value + decrease:
                break
            if (abs(decrease) <= rounding
                    and trial.grad_norm <= (1.0 - MU_LS * step) * gnorm):
                stats.rounding_accepts += 1
                break
            del trial  # rejected: freed before the next retraction
        else:
            stats.stop_reason = "line_search"
            log.warning("iter %d: %d backtracks exhausted, returning best iterate", k, M_MAX)
            return ev, stats

        ev = trial
        stats.iterations = k + 1
        stats.objective_trace.append(ev.value)
