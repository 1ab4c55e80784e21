"""Problem-level quantities built from a problem definition.

A problem is ``min f(x) + theta(g(x))`` over a manifold.  This module
assembles the augmented Lagrangian

    l_rho(x, y) = f(x) + env_rho(g(x) + y/rho) - |y|^2 / (2 rho)

(where ``env_rho`` is the Moreau envelope of theta), its Riemannian
gradient, its gradient in y, generalized Hessian-vector products and the
KKT residual.  All dual quantities are computed analytically from the
envelope, never by differencing.  An :class:`Evaluation` holds them at one
point, all from one prox, and is the one way to compute them: take one
from ``Subproblem(P, rho, y).at(X)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional

import numpy as np

from .convex import L1Norm, ProxJacobian
from .geometry import Manifold, ManifoldPoint


class LagrangianError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    """Callbacks defining ``min f(x) + theta(g(x))`` on a manifold.

    All callbacks work in ambient coordinates:

    * ``f_value(X)``, ``f_egrad(X)``, ``f_ehess(X, xi)`` -- the smooth term
      and its Euclidean derivatives; ``f_egrad`` is ``None`` when f is
      constant and ``f_ehess`` when f has a zero Hessian (the gradient and
      the Hessian then skip the term),
    * ``g_value(X)`` -- constraint-space image of X,
    * ``g_jvp(X, xi)`` / ``g_vjp(X, w)`` -- the differential of g and its
      adjoint; ``g_jvp`` is ``None`` when Dg(X) is entrywise: g's image has
      the ambient shape and ``g_vjp(X, w) = d * w`` is both maps,
    * ``gy_ehess(X, y, xi)`` -- Euclidean Hessian-vector of ``<y, g(.)>``
      at fixed y, or ``None`` when g is affine (the term is then zero).

    No callback result is written into, so ``f_ehess``, ``g_jvp`` and
    ``g_vjp`` may return their vector argument itself.
    """

    manifold: Manifold
    f_value: Callable[[np.ndarray], float]
    f_egrad: Optional[Callable[[np.ndarray], np.ndarray]]
    f_ehess: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]
    g_value: Callable[[np.ndarray], np.ndarray]
    g_jvp: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]
    g_vjp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gy_ehess: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]
    theta: L1Norm
    name: str = "problem"


class Subproblem:
    """``l_rho(., y)`` at a fixed penalty and multiplier: the Newton
    subproblem.  The terms that depend only on ``(rho, y)`` are computed
    once; :meth:`at` evaluates it at a point."""

    def __init__(self, P: ProblemSpec, rho: float, y: np.ndarray):
        if not (math.isfinite(rho) and rho > 0):
            raise LagrangianError(f"penalty must be positive and finite, got {rho}")
        self.P, self.rho, self.y = P, rho, y
        self.shift = y / rho
        self.y_term = float(np.sum(y * y)) / (2.0 * rho)

    def at(self, X: ManifoldPoint) -> "Evaluation":
        return Evaluation(self, X)


class Evaluation:
    """``l_rho(., y)`` at one point ``X``; each quantity is computed on
    first use and kept.

    The value needs the envelope point ``p = g(X) + y/rho`` and
    ``q = prox(p)``, one prox; the derivatives reuse them: the shifted
    multiplier ``ytilde``, the Euclidean and Riemannian gradients, the dual
    gradient and the generalized Hessian.  The Newton solver evaluates every
    line-search trial point and reads the derivatives only at accepted ones.
    """

    def __init__(self, sub: Subproblem, X: ManifoldPoint):
        self.sub, self.X = sub, X

    @cached_property
    def p(self) -> np.ndarray:
        """The envelope argument g(X) + y/rho."""
        return self.sub.P.g_value(self.X.X) + self.sub.shift

    @cached_property
    def q(self) -> np.ndarray:
        return self.sub.P.theta.prox(1.0 / self.sub.rho, self.p)

    @cached_property
    def value(self) -> float:
        P = self.sub.P
        return P.f_value(self.X.X) + P.theta.moreau(self.sub.rho, self.p, self.q) - self.sub.y_term

    @cached_property
    def ytilde(self) -> np.ndarray:
        """Gradient of the Moreau envelope at g(X) + y/rho: the multiplier
        the augmented Lagrangian "sees", since its gradient in x equals the
        Lagrangian gradient at (x, ytilde)."""
        return self.sub.P.theta.moreau_grad(self.sub.rho, self.p, self.q)

    @cached_property
    def egrad(self) -> np.ndarray:
        return lagrangian_egrad(self.sub.P, self.X, self.ytilde)

    @cached_property
    def rgrad(self) -> np.ndarray:
        return self.X.manifold.project(self.X, self.egrad)

    @cached_property
    def dual_grad(self) -> np.ndarray:
        """Gradient in y: (ytilde - y) / rho.  The dual step ``y + rho * dual_grad``
        gives ``ytilde`` up to rounding."""
        d = self.ytilde - self.sub.y
        d /= self.sub.rho
        return d

    def ghess_operator(self, jac: Optional[ProxJacobian] = None) -> Callable:
        """A generalized Hessian of ``l_rho(., y)`` at ``X``, prepared once:
        returns ``c -> H c`` on tangent coordinates (``Manifold.coords``).

        ``H`` is the Riemannian Hessian of L(., ytilde) plus the projected
        second-order envelope term ``Dg* G Dg`` with ``G = rho (I - mask)``,
        where ``mask`` is a Clarke-Jacobian element of the prox at ``p``.
        Passing ``jac`` selects the element; the default is the convention
        element (boundary bit 0).  When Dg(X) is entrywise (``g_jvp`` None)
        the envelope term is the weight term ``W * xi`` with
        ``W = g_vjp(g_vjp(G)) = G d^2`` (``G`` itself for an identity
        ``g_vjp``); otherwise it is ``g_vjp(G g_jvp(xi))``, added to the
        smooth terms.
        """
        P, X, rho = self.sub.P, self.X, self.sub.rho
        if jac is None:
            jac = P.theta.prox_jacobian(1.0 / rho, self.p)
        G = np.subtract(1.0, jac.mask)
        G *= rho  # G w equals rho (w - mask w) exactly: mask is 0/1
        if P.g_jvp is not None:
            return _hess_operator(P, X, self.ytilde, self.egrad,
                                  envelope=lambda xi: P.g_vjp(X.X, G * P.g_jvp(X.X, xi)))
        if G.shape != X.manifold.ambient_shape:
            raise LagrangianError(f"g_jvp=None needs g(X) of the ambient shape, got {G.shape}")
        return _hess_operator(P, X, self.ytilde, self.egrad, weight=P.g_vjp(X.X, P.g_vjp(X.X, G)))


def auglag_value(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> float:
    """``Subproblem(P, rho, y).at(X).value``; kept only for the benchmark's tracer."""
    return Subproblem(P, rho, y).at(X).value


def auglag_rgrad(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """``Subproblem(P, rho, y).at(X).rgrad``; kept only for the benchmark's tracer."""
    return Subproblem(P, rho, y).at(X).rgrad


def auglag_dual_grad(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """``Subproblem(P, rho, y).at(X).dual_grad``; kept only for the benchmark's tracer."""
    return Subproblem(P, rho, y).at(X).dual_grad


def auglag_ghess_vec(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray, xi: np.ndarray,
                     jac: Optional[ProxJacobian] = None) -> np.ndarray:
    """The generalized HVP ``Subproblem(P, rho, y).at(X).ghess_operator(jac)``
    of the ambient tangent vector ``xi``, in ambient form; kept only for the
    benchmark's tracer, which wraps it and the three above by name."""
    man = X.manifold
    return man.ambient(X, Subproblem(P, rho, y).at(X).ghess_operator(jac)(man.coords(X, xi)))


def lagrangian_egrad(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """Euclidean gradient of L(., y) = f + <y, g(.)> at X."""
    w = P.g_vjp(X.X, y)
    return w if P.f_egrad is None else P.f_egrad(X.X) + w


def _hess_operator(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray, egrad: np.ndarray,
                   weight: Optional[np.ndarray] = None,
                   envelope: Optional[Callable] = None) -> Callable:
    """Riemannian Hessian of L(., y), ``egrad`` its Euclidean gradient at X,
    plus the Euclidean terms ``envelope(xi)``, summed with the smooth terms,
    and ``weight * xi`` (``Manifold.hess_operator``)."""
    f, gy = P.f_ehess, P.gy_ehess  # gy is None for an affine g
    terms = [t for t in (f and (lambda xi: f(X.X, xi)), gy and (lambda xi: gy(X.X, y, xi)),
                         envelope) if t is not None]
    ehess = None if not terms else terms[0] if len(terms) == 1 else (
        lambda xi: reduce(np.add, [t(xi) for t in terms]))
    return X.manifold.hess_operator(X, egrad, ehess, weight)


def lagrangian_hess_operator(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> Callable:
    """Riemannian Hessian of L(., y) at fixed y, prepared at ``X``:
    returns ``c -> Hess c`` on tangent coordinates."""
    return _hess_operator(P, X, y, lagrangian_egrad(P, X, y))


def kkt_residual(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> float:
    """|grad_x L(x,y)| + |g(x) - prox_theta(g(x) + y)|; zero exactly at
    stationary pairs."""
    g = P.g_value(X.X)
    grad_part = float(np.linalg.norm(X.manifold.project(X, lagrangian_egrad(P, X, y))))
    prox_part = float(np.linalg.norm(g - P.theta.prox(1.0, g + y)))
    return grad_part + prox_part
