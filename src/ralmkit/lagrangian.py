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


class Subproblem:
    """``l_rho(., y)`` at a fixed penalty and multiplier: the Newton
    subproblem.  It keeps no array but ``y``; :meth:`at` evaluates it at a
    point."""

    def __init__(self, P: ProblemSpec, rho: float, y: np.ndarray):
        if not (math.isfinite(rho) and rho > 0):
            raise LagrangianError(f"penalty must be positive and finite, got {rho}")
        self.P, self.rho, self.y = P, rho, y
        self.y_term = float(np.sum(y * y)) / (2.0 * rho)

    def at(self, X: ManifoldPoint) -> "Evaluation":
        return Evaluation(self, X)


class Evaluation:
    """``l_rho(., y)`` at one point ``X``, the one cache of its quantities.

    The value needs the envelope point ``p = g(X) + y/rho`` and its prox
    ``q``; one prox gives both the value and the shifted multiplier
    ``ytilde``, and ``q`` is not kept.  The derivatives reuse them: the
    Euclidean and Riemannian gradients, the dual gradient and the
    generalized Hessian.  Each is computed on first use and kept until
    :meth:`drop` frees it, or :meth:`ghess_operator` for those it reads
    last.  The Newton solver evaluates every line-search trial point and
    reads the derivatives only at accepted ones.

    The callbacks read the ambient matrix ``dense = X.X``, which a fixed-rank
    point forms on each read: ``p`` and ``value`` share one, which ``egrad``
    reads last and frees, and :meth:`ghess_operator` forms it once more.
    """

    def __init__(self, sub: Subproblem, X: ManifoldPoint):
        self.sub, self.X = sub, X

    def drop(self, *names: str) -> None:
        """Free the kept quantities ``names`` (``dense``, ``p``, ``value``,
        ``ytilde``, ``egrad``, ``rgrad``, ``grad_norm``, ``dual_grad``).  Each
        is a pure function of ``(X, y, rho)``, so a later read recomputes it
        with the same bits."""
        for name in names:
            if not isinstance(getattr(Evaluation, name, None), cached_property):
                raise AttributeError(f"{name!r} is not a kept quantity")
            self.__dict__.pop(name, None)

    @cached_property
    def dense(self) -> np.ndarray:
        """The point's ambient matrix ``X.X``."""
        return self.X.X

    @cached_property
    def p(self) -> np.ndarray:
        """The envelope argument g(X) + y/rho, summed as y/rho + g(X) into
        the quotient's array: addition commutes, bit for bit."""
        p = np.divide(self.sub.y, self.sub.rho)
        p += self.sub.P.g_value(self.dense)
        return p

    def _envelope(self, name: str):
        """Set ``value`` and ``ytilde`` from one prox and return ``name``."""
        P = self.sub.P
        env, self.__dict__["ytilde"] = P.theta.envelope(self.sub.rho, self.p)
        self.__dict__["value"] = P.f_value(self.dense) + env - self.sub.y_term
        return self.__dict__[name]

    @cached_property
    def value(self) -> float:
        return self._envelope("value")

    @cached_property
    def ytilde(self) -> np.ndarray:
        """Gradient of the Moreau envelope at g(X) + y/rho: the multiplier
        the augmented Lagrangian "sees", since its gradient in x equals the
        Lagrangian gradient at (x, ytilde)."""
        return self._envelope("ytilde")

    @cached_property
    def egrad(self) -> np.ndarray:
        egrad = lagrangian_egrad(self.sub.P, self.dense, self.ytilde)
        self.drop("dense")  # its last read before the Hessian's
        return egrad

    @cached_property
    def rgrad(self) -> np.ndarray:
        return self.X.manifold.project(self.X, self.egrad)

    @cached_property
    def grad_norm(self) -> float:
        """``|rgrad|``, kept when :meth:`drop` frees ``rgrad``."""
        return float(np.linalg.norm(self.rgrad))

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

        Without ``jac`` this is a Newton step's preparation, the last read of
        ``dense``, ``p``, ``ytilde`` and ``egrad``: it frees them (``p`` once
        the mask is built; a later read recomputes each).  ``G`` is kept only
        until ``W``'s second product, ``ytilde`` only for a ``gy_ehess`` term,
        and ``dense`` only for a term that reads X.
        """
        P, X, rho = self.sub.P, self.X, self.sub.rho
        egrad = self.egrad
        y = None if P.gy_ehess is None else self.ytilde
        mine = jac is None  # G is then written over the mask of the Jacobian built here
        G = (P.theta.prox_jacobian(1.0 / rho, self.p) if mine else jac).mask
        if mine:
            self.drop("p", "ytilde", "egrad")
        G = np.subtract(1.0, G, out=G if mine else None)
        G *= rho  # G w equals rho (w - mask w) exactly: mask is 0/1
        A, W = self.dense, None  # formed again once p and ytilde are gone
        if mine:
            self.drop("dense")
        if P.g_jvp is None:  # the envelope term is the weight term
            if G.shape != X.manifold.ambient_shape:
                raise LagrangianError(f"g_jvp=None needs g(X) of the ambient shape, got {G.shape}")
            W, G = P.g_vjp(A, G), None  # G goes before the second product
            W = P.g_vjp(A, W)
        ehess = _ehess(P, A, y, G)
        del A  # before the preparation; a term that reads X holds its own reference
        return X.manifold.hess_operator(X, egrad, ehess, W)


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


def lagrangian_egrad(P: ProblemSpec, A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean gradient of L(., y) = f + <y, g(.)> at the ambient matrix ``A``."""
    w = P.g_vjp(A, y)
    return w if P.f_egrad is None else P.f_egrad(A) + w


def _ehess(P: ProblemSpec, A: np.ndarray, y: np.ndarray,
           G: Optional[np.ndarray] = None) -> Optional[Callable]:
    """The Euclidean Hessian-vector product of L(., y) at the ambient matrix
    ``A``, plus the envelope term ``g_vjp(A, G * g_jvp(A, xi))`` when ``G`` is
    given, as one callable; ``None`` when every term is zero."""
    f, gy, jvp, vjp = P.f_ehess, P.gy_ehess, P.g_jvp, P.g_vjp  # gy is None for an affine g
    terms = [t for t in (f and (lambda xi: f(A, xi)), gy and (lambda xi: gy(A, y, xi)),
                         G is not None and (lambda xi: vjp(A, G * jvp(A, xi)))) if t]
    return None if not terms else terms[0] if len(terms) == 1 else (
        lambda xi: reduce(np.add, [t(xi) for t in terms]))


def lagrangian_hess_operator(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> Callable:
    """Riemannian Hessian of L(., y) at fixed y, prepared at ``X``:
    returns ``c -> Hess c`` on tangent coordinates."""
    A = X.X
    return X.manifold.hess_operator(X, lagrangian_egrad(P, A, y), _ehess(P, A, y))


def kkt_residual(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> float:
    """|grad_x L(x,y)| + |g(x) - prox_theta(g(x) + y)|; zero exactly at
    stationary pairs."""
    A = X.X
    g = P.g_value(A)
    grad_part = float(np.linalg.norm(X.manifold.project(X, lagrangian_egrad(P, A, y))))
    del A  # before the prox's arrays
    r = P.theta.prox(1.0, g + y)  # a fresh array; g may be X itself
    return grad_part + float(np.linalg.norm(np.subtract(g, r, out=r)))
