"""Problem-level quantities built from a problem definition.

A problem is ``min f(x) + theta(g(x))`` over a manifold.  This module
assembles the augmented Lagrangian

    l_rho(x, y) = f(x) + env_rho(g(x) + y/rho) - |y|^2 / (2 rho)

(where ``env_rho`` is the Moreau envelope of theta), its Riemannian
gradient, generalized Hessian-vector products, the multiplier update and
the KKT residual.  All dual quantities are computed analytically from the
envelope, never by differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
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
      and its Euclidean derivatives,
    * ``g_value(X)`` -- constraint-space image of X,
    * ``g_jvp(X, xi)`` / ``g_vjp(X, w)`` -- the differential of g and its
      adjoint,
    * ``gy_ehess(X, y, xi)`` -- Euclidean Hessian-vector of ``<y, g(.)>``
      at fixed y, or ``None`` when g is affine (the term is then zero).

    No callback result is written into, so ``f_ehess`` may return ``xi``.
    """

    manifold: Manifold
    f_value: Callable[[np.ndarray], float]
    f_egrad: Callable[[np.ndarray], np.ndarray]
    f_ehess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_value: Callable[[np.ndarray], np.ndarray]
    g_jvp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_vjp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gy_ehess: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]
    theta: L1Norm
    name: str = "problem"


def _check_rho(rho: float) -> None:
    if rho <= 0:
        raise LagrangianError(f"penalty must be positive, got {rho}")


def envelope_point(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """The envelope argument g(X) + y/rho."""
    _check_rho(rho)
    return P.g_value(X.X) + y / rho


def shifted_multiplier(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """ytilde = grad of the Moreau envelope at g(X) + y/rho.

    This is the multiplier the augmented Lagrangian "sees": its gradient
    in x equals the Lagrangian gradient at (x, ytilde).
    """
    return P.theta.moreau_grad(rho, envelope_point(P, rho, X, y))


def auglag_value(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> float:
    _check_rho(rho)
    env = P.theta.moreau(rho, envelope_point(P, rho, X, y))
    return P.f_value(X.X) + env - float(np.sum(y * y)) / (2.0 * rho)


def auglag_rgrad(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    yt = shifted_multiplier(P, rho, X, y)
    egrad = P.f_egrad(X.X) + P.g_vjp(X.X, yt)
    return X.manifold.project(X, egrad)


def auglag_dual_grad(P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """Gradient of the augmented Lagrangian in y: (ytilde - y) / rho."""
    return (shifted_multiplier(P, rho, X, y) - y) / rho


def lagrangian_rgrad(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """Riemannian gradient of L(x, y) = f(x) + <y, g(x)> at fixed y."""
    return X.manifold.project(X, P.f_egrad(X.X) + P.g_vjp(X.X, y))


def lagrangian_hess_operator(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> Callable:
    """Riemannian Hessian of L(., y) at fixed y, prepared at ``X``:
    returns ``(xi, extra=None) -> Hess xi + proj_T(extra)``."""
    rhess = X.manifold.hess_operator(X, P.f_egrad(X.X) + P.g_vjp(X.X, y))
    if P.gy_ehess is None:
        return lambda xi, extra=None: rhess(P.f_ehess(X.X, xi), xi, extra)
    return lambda xi, extra=None: rhess(P.f_ehess(X.X, xi) + P.gy_ehess(X.X, y, xi), xi, extra)


def ghess_operator(
    P: ProblemSpec, rho: float, X: ManifoldPoint, y: np.ndarray, jac: Optional[ProxJacobian] = None
) -> Callable:
    """A generalized Hessian of ``l_rho(., y)``, prepared once at ``X``:
    returns ``xi -> H xi``.

    ``H`` is the Riemannian Hessian of L(., ytilde) plus the projected
    second-order envelope term ``Dg* G Dg`` with ``G = rho (I - mask)``,
    where ``mask`` is a Clarke-Jacobian element of the prox at
    ``g(X) + y/rho``.  Passing ``jac`` selects the element; the default is
    the convention element (boundary bit 0).
    """
    _check_rho(rho)
    p = envelope_point(P, rho, X, y)
    if jac is None:
        jac = P.theta.prox_jacobian(1.0 / rho, p)
    smooth = lagrangian_hess_operator(P, X, P.theta.moreau_grad(rho, p))
    G = rho * (1.0 - jac.mask)  # G w equals rho (w - mask w) exactly: mask is 0/1

    def apply(xi):
        return smooth(xi, P.g_vjp(X.X, G * P.g_jvp(X.X, xi)))

    return apply


def auglag_ghess_vec(
    P: ProblemSpec,
    rho: float,
    X: ManifoldPoint,
    y: np.ndarray,
    xi: np.ndarray,
    jac: Optional[ProxJacobian] = None,
) -> np.ndarray:
    """A generalized Hessian-vector product of ``l_rho(., y)``: one
    application of :func:`ghess_operator`, for single-vector checks."""
    return ghess_operator(P, rho, X, y, jac)(xi)


def multiplier_update(
    P: ProblemSpec, rho: float, rho_tilde: float, X: ManifoldPoint, y: np.ndarray
) -> np.ndarray:
    """Dual ascent step y + rho_tilde * grad_y l_rho(x, y).

    With the full step ``rho_tilde = rho`` this returns ytilde up to
    rounding; for the l1 term ytilde lies in the sup-norm box up to
    rounding, and so does the updated multiplier.
    """
    _check_rho(rho)
    if not 0 < rho_tilde <= rho:
        raise LagrangianError(f"need 0 < rho_tilde <= rho, got {rho_tilde} vs {rho}")
    return y + rho_tilde * auglag_dual_grad(P, rho, X, y)


def kkt_residual(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> float:
    """|grad_x L(x,y)| + |g(x) - prox_theta(g(x) + y)|; zero exactly at
    stationary pairs."""
    g = P.g_value(X.X)
    grad_part = float(np.linalg.norm(lagrangian_rgrad(P, X, y)))
    prox_part = float(np.linalg.norm(g - P.theta.prox(1.0, g + y)))
    return grad_part + prox_part
