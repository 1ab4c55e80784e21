"""Finite-difference verification of derivatives.

These checks compare analytic Riemannian gradients and generalized
Hessian-vector products against central differences taken along
retraction curves.  The envelope term is only twice differentiable away
from the prox threshold, so sampling rejects draws where the active set
changes inside the differencing stencil.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from . import geometry
from .geometry import ManifoldPoint
from .lagrangian import ProblemSpec, Subproblem


class OracleError(ValueError):
    pass


# Penalty at which the derivative checks run.
CHECK_RHO = 1.0
# Step of the four-point gradient stencil, whose error is O(h^4) truncation
# plus O(eps / h) rounding.  A two-point stencil at h = 1e-6 read rounding
# noise of 1.4e-5 to 1.7e-5 on 200 x 300 completion problems, above the
# 1e-5 gate of `ralmkit gradcheck`.
GRAD_STEP = 1e-3
# Step of the two-point stencil that differences gradients.
HESS_STEP = 1e-5
MAX_TRIES = 50


def _rel_err(approx: float, exact: float, scale: float = 1.0) -> float:
    # The denominator floor ties the comparison to the gradient scale, so a
    # near-orthogonal draw does not divide rounding noise by almost zero.
    return abs(approx - exact) / max(abs(exact), scale * 1e-3, 1e-12)


def directional_derivative(
    value: Callable[[ManifoldPoint], float],
    X: ManifoldPoint,
    xi: np.ndarray,
) -> float:
    """Four-point central difference of ``t -> value(retract(X, t xi))`` at 0."""
    h = GRAD_STEP

    def f(t):
        return value(geometry.retract(X, t * xi))

    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def _stable_sample(
    P: ProblemSpec,
    rng: np.random.Generator,
    h: float,
) -> Tuple[ManifoldPoint, np.ndarray, np.ndarray]:
    """Draw (X, y, xi) whose prox active set is the same at the five
    stencil points ``t = 0, +-h, +-2h``."""
    theta = P.theta
    for _ in range(MAX_TRIES):
        X = P.manifold.random_point(rng)
        y = theta.mu * rng.uniform(-1.0, 1.0, size=P.g_value(X.X).shape)
        xi = geometry.random_tangent(X, int(rng.integers(0, 2 ** 31)))
        sub = Subproblem(P, CHECK_RHO, y)
        masks = []
        for t in (-2.0 * h, -h, 0.0, h, 2.0 * h):
            p = sub.at(geometry.retract(X, t * xi) if t else X).p
            jac = theta.prox_jacobian(1.0 / CHECK_RHO, p)
            if jac.boundary_count:
                break
            masks.append(jac.mask)
        else:
            if all(np.array_equal(masks[0], m) for m in masks[1:]):
                return X, y, xi
    raise OracleError(f"could not sample a kink-free configuration in {MAX_TRIES} draws")


def gradient_check(P: ProblemSpec, samples: int = 20, seed: int = 0) -> float:
    """Max relative error of the augmented-Lagrangian gradient against central
    differences of its value along retraction curves; inf if an error is NaN."""
    if samples < 1:
        raise OracleError(f"need samples >= 1, got {samples}")
    rho = CHECK_RHO
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        X, y, xi = _stable_sample(P, rng, GRAD_STEP)
        sub = Subproblem(P, rho, y)
        grad = sub.at(X).rgrad
        exact = np.vdot(grad, xi)
        approx = directional_derivative(lambda Z: sub.at(Z).value, X, xi)
        worst = np.maximum(worst, _rel_err(approx, exact, scale=max(np.linalg.norm(grad), 1.0)))
    return float(worst) if np.isfinite(worst) else math.inf


def hessian_check(P: ProblemSpec, samples: int = 20, seed: int = 0) -> float:
    """Max relative error of generalized Hessian-vector products against
    differenced gradients along retraction curves (kink-free samples); inf if
    an error is NaN."""
    if samples < 1:
        raise OracleError(f"need samples >= 1, got {samples}")
    rho, h = CHECK_RHO, HESS_STEP
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        X, y, xi = _stable_sample(P, rng, h)
        sub, man = Subproblem(P, rho, y), X.manifold
        Hxi = man.ambient(X, sub.at(X).ghess_operator()(man.coords(X, xi)))
        up = sub.at(geometry.retract(X, h * xi)).rgrad
        dn = sub.at(geometry.retract(X, (-h) * xi)).rgrad
        fd = man.project(X, (up - dn) / (2.0 * h))
        worst = np.maximum(worst, np.linalg.norm(fd - Hxi) / max(np.linalg.norm(Hxi), 1e-8))
    return float(worst) if np.isfinite(worst) else math.inf
