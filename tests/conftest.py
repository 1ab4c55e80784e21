import dataclasses
import math

import numpy as np
import pytest

from ralmkit.convex import L1Norm
from ralmkit.geometry import Euclidean, retract
from ralmkit.lagrangian import ProblemSpec, Subproblem


def pytest_collection_modifyitems(config, items):
    """Refuse a test id that holds an object address: it changes on every
    run, so two runs' test lists cannot be compared by name."""
    unstable = [item.nodeid for item in items if " at 0x" in item.nodeid]
    if unstable:
        raise pytest.UsageError("test ids hold an object address; give them explicit ids:\n"
                                + "\n".join(unstable))


def evaluate(P, rho, X, y):
    """``l_rho(., y)`` at ``X``, for a single evaluation."""
    return Subproblem(P, rho, y).at(X)


def ambient_operator(X, H):
    """The ambient form ``v -> ambient(H(coords(v)))`` of an operator ``H``
    on tangent coordinates at ``X``; on Stiefel and Euclidean space ``H``'s
    own bits, as both maps return their argument."""
    man = X.manifold
    return lambda v: man.ambient(X, H(man.coords(X, v)))


def callback_ghess_operator(P, rho, X, y):
    """The generalized Hessian at the convention Jacobian element with its
    envelope term through the callbacks, ``g_vjp(G g_jvp(xi))`` with
    ``G = rho (1 - mask)``, summed with the smooth terms: the route
    ``Evaluation.ghess_operator`` takes when ``P.g_jvp`` is given (``g_vjp``
    serves as both maps when it is not)."""
    from ralmkit import lagrangian

    ev = evaluate(P, rho, X, y)
    G = rho * (1.0 - P.theta.prox_jacobian(1.0 / rho, ev.p).mask)
    Q = dataclasses.replace(P, g_jvp=P.g_jvp or P.g_vjp)
    return X.manifold.hess_operator(X, ev.egrad, lagrangian._ehess(Q, X.X, ev.ytilde, G))


def counted_ghess_operator(P, rho, X, y, calls):
    """The prepared generalized Hessian of ``P``, with one entry appended to
    ``calls`` per g callback its products make (``calls`` is emptied after
    the preparation, which reads g).  A declared entrywise Dg (``g_jvp``
    None) stays declared."""
    from ralmkit import lagrangian

    def counted(fn):
        return fn and (lambda X, v: calls.append(1) or fn(X, v))

    Q = dataclasses.replace(P, g_jvp=counted(P.g_jvp), g_vjp=counted(P.g_vjp))
    H = evaluate(Q, rho, X, y).ghess_operator()
    calls.clear()
    return H


def weight_ghess_operator(P, rho, X, y):
    """The generalized Hessian at the convention Jacobian element with its
    envelope term as the weight ``G d^2``, ``d = g_vjp(1)``: the route
    ``Evaluation.ghess_operator`` takes when ``P.g_jvp`` is None."""
    from ralmkit import lagrangian

    ev = evaluate(P, rho, X, y)
    G = rho * (1.0 - P.theta.prox_jacobian(1.0 / rho, ev.p).mask)
    d = P.g_vjp(X.X, np.ones(y.shape))
    return X.manifold.hess_operator(X, ev.egrad, lagrangian._ehess(P, X.X, ev.ytilde), G * d * d)


def euclidean_l1_problem(shape=(1, 1), mu=1.0):
    """min theta(x) over a flat space: f = 0, g = identity."""
    man = Euclidean(*shape)
    return ProblemSpec(
        manifold=man,
        f_value=lambda X: 0.0,
        f_egrad=lambda X: np.zeros_like(X),
        f_ehess=lambda X, xi: np.zeros_like(xi),
        g_value=lambda X: X,
        g_jvp=None,
        g_vjp=lambda X, w: w,
        gy_ehess=lambda X, y, xi: np.zeros_like(xi),
        theta=L1Norm(mu),
    )


def euclidean_quadratic_problem(Q, a, mu=1.0, g_zero=True):
    """min 0.5 (x-a)^T Q (x-a) [+ theta(x)] on a flat space.

    With ``g_zero`` the composite term is switched off (g maps to 0), so
    the problem is a plain smooth quadratic with minimizer ``a``.
    """
    Q = np.asarray(Q, float)
    a = np.asarray(a, float)
    man = Euclidean(*a.shape)

    def g_value(X):
        return np.zeros_like(X) if g_zero else X

    def g_vjp(X, w):
        return np.zeros_like(w) if g_zero else w

    return ProblemSpec(
        manifold=man,
        f_value=lambda X: 0.5 * float((X - a).ravel() @ Q @ (X - a).ravel()),
        f_egrad=lambda X: (Q @ (X - a).ravel()).reshape(a.shape),
        f_ehess=lambda X, xi: (Q @ xi.ravel()).reshape(a.shape),
        g_value=g_value,
        g_jvp=None,  # g is 0 or the identity
        g_vjp=g_vjp,
        gy_ehess=lambda X, y, xi: np.zeros_like(xi),
        theta=L1Norm(mu),
    )


@pytest.fixture(scope="session")
def cm_pair():
    from ralmkit.bench import cm_analytic_pair

    return cm_analytic_pair(0.8)


@pytest.fixture(scope="session")
def rmc_fixture():
    from ralmkit.bench import rmc_toy_fixture

    return rmc_toy_fixture()


def reference_cone_basis(P, X, y):
    """The critical-cone subspace from the full tangent basis: the null space
    of the constraint matrix C = E_c Dg(X) T in tangent coordinates, mapped
    back to ambient arrays.  Slow but independent of
    ``certify.critical_cone_basis``'s two-step construction."""
    import scipy.linalg

    from ralmkit.certify import CONE_TOL, NULLSPACE_TOL

    z = P.g_value(X.X)
    constrained = (np.abs(z) <= CONE_TOL) & (np.abs(y) < P.theta.mu - CONE_TOL)
    basis = X.manifold.tangent_basis(X)
    if not np.any(constrained):
        return basis
    C = np.stack([(P.g_jvp or P.g_vjp)(X.X, v)[constrained] for v in basis]).T
    null = scipy.linalg.null_space(C, rcond=NULLSPACE_TOL)
    T = np.stack([v.ravel() for v in basis])
    return [X.manifold.project(X, (c @ T).reshape(X.manifold.ambient_shape)) for c in null.T]


def reference_genhess_min_eig(P, rho, X, y, enumerate_elements=False):
    """The minimum eigenvalue of the generalized Hessian from its dense form
    in tangent coordinates: one HVP per tangent-basis vector, the projected
    form B = T H T^T and a full eigvalsh, minimised over the same Clarke-
    Jacobian elements as ``certify.genhess_min_eig``.  Slow but independent
    of its Lanczos solve."""
    import scipy.linalg

    from ralmkit import lagrangian
    from ralmkit.convex import ENUM_CAP

    ev = evaluate(P, rho, X, y)
    jac = P.theta.prox_jacobian(1.0 / rho, ev.p)
    if enumerate_elements and jac.boundary_count <= ENUM_CAP:
        jacs = P.theta.extreme_prox_jacobians(1.0 / rho, ev.p)
    else:
        jacs = [jac]
    T = np.stack([v.ravel() for v in X.manifold.tangent_basis(X)])
    min_eig = np.inf
    for jac in jacs:
        H = ambient_operator(X, ev.ghess_operator(jac))
        B = T @ np.stack([H(v.reshape(X.manifold.ambient_shape)).ravel() for v in T]).T
        min_eig = min(min_eig, float(scipy.linalg.eigvalsh(0.5 * (B + B.T))[0]))
    return min_eig


def taylor_remainder_slope(value, grad, hess_vec, X, xi):
    """Log-log slope of the second-order Taylor remainder of ``value`` along
    the retraction curve ``t -> retract(X, t xi)``, with ``grad`` the
    Riemannian gradient and ``hess_vec`` the Hessian-vector product at ``X``.

    A slope of about 3 certifies that the retraction is second order and
    the Hessian model is exact at ``X``.
    """
    f0 = value(X)
    g = np.vdot(grad, xi)
    H = np.vdot(xi, hess_vec(xi))
    ts, rems = [], []
    for t in np.logspace(-2.0, -3.5, 7):
        model = f0 + t * g + 0.5 * t * t * H
        rem = abs(value(retract(X, t * xi)) - model)
        if rem > 1e-14:  # below this the remainder is rounding noise
            ts.append(math.log(t))
            rems.append(math.log(rem))
    if len(ts) < 4:
        return math.inf  # remainder vanished to rounding: better than cubic
    slope, _ = np.polyfit(ts, rems, 1)
    return float(slope)
