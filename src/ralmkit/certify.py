"""Second-order certificates and rate diagnostics.

Given a stationary pair, this module extracts an orthonormal basis of the
affine hull of the critical cone intersected with the tangent space,
certifies positive definiteness of the Lagrangian Hessian on it (the
strong second-order sufficient condition on the manifold), eigen-solves
the generalized augmented Hessian over the full tangent space, and fits
empirical linear rates to residual histories.

A tangent or critical-cone basis is one ``(k, *ambient_shape)`` array.  The
critical-cone basis needs no tangent basis when g is entrywise and few ambient
coordinates are free.  Only the second-order certificate forms a dense
matrix, on that basis; the generalized-Hessian eigensolve is matrix-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import lagrangian
from .convex import ENUM_CAP
from .geometry import ManifoldPoint
from .lagrangian import ProblemSpec

NULLSPACE_TOL = 1e-10
# A certificate holds when its minimum eigenvalue exceeds CERT_TOL.
CERT_TOL = 1e-9
# Subgradient and activity tolerance of the critical cone.
CONE_TOL = 1e-8
# Lanczos basis size of the generalized-Hessian eigensolve.  ARPACK's
# default of 20 for one eigenvalue restarts often across the operator's two
# clusters (small eigenvalues on the free coordinates, ~rho elsewhere).
LANCZOS_VECTORS = 40


class CertifyError(ValueError):
    pass


class StationarityError(CertifyError):
    """The pair is not complementarity-feasible; the critical cone is
    undefined there."""


@dataclass(frozen=True)
class Certificate:
    kind: str
    min_eig: float
    subspace_dim: int
    boundary_count: int = 0
    elements_checked: int = 1
    partial: bool = False
    degenerate: bool = False
    # Hessian products the certificate made, over every element checked.
    operator_applications: int = 0

    @property
    def verdict(self) -> str:
        return "holds" if self.degenerate or self.min_eig > CERT_TOL else "fails"


def critical_cone_basis(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of aff(critical cone) intersected with T_X M, as a
    ``(k, *ambient_shape)`` array of tangent vectors.

    For the l1 term the affine hull fixes to zero every constraint-space
    entry where ``g(X)`` vanishes and the multiplier is strictly inside
    its box: the subspace is T_X M intersected with ker E_c Dg(X).  When
    Dg(X) is entrywise (``P.g_jvp`` None), with diagonal ``g_vjp(X, 1)``, and
    at most ``dim T_X M`` ambient unit vectors e_i are free of those entries,
    it is the null space of the normal parts
    ``e_i - project(X, e_i)``, from a thin SVD with the absolute threshold
    ``NULLSPACE_TOL`` (the columns have norm at most 1); otherwise it is
    the null space of C = E_c Dg(X) T in tangent-basis coordinates, its rows
    scaled to norm <= 1 by those of E_c Dg(X), with the same threshold.
    Requires ``y`` to be a subgradient at ``g(X)`` up to ``CONE_TOL``.
    """
    man, shape = X.manifold, X.manifold.ambient_shape
    z = P.g_value(X.X)
    diagonal = P.g_jvp is None
    if diagonal and z.shape != shape:
        raise CertifyError(f"g_jvp=None needs g(X) of the ambient shape {shape}, got {z.shape}")
    if not P.theta.in_subdifferential(z, y, tol=CONE_TOL):
        raise StationarityError(
            "multiplier is not in the subdifferential at g(X); the critical cone is undefined"
        )
    mu = P.theta.mu
    constrained = (np.abs(z) <= CONE_TOL) & (np.abs(y) < mu - CONE_TOL)
    if not np.any(constrained):
        return man.tangent_basis(X)
    c = P.g_vjp(X.X, np.ones(shape)) if diagonal else None
    free = np.flatnonzero(~(constrained & (c != 0))) if diagonal else None
    if diagonal and free.size <= man.dim():
        normal = np.zeros((free.size, X.X.size))
        normal[np.arange(free.size), free] = 1.0
        for e in normal:
            e -= man.project(X, e.reshape(shape)).ravel()
        _, s, Vt = np.linalg.svd(normal.T, full_matrices=False)
        K = np.zeros((X.X.size, int(np.sum(s <= NULLSPACE_TOL))))
        K[free] = Vt[s <= NULLSPACE_TOL].T
        rows = K.T
    else:
        import scipy.linalg  # loaded on first use: it doubles the time of `import ralmkit`
        basis = man.tangent_basis(X)
        # the norms of the rows of E_c Dg(X); a zero row constrains nothing
        d = np.abs(c[constrained]) if diagonal else np.array([
            np.linalg.norm(P.g_vjp(X.X, np.eye(1, z.size, i).reshape(z.shape)))
            for i in np.flatnonzero(constrained)])
        jvp = P.g_jvp or P.g_vjp
        C = np.stack([jvp(X.X, v)[constrained] for v in basis]).T[d > 0] / d[d > 0, None]
        _, s, Vt = scipy.linalg.svd(C, full_matrices=C.shape[0] < C.shape[1])  # thin when tall
        T = basis.reshape(len(basis), -1)  # (tangent_dim, ambient_size), a view
        rows = (coef @ T for coef in Vt[np.sum(s > NULLSPACE_TOL):])
    return np.reshape([man.project(X, v.reshape(shape)) for v in rows], (-1, *shape))


def _quadratic_form(apply_op, basis) -> np.ndarray:
    """Symmetric part of ``V H V^T``; V's rows are the flattened ``basis`` vectors."""
    k = len(basis)
    B = np.reshape(basis, (k, -1)) @ np.reshape([apply_op(v) for v in basis], (k, -1)).T
    return 0.5 * (B + B.T)


def mssosc_certificate(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> Certificate:
    """Minimum eigenvalue of the Lagrangian Hessian on the critical-cone
    affine hull; positive means the second-order sufficient condition
    holds at ``(X, y)``."""
    import scipy.linalg
    basis = critical_cone_basis(P, X, y)
    if not len(basis):
        return Certificate("mssosc", math.inf, 0, degenerate=True)
    # np.vdot of coordinates is the metric, so the form is the same in them
    B = _quadratic_form(lagrangian.lagrangian_hess_operator(P, X, y),
                        [X.manifold.coords(X, v) for v in basis])
    w = scipy.linalg.eigvalsh(B)
    return Certificate("mssosc", float(w[0]), len(basis), operator_applications=len(basis))


def genhess_min_eig(
    P: ProblemSpec,
    rho: float,
    X: ManifoldPoint,
    y: np.ndarray,
    enumerate_elements: bool = False,
) -> Certificate:
    """Minimum eigenvalue of the generalized augmented Hessian on T_X M.

    With ``enumerate_elements`` and at most ``ENUM_CAP`` boundary entries
    of the prox, the minimum is taken over all extreme Clarke-Jacobian
    elements; otherwise only the convention element is used and the
    certificate is marked partial when boundaries were present.

    On a zero-dimensional tangent space the certificate is degenerate, as
    :func:`mssosc_certificate`'s on an empty critical cone.

    Matrix-free: Lanczos for the smallest eigenvalue of ``v -> H(Pv) +
    sigma (v - Pv)``, P the tangent projector, from a seeded tangent v0 whose
    Rayleigh quotient q lies at or above H's tangent minimum, so the normal
    eigenvalue sigma = q + max(1, |q|) lies above it whatever H's inertia.
    The Lanczos basis holds ``min(size, LANCZOS_VECTORS)`` vectors.
    ``operator_applications`` counts every product with H: Lanczos's and
    v0's, summed over the elements checked.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh  # loaded on first use
    if not (math.isfinite(rho) and rho > 0):
        raise CertifyError(f"penalty must be positive and finite, got {rho}")
    ev = lagrangian.Subproblem(P, rho, y).at(X)
    base_jac = P.theta.prox_jacobian(1.0 / rho, ev.p)
    b = base_jac.boundary_count
    partial = False
    if enumerate_elements and b <= ENUM_CAP:
        jacs = P.theta.extreme_prox_jacobians(1.0 / rho, ev.p)
    else:
        jacs = [base_jac]
        partial = b > 0
    man = X.manifold
    shape, project, size = man.ambient_shape, man.project, X.X.size
    v0 = project(X, np.random.default_rng(0).standard_normal(shape))
    dim = man.dim()
    min_eig, applications = math.inf, 0
    for jac in jacs if dim else []:  # a zero tangent space has no eigenvalue
        Hc = ev.ghess_operator(jac)

        def H(t):  # the ambient form of the operator on coordinates
            nonlocal applications
            applications += 1
            return man.ambient(X, Hc(man.coords(X, t)))

        q = float(np.vdot(v0, H(v0)) / np.vdot(v0, v0))
        sigma = q + max(1.0, abs(q))

        def shifted(v):
            t = project(X, v.reshape(shape))
            return (H(t) + sigma * (v.reshape(shape) - t)).ravel()

        try:  # eigsh needs k < size; a 1x1 form is its Rayleigh quotient
            w = [q] if size == 1 else eigsh(LinearOperator((size, size), shifted, dtype=float), k=1,
                                             which="SA", v0=v0.ravel(),
                                             ncv=min(size, LANCZOS_VECTORS),
                                             return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            raise CertifyError(f"Lanczos found no eigenvalue: {exc}") from exc
        min_eig = min(min_eig, float(w[0]))
    return Certificate(
        "generalized-hessian",
        min_eig,
        dim,
        boundary_count=b,
        elements_checked=len(jacs),
        partial=partial,
        degenerate=dim == 0,
        operator_applications=applications,
    )


def fit_linear_rate(residuals: Sequence[float], tail_fraction: float = 0.5) -> Tuple[float, float]:
    """Least-squares geometric rate of a positive residual sequence.

    Fits ``log r_k`` against ``k`` over the trailing ``tail_fraction`` of
    the sequence and returns ``(exp(slope), R^2)``.
    """
    r = np.asarray(residuals, dtype=float)
    if not 0 < tail_fraction <= 1:
        raise CertifyError("tail fraction must lie in (0, 1]")
    n_tail = max(int(math.ceil(len(r) * tail_fraction)), 5)
    tail = r[-n_tail:]
    if len(tail) < 5:
        raise CertifyError("need at least 5 tail residuals for a rate fit")
    if np.any(tail <= 0):
        raise CertifyError("residuals must be positive in the fitted tail")
    x = np.arange(len(tail), dtype=float)
    logr = np.log(tail)
    slope, intercept = np.polyfit(x, logr, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((logr - fitted) ** 2))
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    quality = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return float(math.exp(slope)), float(quality)
