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
# Lanczos of the generalized-Hessian eigensolve: the basis size (20 vectors
# restart often across the operator's two clusters, small eigenvalues on the
# free coordinates and ~rho elsewhere), the Ritz residual tolerance relative to
# max(1, |eigenvalue|), and the cap on operator applications.
LANCZOS_VECTORS = 40
LANCZOS_TOL = 1e-12
LANCZOS_MAX_APPLICATIONS = 100_000


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
    ``e_i - project(X, e_i)`` (the columns have norm at most 1); otherwise it
    is the null space of C = E_c Dg(X) T in tangent-basis coordinates, its
    rows scaled to norm <= 1 by those of E_c Dg(X); both by :func:`_null_rows`.
    Requires ``y`` to be a subgradient at ``g(X)`` up to ``CONE_TOL``.
    """
    man, shape, A = X.manifold, X.manifold.ambient_shape, X.X
    z = P.g_value(A)
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
    c = P.g_vjp(A, np.ones(shape)) if diagonal else None
    free = np.flatnonzero(~(constrained & (c != 0))) if diagonal else None
    if diagonal and free.size <= man.dim():
        normal = np.zeros((free.size, A.size))
        normal[np.arange(free.size), free] = 1.0
        for e in normal:
            e -= man.project(X, e.reshape(shape)).ravel()
        null = _null_rows(normal.T)
        del normal  # before the directions take its place
        rows = np.zeros((len(null), *shape))
        rows.reshape(len(null), A.size)[:, free] = null
    else:
        basis = man.tangent_basis(X)
        # the norms of the rows of E_c Dg(X); a zero row constrains nothing
        d = np.abs(c[constrained]) if diagonal else np.array([
            np.linalg.norm(P.g_vjp(A, np.eye(1, z.size, i).reshape(z.shape)))
            for i in np.flatnonzero(constrained)])
        jvp = P.g_jvp or P.g_vjp
        C = np.stack([jvp(A, v)[constrained] for v in basis]).T[d > 0] / d[d > 0, None]
        rows = (_null_rows(C) @ basis.reshape(len(basis), -1)).reshape(-1, *shape)
    for v in rows:
        v[...] = man.project(X, v)
    return rows


def _null_rows(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the null space of ``A``: its right singular
    vectors of singular value at most ``NULLSPACE_TOL``."""
    if A.shape[0] > A.shape[1]:  # R has A's singular values and right vectors (Chan, 1982)
        A = np.linalg.qr(A, mode="r")
    _, s, Vt = np.linalg.svd(A)
    return Vt[np.sum(s > NULLSPACE_TOL):]


def _quadratic_form(apply_op, coords) -> np.ndarray:
    """Symmetric part of ``V H V^T``; V's rows are the flattened ``coords``."""
    V = np.reshape(coords, (len(coords), -1))
    HV = np.empty_like(V)
    for c, h in zip(coords, HV):
        h[:] = apply_op(c).ravel()
    B = V @ HV.T
    return 0.5 * (B + B.T)


def mssosc_certificate(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> Certificate:
    """Minimum eigenvalue of the Lagrangian Hessian on the critical-cone
    affine hull; positive means the second-order sufficient condition
    holds at ``(X, y)``."""
    basis = critical_cone_basis(P, X, y)
    if not len(basis):
        return Certificate("mssosc", math.inf, 0, degenerate=True)
    # np.vdot of coordinates is the metric, so the form is the same in them
    coords = np.stack([X.manifold.coords(X, v) for v in basis])
    del basis  # before the Hessian products take its place
    B = _quadratic_form(lagrangian.lagrangian_hess_operator(P, X, y), coords)
    w = np.linalg.eigvalsh(B)
    return Certificate("mssosc", float(w[0]), len(B), operator_applications=len(B))


def _lanczos_min(H, project, v0: np.ndarray, m: int) -> Tuple[float, int]:
    """Smallest eigenvalue of the symmetric operator ``H`` on the tangent
    space, and the products with ``H`` it took: thick-restart Lanczos (Wu &
    Simon, 2000) from the tangent ``v0`` on an ``m``-vector basis.  Each new
    vector is orthogonalized twice against the basis, then projected onto the
    tangent space, so rounding-level normal parts never grow.  A full basis
    restarts from its ``m // 2`` smallest Ritz vectors and the residual."""
    V, T = np.empty((m + 1, v0.size)), np.zeros((m, m))
    V[0] = v0.ravel() / np.linalg.norm(v0)
    k = applications = 0
    while True:
        for j in range(k, m):
            if applications == LANCZOS_MAX_APPLICATIONS:
                raise CertifyError(f"Lanczos found no eigenvalue in {applications} "
                                   "operator applications")
            w = H(V[j].reshape(v0.shape)).ravel()
            applications += 1
            scale, c1 = np.linalg.norm(w), V[:j + 1] @ w
            w -= c1 @ V[:j + 1]
            c2 = V[:j + 1] @ w
            w -= c2 @ V[:j + 1]
            T[:j + 1, j] = T[j, :j + 1] = c1 + c2  # column j of V^T H V
            w = project(w.reshape(v0.shape)).ravel()
            beta = np.linalg.norm(w)
            if beta <= 1e-12 * scale:  # an invariant Krylov space: T's spectrum is exact
                return float(np.linalg.eigvalsh(T[:j + 1, :j + 1])[0]), applications
            V[j + 1] = w / beta
        theta, S = np.linalg.eigh(T)
        if beta * abs(S[-1, 0]) <= LANCZOS_TOL * max(1.0, abs(theta[0])):
            return float(theta[0]), applications
        k = m // 2  # the next sweep overwrites every other entry of T
        V[:k], V[k], T[:k, :k] = S[:, :k].T @ V[:m], V[m], np.diag(theta[:k])


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

    Matrix-free: Lanczos on the tangent space itself (:func:`_lanczos_min`)
    from a seeded tangent start, with ``min(dim, LANCZOS_VECTORS)`` basis
    vectors.  ``operator_applications`` counts every product with H, summed
    over the elements checked.
    """
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
    v0 = man.project(X, np.random.default_rng(0).standard_normal(man.ambient_shape))
    dim = man.dim()
    min_eig, applications = math.inf, 0
    for jac in jacs if dim else []:  # a zero tangent space has no eigenvalue
        Hc = ev.ghess_operator(jac)
        w, n = _lanczos_min(lambda t: man.ambient(X, Hc(man.coords(X, t))),
                            lambda v: man.project(X, v), v0, min(dim, LANCZOS_VECTORS))
        min_eig, applications = min(min_eig, w), applications + n
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
