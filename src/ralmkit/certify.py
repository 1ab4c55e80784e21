"""Second-order certificates and rate diagnostics.

Given a stationary pair, this module extracts an orthonormal basis of the
affine hull of the critical cone intersected with the tangent space,
certifies positive definiteness of the Lagrangian Hessian on it (the
strong second-order sufficient condition on the manifold), eigen-solves
the generalized augmented Hessian over the full tangent space, and fits
empirical linear rates to residual histories.

A tangent or critical-cone basis is one ``(k, *ambient_shape)`` array.  The
critical cone needs no tangent basis when g is entrywise and few ambient
coordinates are free: its null space is then taken in the manifold's normal
coordinates (``r * r`` numbers per free coordinate on Stiefel).  The
generalized-Hessian eigensolve is matrix-free and runs on tangent coordinates.
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
    ``(k, *ambient_shape)`` array of tangent vectors, :func:`_cone`'s directions.

    For the l1 term the affine hull fixes to zero every constraint-space
    entry where ``g(X)`` vanishes and the multiplier is strictly inside
    its box: the subspace is T_X M intersected with ker E_c Dg(X).  When
    Dg(X) is entrywise (``P.g_jvp`` None), with diagonal ``g_vjp(X, 1)``, and
    at most ``dim T_X M`` ambient unit vectors e_i are free of those entries,
    it is the null space of the normal parts ``e_i - project(X, e_i)`` (the
    columns have norm at most 1), taken from ``Manifold.normal_rows``, which
    has their singular values; otherwise it is the null space of
    C = E_c Dg(X) T in tangent-basis coordinates, its rows scaled to norm
    <= 1 by those of E_c Dg(X); both by :func:`_null_rows`.
    Requires ``y`` to be a subgradient at ``g(X)`` up to ``CONE_TOL``.
    """
    V, direction, _ = _cone(P, X, y)
    rows = np.empty((len(V), *X.manifold.ambient_shape))
    for i, v in enumerate(rows):
        v[...] = direction(i)
    return rows


def _cone(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> tuple:
    """The subspace of :func:`critical_cone_basis` as ``(V, direction, pair)``
    on either route: ``direction(i)`` is its i-th direction d_i, an ambient
    tangent vector, and ``pair`` maps the coordinates of a tangent h to numbers
    whose dot product with ``V[j]`` is <h, d_j>, entries of h's ambient form.
    Free-coordinate route: V's row j holds the coefficients of s_j on the flat
    ambient indices ``free``, d_j = project(s_j), and <h, d_j> = <h, s_j> pairs
    h's free entries with them.  Otherwise V holds the d_j, paired with all:
    orthonormal combinations of an orthonormal tangent basis, tangent as built."""
    man, shape, A = X.manifold, X.manifold.ambient_shape, X.X
    z, diagonal = lagrangian.constraint_value(P, A, y), P.g_jvp is None
    if not P.theta.in_subdifferential(z, y, tol=CONE_TOL):
        raise StationarityError("multiplier is not in the subdifferential at g(X); "
                                "the critical cone is undefined")
    constrained = (np.abs(z) <= CONE_TOL) & (np.abs(y) < P.theta.mu - CONE_TOL)
    if not np.any(constrained):
        rows = man.tangent_basis(X)
    else:
        c = P.g_vjp(A, np.ones(shape)) if diagonal else None
        free = np.flatnonzero(~(constrained & (c != 0))) if diagonal else None
        if diagonal and free.size <= man.dim():
            V = _null_rows(man.normal_rows(X, free).T)

            def direction(i):
                s = np.zeros(shape)
                s.flat[free] = V[i]
                return man.project(X, s)

            return V, direction, lambda h: man.ambient(X, h).ravel()[free]
        basis = man.tangent_basis(X)
        # the norms of the rows of E_c Dg(X); a zero row constrains nothing
        d = np.abs(c[constrained]) if diagonal else np.array([
            np.linalg.norm(P.g_vjp(A, np.eye(1, z.size, i).reshape(z.shape)))
            for i in np.flatnonzero(constrained)])
        jvp = P.g_jvp or P.g_vjp
        C = np.array([jvp(A, v)[constrained] for v in basis]).reshape(len(basis), len(d)).T[d > 0]
        C /= d[d > 0, None]
        rows = (_null_rows(C) @ basis.reshape(len(basis), A.size)).reshape(-1, *shape)
    return rows, rows.__getitem__, lambda h: man.ambient(X, h).ravel()


def _null_rows(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the null space of ``A``: its right singular
    vectors of singular value at most ``NULLSPACE_TOL``."""
    if A.shape[0] > A.shape[1]:  # R has A's singular values and right vectors (Chan, 1982)
        A = np.linalg.qr(A, mode="r")
    _, s, Vt = np.linalg.svd(A)
    return Vt[np.sum(s > NULLSPACE_TOL):]


def _quadratic_form(row, V: np.ndarray) -> np.ndarray:
    """Symmetric part of ``R V^T`` for the ``(k, n)`` array ``V``, where row
    i of R is ``row(i)``, n numbers, stacked whole: one product."""
    B = np.array([row(i) for i in range(len(V))]) @ V.T
    return 0.5 * (B + B.T)


def mssosc_certificate(P: ProblemSpec, X: ManifoldPoint, y: np.ndarray) -> Certificate:
    """Minimum eigenvalue of the Lagrangian Hessian on the critical-cone
    affine hull; positive means the second-order sufficient condition
    holds at ``(X, y)``."""
    V, direction, pair = _cone(P, X, y)
    if not len(V):
        return Certificate("mssosc", math.inf, 0, degenerate=True)
    man, H = X.manifold, lagrangian.lagrangian_hess_operator(P, X, y)
    B = _quadratic_form(lambda i: pair(H(man.coords(X, direction(i)))), V.reshape(len(V), -1))
    w = np.linalg.eigvalsh(B)
    return Certificate("mssosc", float(w[0]), len(B), operator_applications=len(B))


def _lanczos_min(H, project, v0: np.ndarray, m: int) -> Tuple[float, int]:
    """Smallest eigenvalue of the symmetric operator ``H`` on tangent
    coordinates, and the products with ``H`` it took: thick-restart Lanczos
    (Wu & Simon, 2000) from ``v0`` on an ``m``-vector basis.  Each new vector
    is orthogonalized twice against the basis, then re-projected by
    ``project``, so rounding-level normal parts never grow.  A full basis
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

    Matrix-free: Lanczos on tangent coordinates (:func:`_lanczos_min`) from a
    seeded tangent start, with ``min(dim, LANCZOS_VECTORS)`` basis vectors of
    ``r (m + n + r)`` numbers each on Fr(m, n, r), not ``m n``.
    ``operator_applications`` counts every product with H, summed over the
    elements checked.
    """
    # a fixed-rank point by its factors
    if not all(np.isfinite(a).all() for a in (y, *(X.factors or (X.X,)))):
        raise CertifyError("multiplier and point must be finite")
    ev = lagrangian.Subproblem(P, rho, y).at(X)
    base_jac = P.theta.prox_jacobian(1.0 / rho, ev.p)
    b = base_jac.boundary_count
    enumerated = enumerate_elements and b <= ENUM_CAP
    jacs = P.theta.extreme_prox_jacobians(base_jac) if enumerated and b else [base_jac]
    man = X.manifold
    v0 = man.project(X, np.random.default_rng(0).standard_normal(man.ambient_shape))
    v0, dim = man.coords(X, v0), man.dim()
    min_eig, applications = math.inf, 0
    for jac in jacs if dim else []:  # a zero tangent space has no eigenvalue
        w, n = _lanczos_min(ev.ghess_operator(jac),
                            lambda c: man.coords(X, man.project(X, man.ambient(X, c))),
                            v0, min(dim, LANCZOS_VECTORS))
        min_eig, applications = min(min_eig, w), applications + n
    return Certificate(
        "generalized-hessian",
        min_eig,
        dim,
        boundary_count=b,
        elements_checked=2 ** b if enumerated else 1,
        partial=b > 0 and not enumerated,
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
    if not np.all((tail > 0) & (tail < math.inf)):  # written so that a NaN fails
        raise CertifyError("residuals must be positive and finite in the fitted tail")
    x = np.arange(len(tail), dtype=float)
    logr = np.log(tail)
    slope, intercept = np.polyfit(x, logr, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((logr - fitted) ** 2))
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    quality = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return float(math.exp(slope)), float(quality)
