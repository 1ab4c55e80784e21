"""Geometry kernel for embedded matrix submanifolds.

Supports three geometries with the metric inherited from the ambient
Frobenius inner product:

* ``Euclidean(*shape)`` -- a plain matrix space,
* ``Stiefel(n, r)``    -- n x r matrices with orthonormal columns,
* ``FixedRank(m, n, r)`` -- m x n matrices of exact rank r, stored in
  factored SVD form ``(U, s, V)`` with ``s`` positive and nonincreasing.

Points are immutable values.  A tangent vector at a point has two forms,
both plain ndarrays: its *ambient* form, of the manifold's ambient shape
(what ``project`` returns), and its *coordinates*, which the retraction and
the Hessian operator take and return.  ``Manifold.coords`` and
``Manifold.ambient`` are the only maps between them; the Riemannian metric is
``np.vdot`` in either form.  On Euclidean space and Stiefel the two forms
are the same array.  On the fixed-rank manifold the coordinates are the
packed factors ``[M; Up; Vp]``, an ``(r + m + n, r)`` array with
``xi = U M V^T + Up V^T + U Vp^T``, ``U^T Up = 0`` and ``V^T Vp = 0``
(Vandereycken, SIAM J. Optim. 23(2), 2013): the three blocks are orthogonal,
so ``np.vdot`` of packed arrays is the Frobenius inner product, and a Newton
system is solved on ``r (m + n + r)`` numbers instead of ``m n``.  A tangent
basis is one ``(dim, *ambient_shape)`` array of ambient tangent vectors.

Both retractions are second order: the polar retraction on Stiefel and the
metric-projection (truncated SVD) retraction on the fixed-rank manifold, which
runs through a 2r x 2r core in O(mnr + (m + n) r^2), never an m x n SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Library-wide numerical constants: the orthonormality tolerance of points
# and factors, and the floor of a fixed-rank point's smallest singular value.
ORTHO_TOL = 1e-12
RANK_TOL = 1e-12


class GeometryError(ValueError):
    """Invalid geometric data (shape mismatch, invariant violation)."""


class RankDropError(GeometryError):
    """The point to retract has numerical rank below r.

    Signals that a step left the fixed-rank chart; the caller should
    shrink the step and retry.
    """


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ManifoldPoint:
    """A point on a manifold in its canonical representation.

    ``X`` is the ambient matrix.  For fixed-rank points ``factors`` holds
    the SVD triple ``(U, s, V)`` and ``X`` is the reconstruction
    ``U @ diag(s) @ V.T``.
    """

    manifold: "Manifold"
    X: np.ndarray
    factors: Optional[tuple] = None


class Manifold:
    """Base class; concrete geometries implement the projection, the
    retraction and the prepared Euclidean-to-Riemannian Hessian conversion
    (``hess_operator``).

    ``project`` maps ambient arrays to ambient tangent vectors; ``retract``
    and ``hess_operator`` work on tangent coordinates (see ``coords``)."""

    name = "manifold"
    ambient_shape: tuple

    def dim(self) -> int:
        raise NotImplementedError

    def check_point(self, point: ManifoldPoint) -> None:
        raise NotImplementedError

    def project(self, point: ManifoldPoint, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def coords(self, point: ManifoldPoint, xi: np.ndarray) -> np.ndarray:
        """Coordinates of the ambient tangent vector ``xi``.  Here, where the
        two forms coincide, ``xi`` itself; a geometry with other coordinates
        returns those of ``project(point, xi)``."""
        return xi

    def ambient(self, point: ManifoldPoint, c: np.ndarray) -> np.ndarray:
        """The ambient tangent vector of the coordinates ``c``; here ``c`` itself."""
        return c

    def retract(self, point: ManifoldPoint, c: np.ndarray) -> ManifoldPoint:
        """Retraction of the tangent vector with coordinates ``c``."""
        raise NotImplementedError

    def hess_operator(self, point: ManifoldPoint, egrad: np.ndarray,
                      ehess: Optional[Callable] = None,
                      weight: Optional[np.ndarray] = None) -> Callable:
        """The Riemannian Hessian at ``point`` of a function with Euclidean
        gradient ``egrad`` and Euclidean Hessian-vector product
        ``ehess(xi) + weight * xi``, prepared once for many directions:
        returns ``c -> coordinates of Hess xi``, a fresh array, for tangent
        coordinates ``c``.  ``ehess`` takes the ambient ``xi``, keeps no
        reference to it and returns its term; ``weight`` is an array of the
        ambient shape.  ``None`` stands for a zero term, which is skipped.
        The two terms differ only in the order of floating-point operations:
        Stiefel projects them apart, in one stacked call."""
        raise NotImplementedError

    def tangent_basis(self, point: ManifoldPoint) -> np.ndarray:
        """Orthonormal basis of T_X M, a ``(dim, *ambient_shape)`` array."""
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        raise NotImplementedError

    def _check_ambient(self, Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        if Y.shape != self.ambient_shape:
            raise GeometryError(
                f"expected ambient shape {self.ambient_shape}, got {Y.shape}"
            )
        return Y


class Euclidean(Manifold):
    """A flat matrix space; every operation is the identity it should be."""

    name = "euclidean"

    def __init__(self, *shape: int):
        self.ambient_shape = tuple(int(s) for s in shape)

    def dim(self) -> int:
        return int(np.prod(self.ambient_shape))

    def point(self, X: np.ndarray) -> ManifoldPoint:
        return ManifoldPoint(self, _readonly(self._check_ambient(X)))

    def check_point(self, point: ManifoldPoint) -> None:
        self._check_ambient(point.X)

    def project(self, point: ManifoldPoint, Y: np.ndarray) -> np.ndarray:
        return self._check_ambient(Y)

    def retract(self, point: ManifoldPoint, xi: np.ndarray) -> ManifoldPoint:
        return self.point(point.X + xi)

    def hess_operator(self, point, egrad, ehess=None, weight=None) -> Callable:
        def apply(xi):
            e = np.zeros(self.ambient_shape) if ehess is None else self._check_ambient(ehess(xi))
            return e.copy() if weight is None else e + weight * xi

        return apply

    def tangent_basis(self, point: ManifoldPoint) -> np.ndarray:
        return np.eye(self.dim()).reshape(-1, *self.ambient_shape)

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        return self.point(rng.standard_normal(self.ambient_shape))


def _sym(A: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(A + A^T) / 2 of a matrix or of each matrix of a stack."""
    out = np.add(A, A.swapaxes(-1, -2), out=out)
    out *= 0.5
    return out


def _outer(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Every ``L[:, a] R[:, b]^T`` (a outer, b inner) as one ``(k, len(L), len(R))`` stack."""
    return (L.T[:, None, :, None] * R.T[None, :, None, :]).reshape(-1, len(L), len(R))


class Stiefel(Manifold):
    """St(n, r): n x r matrices with orthonormal columns."""

    name = "stiefel"

    def __init__(self, n: int, r: int):
        if not 1 <= r <= n:
            raise GeometryError(f"need 1 <= r <= n, got n={n}, r={r}")
        self.n, self.r = int(n), int(r)
        self.ambient_shape = (self.n, self.r)

    def dim(self) -> int:
        return self.n * self.r - self.r * (self.r + 1) // 2

    def point(self, X: np.ndarray) -> ManifoldPoint:
        X = self._check_ambient(X)
        pt = ManifoldPoint(self, _readonly(X))
        self.check_point(pt)
        return pt

    def check_point(self, point: ManifoldPoint) -> None:
        G = point.X.T @ point.X - np.eye(self.r)
        err = np.max(np.abs(G))
        if not err <= ORTHO_TOL:  # written so that a NaN fails it
            raise GeometryError(f"columns not orthonormal: |X^T X - I|_inf = {err:.3e}")

    def project(self, point: ManifoldPoint, Y: np.ndarray) -> np.ndarray:
        Y = self._check_ambient(Y)
        X = point.X
        return Y - X @ _sym(X.T @ Y)

    def retract(self, point: ManifoldPoint, xi: np.ndarray) -> ManifoldPoint:
        # Polar factor of X + xi, computed by SVD for robustness.
        A = point.X + xi
        W, _, Zt = np.linalg.svd(A, full_matrices=False)
        return ManifoldPoint(self, _readonly(W @ Zt))

    def hess_operator(self, point, egrad, ehess=None, weight=None) -> Callable:
        # Both terms share one stacked projection, slice k of Z taking exactly
        # project's operations on term k; only the returned array is fresh.
        X, Xt = point.X, point.X.T
        S = _sym(Xt @ egrad)
        Z, W = np.empty((2, self.n, self.r)), np.empty((2, self.n, self.r))
        A, B = np.empty((2, self.r, self.r)), np.empty((2, self.r, self.r))
        Z0, Z1 = Z
        z, a, b, w = (Z, A, B, W) if weight is not None else (Z[:1], A[:1], B[:1], W[:1])

        def apply(xi):
            np.matmul(xi, S, out=Z0)
            # 0.0 - Z0 has the bits of a zero array minus Z0 (signed zeros too)
            e = 0.0 if ehess is None else self._check_ambient(ehess(xi))
            np.subtract(e, Z0, out=Z0)
            if weight is not None:
                np.multiply(weight, xi, out=Z1)
            np.matmul(Xt, z, out=a)
            np.matmul(X, _sym(a, out=b), out=w)
            np.subtract(z, w, out=z)
            return Z0 + Z1 if weight is not None else Z0.copy()

        return apply

    def tangent_basis(self, point: ManifoldPoint) -> np.ndarray:
        import scipy.linalg  # loaded on first use: it doubles the time of `import ralmkit`
        # xi = X A + X_perp B with A skew; both families are orthonormal in
        # the Frobenius metric because X and X_perp have orthonormal columns.
        X, I = point.X, np.eye(self.r)
        # X A for A = (e_i e_j^T - e_j e_i^T) / sqrt(2), i < j, from E[a, b] = X[:, a] e_b^T
        E = _outer(X, I).reshape(self.r, self.r, self.n, self.r)
        i, j = np.triu_indices(self.r, 1)
        skew = (E[i, j] - E[j, i]) * (1.0 / np.sqrt(2.0))
        return np.concatenate((skew, _outer(scipy.linalg.null_space(X.T), I)))

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        Q, _ = np.linalg.qr(rng.standard_normal((self.n, self.r)))
        return self.point(Q)


class FixedRank(Manifold):
    """Fr(m, n, r): m x n matrices of exact rank r in factored SVD form."""

    name = "fixed-rank"

    def __init__(self, m: int, n: int, r: int):
        if not 1 <= r <= min(m, n):
            raise GeometryError(f"need 1 <= r <= min(m, n), got {m}x{n}, r={r}")
        self.m, self.n, self.r = int(m), int(n), int(r)
        self.ambient_shape = (self.m, self.n)

    def dim(self) -> int:
        return self.r * (self.m + self.n - self.r)

    def point_from_factors(self, U: np.ndarray, s: np.ndarray, V: np.ndarray) -> ManifoldPoint:
        U, V = np.asarray(U, float), np.asarray(V, float)
        s = np.asarray(s, float).ravel()
        if U.shape != (self.m, self.r) or V.shape != (self.n, self.r) or s.shape != (self.r,):
            raise GeometryError("factor shapes inconsistent with manifold")
        for F, lbl in ((U, "U"), (V, "V")):
            err = np.max(np.abs(F.T @ F - np.eye(self.r)))
            if not err <= ORTHO_TOL:  # these tests are written so that a NaN fails
                raise GeometryError(f"{lbl} not orthonormal to tolerance ({err:.3e})")
        if not (np.all((s > 0) & (s < np.inf)) and np.all(np.diff(s) <= 0)):
            raise GeometryError("singular values must be positive, finite and nonincreasing")
        X = (U * s) @ V.T
        return ManifoldPoint(self, _readonly(X), factors=(_readonly(U), _readonly(s), _readonly(V)))

    def point_from_ambient(self, Z: np.ndarray) -> ManifoldPoint:
        Z = self._check_ambient(Z)
        return self.point_from_factors(*self._truncate(*np.linalg.svd(Z, full_matrices=False)))

    def _truncate(self, W, s, Vt) -> tuple:
        """Factors ``(U, s, V)`` of the rank-r truncation of the SVD ``W diag(s) Vt``."""
        if s[self.r - 1] <= RANK_TOL:
            raise RankDropError(
                f"sigma_{self.r} = {s[self.r - 1]:.3e} <= {RANK_TOL:.1e}: rank below r"
            )
        return W[:, : self.r], s[: self.r], Vt[: self.r].T

    def check_point(self, point: ManifoldPoint) -> None:
        if point.factors is None:
            raise GeometryError("fixed-rank point must carry (U, s, V) factors")
        U, s, V = point.factors
        self.point_from_factors(U, s, V)

    def _split(self, c: np.ndarray) -> tuple:
        """Views ``(M, Up, Vp)`` of packed coordinates."""
        r, m = self.r, self.m
        return c[:r], c[r:r + m], c[r + m:]

    def coords(self, point: ManifoldPoint, xi: np.ndarray) -> np.ndarray:
        """Packed factors ``[M; Up; Vp]`` of ``project(point, xi)``."""
        U, _, V = point.factors
        xi = self._check_ambient(xi)
        xiV, xitU = xi @ V, xi.T @ U
        c = np.empty((self.r + self.m + self.n, self.r))
        M, Up, Vp = self._split(c)
        np.matmul(U.T, xiV, out=M)
        np.subtract(xiV, U @ M, out=Up)
        np.subtract(xitU, V @ M.T, out=Vp)
        return c

    def ambient(self, point: ManifoldPoint, c: np.ndarray) -> np.ndarray:
        """``(U M + Up) V^T + U Vp^T``, as one product of inner dimension 2r."""
        U, _, V = point.factors
        M, Up, Vp = self._split(c)
        return np.concatenate((U @ M + Up, U), axis=1) @ np.concatenate((V, Vp), axis=1).T

    def project(self, point: ManifoldPoint, Y: np.ndarray) -> np.ndarray:
        return self.ambient(point, self.coords(point, Y))

    def retract(self, point: ManifoldPoint, c: np.ndarray) -> ManifoldPoint:
        # Rank-r truncated SVD of X + xi = [U Up] C [V Vp]^T, C = [[S + M, I], [I, 0]],
        # from QR of both m x 2r / n x 2r blocks (not of Up alone, which loses
        # orthogonality to U when tiny) and an SVD of the 2r x 2r core Ru C Rv^T:
        # O((m + n) r^2) plus O(mnr) for the new point's X, against
        # O(mn min(m, n)) for a dense SVD.
        U, s, V = point.factors
        M, Up, Vp = self._split(c)
        r = self.r
        C = np.zeros((2 * r, 2 * r))
        np.add(np.diag(s), M, out=C[:r, :r])
        np.fill_diagonal(C[:r, r:], 1.0)
        np.fill_diagonal(C[r:, :r], 1.0)
        Qu, Ru = np.linalg.qr(np.hstack([U, Up]))
        Qv, Rv = np.linalg.qr(np.hstack([V, Vp]))
        core = Ru @ C @ Rv.T
        Uc, sc, Vc = self._truncate(*np.linalg.svd(core))
        return self.point_from_factors(Qu @ Uc, sc, Qv @ Vc)

    def hess_operator(self, point, egrad, ehess=None, weight=None) -> Callable:
        # The projected Euclidean terms plus the sigma-weighted curvature
        # terms N (xi^T U) / s and N^T (xi V) / s, which only see the normal
        # component N of the gradient.  N V = 0 and U^T N = 0, so they read
        # N Vp / s and N^T Up / s; ambient xi is formed only for the Euclidean
        # terms, and their sum is projected once.
        U, s, V = point.factors
        if s[-1] <= RANK_TOL:
            raise GeometryError("singular values below tolerance: curvature term ill-conditioned")
        egrad = self._check_ambient(egrad)
        # ambient(c) = [U M + Up, U] @ [V, Vp]^T, with both factors and xi kept
        # across products (xi's array is N's scratch here); the weight term
        # goes into W, which is xi itself unless ehess reads xi
        r, L, R = self.r, np.concatenate((U, U), axis=1), np.concatenate((V, V), axis=1)
        xi = np.matmul(U, U.T @ egrad)
        W = xi if ehess is None else np.empty(self.ambient_shape)
        N = np.subtract(egrad, xi)
        N -= np.matmul(N @ V, V.T, out=xi)  # N = P_U^perp egrad P_V^perp

        def apply(c):
            M, Up, Vp = self._split(c)
            if ehess is None and weight is None:
                out = np.zeros(c.shape)
            else:
                np.add(U @ M, Up, out=L[:, :r])
                R[:, r:] = Vp
                np.matmul(L, R.T, out=xi)
                if weight is None:
                    Y = ehess(xi)
                else:
                    np.multiply(weight, xi, out=W)
                    Y = W if ehess is None else np.add(self._check_ambient(ehess(xi)), W, out=W)
                out = self.coords(point, Y)
            _, out_Up, out_Vp = self._split(out)
            out_Up += (N @ Vp) / s
            out_Vp += (N.T @ Up) / s
            return out

        return apply

    def tangent_basis(self, point: ManifoldPoint) -> np.ndarray:
        import scipy.linalg
        U, _, V = point.factors
        Upx, Vpx = scipy.linalg.null_space(U.T), scipy.linalg.null_space(V.T)
        # U M V^T, Up V^T and U Vp^T for unit M, Upx^T Up or Vpx^T Vp, in packed order
        return np.concatenate((_outer(U, V), _outer(Upx, V), _outer(Vpx, U).swapaxes(1, 2)))

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        U, _ = np.linalg.qr(rng.standard_normal((self.m, self.r)))
        V, _ = np.linalg.qr(rng.standard_normal((self.n, self.r)))
        s = np.sort(rng.uniform(0.5, 2.0, self.r))[::-1]
        return self.point_from_factors(U, s, V)


# ---------------------------------------------------------------------------
# Module-level entries.

def retract(point: ManifoldPoint, xi: np.ndarray) -> ManifoldPoint:
    """Second-order retraction of the ambient tangent vector ``xi`` at
    ``point``: the manifold's retraction of ``coords(point, xi)``.

    ``xi`` must have the ambient shape; anything else raises
    :class:`GeometryError` rather than broadcasting against the point.  A
    non-tangent ``xi`` loses its normal component on the fixed-rank manifold.
    """
    man = point.manifold
    return man.retract(point, man.coords(point, man._check_ambient(xi)))


def random_tangent(point: ManifoldPoint, seed: int) -> np.ndarray:
    """Unit-norm tangent vector at ``point``, deterministic per seed."""
    G = np.random.default_rng(seed).standard_normal(point.manifold.ambient_shape)
    xi = point.manifold.project(point, G)
    nrm = float(np.linalg.norm(xi))
    # A projected Gaussian vanishes only on a zero-dimensional tangent space.
    if nrm <= 1e-12:
        raise GeometryError("no nonzero tangent vector: the tangent space is zero-dimensional")
    return (1.0 / nrm) * xi
