import numpy as np
import pytest

from conftest import taylor_remainder_slope
from ralmkit import bench, geometry, oracles
from ralmkit.geometry import (
    Euclidean,
    FixedRank,
    GeometryError,
    ManifoldPoint,
    RankDropError,
    Stiefel,
    random_tangent,
    retract,
)

MANIFOLDS = [Euclidean(3, 4), Stiefel(5, 2), Stiefel(4, 4), FixedRank(5, 4, 2)]


def curve_basis(X, n_curves=60, h=1e-6, seed=123):
    """Independent tangent-space oracle: differentiate manifold curves.

    Draws random ambient perturbations, maps them through the retraction
    (a curve on the manifold) and differentiates numerically; the span of
    the derivatives is the tangent space.
    """
    rng = np.random.default_rng(seed)
    man = X.manifold
    rows = []
    for _ in range(n_curves):
        Z = rng.standard_normal(man.ambient_shape)
        xi = man.project(X, Z)  # direction for the curve
        up = retract(X, h * xi).X
        dn = retract(X, (-h) * xi).X
        rows.append(((up - dn) / (2 * h)).ravel())
    A = np.stack(rows)
    # Orthonormal basis of the row span
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    return Vt[s > 1e-8 * s[0]]


def project_with_basis(B, Y):
    y = Y.ravel()
    return (B.T @ (B @ y)).reshape(Y.shape)


class TestTangentProject:
    def test_stiefel_closed_form(self):
        man = Stiefel(2, 1)
        X = man.point(np.array([[1.0], [0.0]]))
        out = man.project(X, np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out, [[0.0], [4.0]], atol=1e-14)

    def test_fixed_rank_against_curve_oracle(self):
        man = FixedRank(2, 2, 1)
        e1 = np.array([[1.0], [0.0]])
        X = man.point_from_factors(e1, np.array([1.0]), e1)
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = man.project(X, Y)
        np.testing.assert_allclose(out, [[1.0, 2.0], [3.0, 0.0]], atol=1e-12)
        B = curve_basis(X)
        np.testing.assert_allclose(out, project_with_basis(B, Y), atol=1e-6)

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_idempotent_and_self_adjoint(self, man):
        rng = np.random.default_rng(7)
        for _ in range(100):
            X = man.random_point(rng)
            Y = rng.standard_normal(man.ambient_shape)
            Z = rng.standard_normal(man.ambient_shape)
            PY = man.project(X, Y)
            PPY = man.project(X, PY)
            assert np.max(np.abs(PPY - PY)) <= 1e-10
            PZ = man.project(X, Z)
            lhs = np.vdot(PY, Z)
            rhs = np.vdot(Y, PZ)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_matches_curve_oracle(self, man):
        rng = np.random.default_rng(3)
        X = man.random_point(rng)
        B = curve_basis(X)
        assert B.shape[0] == man.dim()
        Y = rng.standard_normal(man.ambient_shape)
        np.testing.assert_allclose(
            man.project(X, Y), project_with_basis(B, Y), atol=1e-6
        )

    def test_shape_mismatch(self):
        man = Stiefel(4, 2)
        X = man.random_point(np.random.default_rng(0))
        with pytest.raises(GeometryError):
            man.project(X, np.zeros((3, 3)))

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_tangent_basis_orthonormal(self, man):
        X = man.random_point(np.random.default_rng(13))
        basis = man.tangent_basis(X)
        assert isinstance(basis, np.ndarray) and basis.shape == (man.dim(), *man.ambient_shape)
        B = np.stack([v.ravel() for v in basis])
        np.testing.assert_allclose(B @ B.T, np.eye(man.dim()), rtol=0, atol=1e-12)
        for v in basis:
            np.testing.assert_allclose(man.project(X, v), v, rtol=0, atol=1e-12)

    def test_stiefel_basis_matches_outer_product_loop(self):
        # the X_perp family is built by one broadcast product; it must equal,
        # bit for bit and in order, the np.outer loop it replaced, on the
        # trailing left singular vectors of X
        man = Stiefel(7, 3)
        X = man.random_point(np.random.default_rng(2))
        basis = man.tangent_basis(X)
        Xp = np.linalg.svd(X.X, full_matrices=True)[0][:, 3:]
        loop = [np.outer(Xp[:, a], np.eye(3)[b]) for a in range(4) for b in range(3)]
        assert len(basis) == 3 + len(loop)
        assert all(np.array_equal(v, w) for v, w in zip(basis[3:], loop))
        # the skew family X A, A = (e_i e_j^T - e_j e_i^T) / sqrt(2) for i < j, likewise
        skew = []
        for i in range(3):
            for j in range(i + 1, 3):
                A = np.zeros((3, 3))
                A[i, j], A[j, i] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
                skew.append(X.X @ A)
        assert np.array_equal(basis[:3], np.stack(skew))

    def test_fixed_rank_basis_matches_packed_unit_loop(self):
        # each basis vector is ambient() of one packed unit direction: a unit
        # entry of M, or Up = Upx[:, a] e_j^T, or Vp = Vpx[:, a] e_j^T, in order,
        # Upx and Vpx the trailing left singular vectors of U and V
        man = FixedRank(6, 5, 2)
        X = man.random_point(np.random.default_rng(4))
        U, _, V = X.factors
        I, loop = np.eye(2), []
        complements = (np.linalg.svd(Q, full_matrices=True)[0][:, 2:] for Q in (U, V))
        for block, cols in enumerate((I, *complements)):
            for a in range(cols.shape[1]):
                for j in range(2):
                    parts = [np.zeros((2, 2)), np.zeros((6, 2)), np.zeros((5, 2))]
                    parts[block] = np.outer(cols[:, a], I[j])
                    loop.append(man.ambient(X, np.concatenate(parts)))
        basis = man.tangent_basis(X)
        assert basis.shape == (man.dim(), 6, 5)
        assert np.array_equal(basis, np.stack(loop))


class TestRetract:
    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_zero_tangent_is_identity(self, man):
        X = man.random_point(np.random.default_rng(5))
        X2 = retract(X, np.zeros(man.ambient_shape))
        assert np.max(np.abs(X2.X - X.X)) <= 1e-14

    def test_stiefel_polar_closed_form(self):
        # retraction of [0, t] at [1, 0] on the circle: [1, t]/sqrt(1+t^2)
        man = Stiefel(2, 1)
        X = man.point(np.array([[1.0], [0.0]]))
        for t in (0.3, -1.2, 5.0):
            xi = np.array([[0.0], [t]])
            out = retract(X, xi)
            expect = np.array([[1.0], [t]]) / np.sqrt(1 + t * t)
            np.testing.assert_allclose(out.X, expect, atol=1e-14)

    def test_fixed_rank_svd_oracle(self):
        man = FixedRank(2, 2, 1)
        e1 = np.array([[1.0], [0.0]])
        X = man.point_from_factors(e1, np.array([1.0]), e1)
        eps = 0.25
        xi = man.project(X, eps * np.array([[0.0, 0.0], [1.0, 0.0]]))
        out = retract(X, xi)
        Z = X.X + xi
        W, s, Vt = np.linalg.svd(Z)
        expect = s[0] * np.outer(W[:, 0], Vt[0])
        np.testing.assert_allclose(out.X, expect, atol=1e-12)

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_point_invariants_and_first_order(self, man):
        rng = np.random.default_rng(11)
        for trial in range(5):
            X = man.random_point(rng)
            xi = random_tangent(X, 50 + trial)
            Y = retract(X, xi)
            man.check_point(Y)
            # DR_x(0) = id via central differences
            h = 1e-6
            up = retract(X, h * xi).X
            dn = retract(X, (-h) * xi).X
            d = (up - dn) / (2 * h)
            rel = np.linalg.norm(d - xi) / np.linalg.norm(xi)
            assert rel <= 1e-6

    def test_rank_drop_raises(self):
        man = FixedRank(2, 2, 1)
        e1 = np.array([[1.0], [0.0]])
        points = [man.point_from_factors(e1, np.array([1.0]), e1),
                  FixedRank(30, 40, 3).random_point(np.random.default_rng(2))]
        for X in points:
            # step straight to the rank-0 matrix
            xi = X.manifold.project(X, -X.X)
            with pytest.raises(RankDropError):
                retract(X, xi)

    def test_fixed_rank_matches_truncated_svd(self):
        # written-out metric projection: rank-r truncation of a dense SVD
        man = FixedRank(30, 40, 3)
        rng = np.random.default_rng(21)
        for trial in range(4):
            X = man.random_point(rng)
            xi = random_tangent(X, 70 + trial)
            for t in (1e-6, 1e-2, 1.0, 10.0):
                W, s, Vt = np.linalg.svd(X.X + t * xi)
                expect = (W[:, :3] * s[:3]) @ Vt[:3]
                out = retract(X, t * xi)
                man.check_point(out)
                err = np.linalg.norm(out.X - expect) / np.linalg.norm(expect)
                assert err <= 1e-10, (trial, t, err)

    def test_fixed_rank_tangent_inside_column_and_row_space(self):
        # xi = U M V^T has Up = Vp = 0, so [U Up] and [V Vp] are rank-deficient
        man = FixedRank(30, 40, 3)
        rng = np.random.default_rng(8)
        X = man.random_point(rng)
        U, _, V = X.factors
        xi = U @ (0.3 * rng.standard_normal((3, 3))) @ V.T
        out = retract(X, xi)
        man.check_point(out)
        np.testing.assert_allclose(out.X, X.X + xi, atol=1e-12)

    def test_fixed_rank_near_rank_drop_keeps_factors_orthonormal(self):
        # The step shrinks sigma_r to ~1e-9 and adds a normal part of the same
        # size, so the new r-th singular vector mixes u_r with a direction
        # whose computed Up carries rounding along U: an orthonormal basis of
        # Up alone would not be orthogonal to U.
        man = FixedRank(30, 40, 3)
        rng = np.random.default_rng(13)
        X = man.random_point(rng)
        U, s, V = X.factors
        p = rng.standard_normal(30)
        p -= U @ (U.T @ p)
        p /= np.linalg.norm(p)
        xi = np.outer(-(s[2] - 1e-9) * U[:, 2] + 1e-9 * p, V[:, 2])
        out = retract(X, xi)
        man.check_point(out)
        np.testing.assert_allclose(out.X, X.X + xi, atol=1e-12)
        assert abs(out.factors[1][2] - np.sqrt(2) * 1e-9) <= 1e-12

    def test_fixed_rank_svd_stays_in_the_core(self, monkeypatch):
        # structural: no SVD larger than the 2r x 2r core, no dense m x n SVD
        man = FixedRank(30, 40, 3)
        X = man.random_point(np.random.default_rng(6))
        xi = random_tangent(X, 1)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        for t in (1e-3, 1.0):
            retract(X, t * xi)
        assert shapes and all(max(shape) <= 2 * man.r for shape in shapes), shapes

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_rejects_wrongly_shaped_tangent(self, man):
        # both shapes would broadcast against the point if let through
        X = man.random_point(np.random.default_rng(4))
        for xi in (np.zeros(man.ambient_shape[:-1] + (1,)), np.float64(0.0)):
            with pytest.raises(GeometryError):
                geometry.retract(X, xi)

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_directional_derivative_rejects_wrongly_shaped_tangent(self, man):
        X = man.random_point(np.random.default_rng(4))
        for xi in (np.ones(man.ambient_shape[:-1] + (1,)), np.float64(1.0)):
            with pytest.raises(GeometryError):
                oracles.directional_derivative(lambda Z: float(np.sum(Z.X)), X, xi)


class TestGradientsAndHessians:
    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_riem_grad_finite_differences(self, man):
        rng = np.random.default_rng(21)
        A = rng.standard_normal(man.ambient_shape)

        def value(Z):
            return float(np.vdot(A, Z.X) + 0.5 * np.vdot(Z.X, Z.X))

        X = man.random_point(rng)
        grad = man.project(X, A + X.X)
        for trial in range(20):
            xi = random_tangent(X, 300 + trial)
            fd = oracles.directional_derivative(value, X, xi)
            exact = np.vdot(grad, xi)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_egrad_already_tangent_unchanged(self):
        man = Stiefel(5, 2)
        X = man.random_point(np.random.default_rng(2))
        xi = random_tangent(X, 9)
        out = man.project(X, xi)
        np.testing.assert_allclose(out, xi, atol=1e-14)

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_hessian_symmetry_and_linearity(self, man):
        rng = np.random.default_rng(31)
        A = rng.standard_normal(man.ambient_shape)
        Q = rng.standard_normal((A.size, A.size))
        Q = Q + Q.T

        def egrad(Z):
            return A + (Q @ Z.ravel()).reshape(A.shape)

        def ehess(Z, v):
            return (Q @ v.ravel()).reshape(A.shape)

        X = man.random_point(rng)
        g = egrad(X.X)
        coord_hess = man.hess_operator(X, g, lambda v: ehess(X.X, v))
        hess = lambda v: man.ambient(X, coord_hess(man.coords(X, v)))
        zero = hess(np.zeros_like(g))
        assert np.linalg.norm(zero) <= 1e-14
        for trial in range(10):
            xi = random_tangent(X, 400 + trial)
            eta = random_tangent(X, 500 + trial)
            Hxi = hess(xi)
            Heta = hess(eta)
            assert abs(np.vdot(eta, Hxi) - np.vdot(xi, Heta)) <= 1e-10 * (1 + abs(np.vdot(eta, Hxi)))

    @pytest.mark.parametrize("man", [Stiefel(5, 2), FixedRank(5, 4, 2), Stiefel(6, 2)],
                             ids=["stiefel", "fixed-rank", "stiefel(6, 2)"])
    def test_second_order_taylor_slope(self, man):
        # cubic remainder of the quadratic model certifies second-order
        # retractions together with the Hessian formulas
        rng = np.random.default_rng(41)
        A = rng.standard_normal(man.ambient_shape)

        def value(Z):
            return float(np.vdot(A, Z.X) + 0.5 * np.vdot(Z.X, Z.X))

        for trial in range(3):
            X = man.random_point(rng)
            xi = random_tangent(X, 600 + trial)
            egrad = A + X.X
            grad = man.project(X, egrad)
            hv = lambda v: man.ambient(X, man.hess_operator(X, egrad, lambda u: u)(man.coords(X, v)))
            slope = taylor_remainder_slope(value, grad, hv, X, xi)
            assert slope >= 2.7


class TestTangentCoordinates:
    """``coords`` / ``ambient``: packed factors on the fixed-rank manifold,
    the argument itself elsewhere."""

    FIXED_RANK = [FixedRank(5, 4, 2), FixedRank(7, 9, 3), FixedRank(20, 30, 2)]
    FIXED_RANK_IDS = [f"fixed-rank{man.m}x{man.n}r{man.r}" for man in FIXED_RANK]

    @pytest.mark.parametrize("man", FIXED_RANK, ids=FIXED_RANK_IDS)
    def test_fixed_rank_round_trip_is_the_projection(self, man):
        rng = np.random.default_rng(51)
        for _ in range(10):
            X = man.random_point(rng)
            Y = rng.standard_normal(man.ambient_shape)
            c = man.coords(X, Y)
            assert c.shape == (man.r + man.m + man.n, man.r)
            P = man.project(X, Y)
            assert np.linalg.norm(man.ambient(X, c) - P) <= 1e-14 * np.linalg.norm(P)

    @pytest.mark.parametrize("man", FIXED_RANK, ids=FIXED_RANK_IDS)
    def test_fixed_rank_vdot_of_coordinates_is_the_metric(self, man):
        rng = np.random.default_rng(52)
        for trial in range(10):
            X = man.random_point(rng)
            a, b = random_tangent(X, 10 + trial), random_tangent(X, 40 + trial)
            assert abs(np.vdot(man.coords(X, a), man.coords(X, b)) - np.vdot(a, b)) <= 1e-14
            assert abs(np.vdot(man.coords(X, a), man.coords(X, a)) - 1.0) <= 1e-14

    @pytest.mark.parametrize("man", FIXED_RANK, ids=FIXED_RANK_IDS)
    def test_fixed_rank_coordinate_operator_is_symmetric(self, man):
        rng = np.random.default_rng(53)
        A = rng.standard_normal(man.ambient_shape)
        Q = rng.standard_normal((A.size, A.size))
        Q = Q + Q.T
        ehess = lambda v: (Q @ v.ravel()).reshape(A.shape)
        W = rng.standard_normal(A.shape)  # a diagonal PSD second term, as the envelope's
        for trial in range(5):
            X = man.random_point(rng)
            H = man.hess_operator(X, A + ehess(X.X), ehess, W * W)
            a = man.coords(X, random_tangent(X, 70 + trial))
            b = man.coords(X, random_tangent(X, 90 + trial))
            ab, ba = np.vdot(a, H(b)), np.vdot(b, H(a))
            assert abs(ab - ba) <= 1e-12 * (1.0 + abs(ab))

    def test_fixed_rank_hessian_check_on_a_partial_mask(self):
        rng = np.random.default_rng(54)
        A = rng.standard_normal((6, 5))
        omega = rng.uniform(size=A.shape) < 0.6
        P = bench.build_rmc(A, omega, 2)
        assert oracles.hessian_check(P, samples=10, seed=5) <= 1e-4

    def test_fixed_rank_retract_takes_coordinates(self):
        man = FixedRank(7, 9, 3)
        X = man.random_point(np.random.default_rng(55))
        xi = random_tangent(X, 56)
        assert np.array_equal(man.retract(X, man.coords(X, 0.1 * xi)).X, retract(X, 0.1 * xi).X)

    @pytest.mark.parametrize("man", MANIFOLDS[:3], ids=lambda m: m.name + str(m.ambient_shape))
    def test_identity_maps_elsewhere(self, man):
        X = man.random_point(np.random.default_rng(57))
        xi = random_tangent(X, 58)
        assert man.coords(X, xi) is xi
        assert man.ambient(X, xi) is xi


class TestInnerNormRandom:
    def test_inner_norm_identities(self):
        man = Stiefel(6, 3)
        X = man.random_point(np.random.default_rng(1))
        a = random_tangent(X, 1)
        b = random_tangent(X, 2)
        assert abs(np.vdot(a, a) - np.linalg.norm(a) ** 2) <= 1e-14
        assert abs(np.vdot(a, b) - np.vdot(b, a)) <= 1e-14

    @pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: m.name + str(m.ambient_shape))
    def test_random_tangent_unit_and_deterministic(self, man):
        X = man.random_point(np.random.default_rng(8))
        a = random_tangent(X, 77)
        b = random_tangent(X, 77)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
        np.testing.assert_array_equal(a, b)

    def test_random_tangent_rejects_a_zero_dimensional_tangent_space(self):
        X = Stiefel(1, 1).random_point(np.random.default_rng(8))
        with pytest.raises(GeometryError, match="zero-dimensional"):
            random_tangent(X, 77)


class TestStructuralInvariants:
    def test_stiefel_tangent_skew(self):
        man = Stiefel(6, 3)
        rng = np.random.default_rng(13)
        for trial in range(10):
            X = man.random_point(rng)
            xi = man.project(X, rng.standard_normal((6, 3)))
            S = X.X.T @ xi
            assert np.max(np.abs(S + S.T)) <= 1e-10

    def test_fixed_rank_factored_round_trip(self):
        man = FixedRank(6, 5, 3)
        rng = np.random.default_rng(17)
        for trial in range(10):
            X = man.random_point(rng)
            Y = rng.standard_normal((6, 5))
            M, Up, Vp = man._split(man.coords(X, Y))
            U, _, V = X.factors
            rebuilt = U @ M @ V.T + Up @ V.T + U @ Vp.T
            assert np.max(np.abs(rebuilt - man.project(X, Y))) <= 1e-10
            assert np.max(np.abs(U.T @ Up)) <= 1e-12
            assert np.max(np.abs(V.T @ Vp)) <= 1e-12

    def test_stiefel_nan_point_rejected(self):
        man = Stiefel(3, 2)
        X = np.eye(3)[:, :2].copy()
        X[2, 1] = np.nan
        with pytest.raises(GeometryError):
            man.point(X)
        with pytest.raises(GeometryError):
            man.check_point(ManifoldPoint(man, X))

    def test_fixed_rank_nan_singular_value_rejected(self):
        man = FixedRank(3, 3, 2)
        with pytest.raises(GeometryError):
            man.point_from_factors(np.eye(3)[:, :2], np.array([2.0, np.nan]), np.eye(3)[:, :2])

    def test_fixed_rank_infinite_singular_value_rejected(self):
        man = FixedRank(3, 3, 2)
        with pytest.raises(GeometryError):
            man.point_from_factors(np.eye(3)[:, :2], np.array([np.inf, 1.0]), np.eye(3)[:, :2])

    def test_point_invariant_enforcement(self):
        with pytest.raises(GeometryError):
            Stiefel(3, 2).point(np.ones((3, 2)))
        man = FixedRank(3, 3, 2)
        with pytest.raises(GeometryError):
            man.point_from_factors(np.eye(3)[:, :2], np.array([1.0, 2.0]), np.eye(3)[:, :2])

    @pytest.mark.parametrize("U, V, message", [
        (np.ones((3, 2)), np.eye(3)[:, :2], "U not orthonormal"),
        (np.eye(3)[:, :2], 2 * np.eye(3)[:, :2], "V not orthonormal"),
        (np.eye(3)[:, :1], np.eye(3)[:, :2], "factor shapes inconsistent"),
        (np.eye(3)[:, :2], np.eye(2), "factor shapes inconsistent"),
    ], ids=["non-orthonormal U", "non-orthonormal V", "narrow U", "short V"])
    def test_fixed_rank_bad_factors_rejected(self, U, V, message):
        with pytest.raises(GeometryError, match=message):
            FixedRank(3, 3, 2).point_from_factors(U, np.array([2.0, 1.0]), V)

    def test_fixed_rank_point_without_factors_rejected(self):
        man = FixedRank(3, 3, 2)
        with pytest.raises(GeometryError, match="must carry"):
            man.check_point(ManifoldPoint(man, np.diag([2.0, 1.0, 0.0])))

    def test_fixed_rank_hessian_refused_below_the_rank_tolerance(self):
        man = FixedRank(3, 3, 2)
        X = man.point_from_factors(np.eye(3)[:, :2], np.array([1.0, 1e-13]), np.eye(3)[:, :2])
        with pytest.raises(GeometryError, match="ill-conditioned"):
            man.hess_operator(X, np.ones((3, 3)))

    @pytest.mark.parametrize("build", [lambda: Stiefel(3, 4), lambda: FixedRank(2, 3, 3)],
                             ids=["stiefel r > n", "fixed-rank r > min(m, n)"])
    def test_rank_above_the_size_rejected(self, build):
        with pytest.raises(GeometryError, match="need 1 <= r"):
            build()


def _orthonormal(rows, cols, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((rows, cols)))[0]


# Each constructor takes slices [0] of stacked caller arrays, which numpy
# hands over as contiguous views: a point that kept them would alias the stack.
CONSTRUCTORS = {
    "euclidean": (lambda E: Euclidean(2, 3).point(E),
                  lambda: [np.arange(6.0).reshape(2, 3)]),
    "stiefel": (lambda Q: Stiefel(6, 2).point(Q), lambda: [_orthonormal(6, 2, 0)]),
    "fixed-rank": (lambda U, s, V: FixedRank(5, 4, 2).point_from_factors(U, s, V),
                   lambda: [_orthonormal(5, 2, 1), np.array([2.0, 1.0]), _orthonormal(4, 2, 2)]),
}


@pytest.mark.parametrize("kind", CONSTRUCTORS)
class TestPointsOwnTheirData:
    def build(self, kind):
        make, args = CONSTRUCTORS[kind]
        bases = [np.stack([a, a]) for a in args()]
        passed = [b[0] for b in bases]
        return make(*passed), passed, bases

    def test_caller_array_stays_writable(self, kind):
        _, passed, _ = self.build(kind)
        assert all(a.flags.writeable for a in passed)

    def test_writing_the_caller_array_leaves_the_point(self, kind):
        point, _, bases = self.build(kind)
        before = [point.X.copy()] + [F.copy() for F in point.factors or ()]
        for b in bases:
            b *= 2
        after = [point.X] + list(point.factors or ())
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)
        point.manifold.check_point(point)


def _held_bytes(point):
    """The bytes of every array a point references, each owner counted once."""
    owners, stack = {}, list(vars(point).values())
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):
            stack.extend(v)
        elif isinstance(v, np.ndarray):
            while isinstance(v.base, np.ndarray):
                v = v.base
            owners[id(v)] = v.nbytes
    return sum(owners.values())


class TestFixedRankPointsHoldTheirFactors:
    # A fixed-rank point is its factors: X is formed on each read and never kept.
    m, n, r = 200, 300, 5

    def points(self):
        man = FixedRank(self.m, self.n, self.r)
        Z = np.random.default_rng(5).standard_normal((self.m, self.n))
        X0 = man.point_from_ambient(Z)  # V arrives F-ordered, as Vt[:r].T
        return Z, X0, retract(X0, 0.1 * random_tangent(X0, 6))  # V arrives C-ordered

    def test_a_point_references_only_factor_sized_arrays(self):
        _, X0, X1 = self.points()
        for point in (X0, X1):
            # U, s, V and at most one more V in the layout X's product reads
            assert _held_bytes(point) <= 8 * (self.m + 2 * self.n + 1) * self.r

    def test_x_is_read_only_fresh_and_keeps_the_bits_of_the_passed_layout(self):
        Z, X0, X1 = self.points()
        W, s, Vt = np.linalg.svd(Z, full_matrices=False)
        r = self.r
        # point_from_ambient: V = Vt[:r].T, so the product reads the C-ordered Vt[:r]
        expect0 = (W[:, :r] * s[:r]) @ Vt[:r]
        U, s1, V = X1.factors  # retract: V is C-ordered, read through V.T
        expect1 = (U * s1) @ V.T
        for point, expect in ((X0, expect0), (X1, expect1)):
            X = point.X
            assert not X.flags.writeable and X.flags.c_contiguous
            assert X.tobytes() == expect.tobytes()
            assert point.X is not X


class TestFixedRankPointFromOneSvd:
    m, n, r = 8, 6, 2

    def matrix(self, rank):
        rng = np.random.default_rng(rank)
        return rng.standard_normal((self.m, rank)) @ rng.standard_normal((rank, self.n))

    def test_one_svd_gives_the_bytes_of_the_truncation(self, monkeypatch):
        man, Z = FixedRank(self.m, self.n, self.r), self.matrix(self.r)
        want = man.point_from_ambient(Z)
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(k) or svd(*a, **k))
        X = man.point(Z)
        assert len(calls) == 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(X.factors, want.factors))
        assert X.X.tobytes() == want.X.tobytes()

    def test_a_rank_above_r_is_refused(self):
        with pytest.raises(GeometryError, match=r"^point has rank above r = 2: sigma_3 = .* "
                                                r"> RANK_TOL \* sigma_1 = "):
            FixedRank(self.m, self.n, self.r).point(self.matrix(self.r + 1))

    def test_a_rank_below_r_is_refused(self):
        with pytest.raises(RankDropError, match=r"^sigma_2 = .* <= 1\.0e-12: rank below r$"):
            FixedRank(self.m, self.n, self.r).point(self.matrix(self.r - 1))


def ambient_normal_parts(man, point, idx):
    """The normal parts ``e_i - project(point, e_i)``, one projection per row."""
    normal = np.zeros((len(idx), int(np.prod(man.ambient_shape))))
    normal[np.arange(len(idx)), idx] = 1.0
    for e in normal:
        e -= man.project(point, e.reshape(man.ambient_shape)).ravel()
    return normal


class TestNormalRows:
    @pytest.mark.parametrize("man", [Stiefel(6, 1), Stiefel(5, 2), Stiefel(7, 3), Stiefel(4, 4),
                                     Euclidean(3, 4)],
                             ids=lambda man: "{}-{}x{}".format(man.name, *man.ambient_shape))
    def test_the_rows_have_the_singular_values_of_the_normal_parts(self, man):
        # Stiefel's rows are r x r normal coordinates; Euclidean space's are
        # empty, as its normal parts are zero
        n, r = man.ambient_shape
        rng = np.random.default_rng(n * 10 + r)
        X = man.random_point(rng)
        size = n * r
        for idx in (np.arange(size), rng.choice(size, size // 2, replace=False),
                    rng.choice(size, 1), np.arange(0)):
            rows, normal = man.normal_rows(X, idx), ambient_normal_parts(man, X, idx)
            assert rows.shape == (len(idx), r * r if isinstance(man, Stiefel) else 0)
            np.testing.assert_allclose(rows @ rows.T, normal @ normal.T, rtol=0, atol=1e-12)
            s, t = (np.linalg.svd(A, compute_uv=False) for A in (rows, normal))
            k = max(len(s), len(t))  # the ambient rows' extra singular values are zero
            np.testing.assert_allclose(np.pad(s, (0, k - len(s))), np.pad(t, (0, k - len(t))),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("man", [FixedRank(5, 4, 2), Stiefel(5, 2)], ids=lambda man: man.name)
    def test_the_base_rows_are_the_projected_unit_vectors_bit_for_bit(self, man):
        X = man.random_point(np.random.default_rng(7))
        idx = np.array([0, 3, 4, 9])
        rows = geometry.Manifold.normal_rows(man, X, idx)
        assert rows.tobytes() == ambient_normal_parts(man, X, idx).tobytes()
        if not isinstance(man, Stiefel):
            assert man.normal_rows(X, idx).tobytes() == rows.tobytes()
