import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import (
    ambient_operator,
    euclidean_l1_problem,
    euclidean_quadratic_problem,
    evaluate,
    reference_cone_basis,
    reference_genhess_min_eig,
)
from ralmkit import bench, geometry, lagrangian
from ralmkit.convex import L1Norm
from ralmkit.lagrangian import ProblemSpec
from ralmkit.certify import (
    CertifyError,
    StationarityError,
    critical_cone_basis,
    fit_linear_rate,
    genhess_min_eig,
    mssosc_certificate,
)

SQRT2 = math.sqrt(2.0)

# Closed-form reference for the 4-node analytic pair, cross-checked by the
# finite-difference pullback oracle in test_pullback_oracle_confirms_value:
# the Hessian quadratic form on the critical subspace is (16 - 2*sqrt(2)*mu)
# per squared coordinate, i.e. eigenvalue 8 - sqrt(2)*mu on unit vectors,
# so the certificate flips at mu = 4*sqrt(2).
def cm_min_eig(mu):
    return 8.0 - SQRT2 * mu


CM_FLIP = 4.0 * SQRT2


class TestCriticalCone:
    def test_cm_dimension_and_span(self, cm_pair):
        P, Xbar, ybar = cm_pair
        basis = critical_cone_basis(P, Xbar, ybar)
        assert isinstance(basis, np.ndarray) and basis.shape == (2, 4, 2)
        # analytic span: interleaved sign patterns on the frame's support
        v1 = np.zeros((4, 2))
        v1[2, 0], v1[3, 0] = 1.0, -1.0
        v2 = np.zeros((4, 2))
        v2[0, 1], v2[1, 1] = 1.0, -1.0
        span = np.stack([(v1 / SQRT2).ravel(), (v2 / SQRT2).ravel()])
        B = np.stack([v.ravel() for v in basis])
        # same projector => same subspace
        np.testing.assert_allclose(B.T @ B, span.T @ span, atol=1e-10)

    def test_orthonormality(self, cm_pair):
        P, Xbar, ybar = cm_pair
        basis = critical_cone_basis(P, Xbar, ybar)
        G = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(G, np.eye(len(basis)), atol=1e-10)

    def test_interior_multiplier_gives_dimension_zero(self):
        # g(X) = 0 with |y| < mu everywhere constrains every coordinate
        P = euclidean_l1_problem(shape=(2, 3), mu=1.0)
        X = P.manifold.point(np.zeros((2, 3)))
        y = 0.5 * np.ones((2, 3))
        basis = critical_cone_basis(P, X, y)
        assert isinstance(basis, np.ndarray) and basis.shape == (0, 2, 3)

    def test_rmc_fixture_dimension_zero(self, rmc_fixture):
        fx = rmc_fixture
        basis = critical_cone_basis(fx.problem, fx.X_bar, fx.y_bar)
        assert len(basis) == 0

    def test_rejects_nonstationary_pair(self, cm_pair):
        P, Xbar, ybar = cm_pair
        bad = ybar.copy()
        bad[0, 0] = 2.0  # outside the box
        with pytest.raises(StationarityError):
            critical_cone_basis(P, Xbar, bad)


def linear_g_pair(X, R, fixed, mu=1.0, entrywise=False):
    """f = 0 at the Stiefel point ``X`` with the linear g(X) = R @ X - Z0,
    where Z0 = R @ X on the ``fixed`` entries (so z = 0 there) and 0
    elsewhere; the multiplier is 0 on ``fixed`` and mu sign(z) off it.
    ``entrywise`` declares Dg entrywise (``g_jvp`` None), for a diagonal R.
    Returns ``(P, X, y)``."""
    Z0 = np.where(fixed, R @ X.X, 0.0)
    P = ProblemSpec(
        manifold=X.manifold,
        f_value=lambda Z: 0.0,
        f_egrad=np.zeros_like,
        f_ehess=lambda Z, xi: np.zeros_like(xi),
        g_value=lambda Z: R @ Z - Z0,
        g_jvp=None if entrywise else (lambda Z, xi: R @ xi),
        g_vjp=lambda Z, w: R.T @ w,
        gy_ehess=lambda Z, y, xi: np.zeros_like(xi),
        theta=L1Norm(mu),
    )
    y = np.where(fixed, 0.0, mu * np.sign(P.g_value(X.X)))
    return P, X, y


def as_rows(basis, shape):
    return np.reshape(basis, (len(basis), math.prod(shape)))


class TestConeBasisAgainstReference:
    """The two-step construction against the tangent-basis null space."""

    def assert_same_subspace(self, P, X, y):
        shape = X.manifold.ambient_shape
        B = as_rows(critical_cone_basis(P, X, y), shape)
        R = as_rows(reference_cone_basis(P, X, y), shape)
        assert B.shape == R.shape
        np.testing.assert_allclose(B @ B.T, np.eye(len(B)), rtol=0, atol=1e-10)
        np.testing.assert_allclose(B.T @ B, R.T @ R, rtol=0, atol=1e-9)
        return len(B)

    def test_cm4_pair(self, cm_pair):
        assert self.assert_same_subspace(*cm_pair) == 2

    def test_rmc_fixture(self, rmc_fixture):
        fx = rmc_fixture
        assert self.assert_same_subspace(fx.problem, fx.X_bar, fx.y_bar) == 0

    def test_interior_euclidean(self):
        P = euclidean_l1_problem(shape=(2, 3), mu=1.0)
        X = P.manifold.point(np.zeros((2, 3)))
        assert self.assert_same_subspace(P, X, 0.5 * np.ones((2, 3))) == 0

    def test_entrywise_g_declared_or_as_callbacks(self, cm_pair, rmc_fixture):
        # the same g takes the free-coordinate route when declared (g_jvp
        # None) and the tangent route as callbacks; both give the subspace
        P = euclidean_l1_problem(shape=(2, 3), mu=1.0)
        flat = (P, P.manifold.point(np.array([[0.0, 1, 0], [-2, 0, 0]])),
                np.array([[0.5, 1, -0.25], [-1, 0, 0.75]]))  # two free coordinates
        rmc = (rmc_fixture.problem, rmc_fixture.X_bar, rmc_fixture.y_bar)
        for (P, X, y), dim in zip((cm_pair, rmc, flat), (2, 0, 2)):
            assert P.g_jvp is None
            for Q in (P, dataclasses.replace(P, g_jvp=P.g_vjp)):
                assert self.assert_same_subspace(Q, X, y) == dim

    def test_diagonal_g_builds_no_tangent_basis(self, cm_pair, monkeypatch):
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("tangent-basis route taken for 4 free coordinates")

        monkeypatch.setattr(scipy.linalg, "null_space", refuse)
        monkeypatch.setattr(geometry.Stiefel, "tangent_basis", refuse)
        assert len(critical_cone_basis(*cm_pair)) == 2

    def count_decomposition_calls(self, monkeypatch):
        import scipy.linalg

        calls = []
        for name in ("null_space", "svd"):
            original = getattr(scipy.linalg, name)
            monkeypatch.setattr(scipy.linalg, name, lambda *a, _name=name, _f=original, **k:
                                calls.append((_name, a[0].shape)) or _f(*a, **k))
        return calls

    def test_many_free_coordinates_take_the_tangent_route(self, monkeypatch):
        # g = diag(1, 0, ..., 0) @ X - Z0 on St(6, 2) is declared entrywise,
        # but it reads row 0 only: 10 free coordinates exceed the 9 tangent
        # dimensions, so C = E_c Dg(X) T is formed instead (every entry has
        # z = 0 and y = 0; rows 1-5 of Dg(X) vanish, so C keeps 2 x 9)
        rng = np.random.default_rng(5)
        X = geometry.Stiefel(6, 2).random_point(rng)
        R = np.diag([1.0, 0, 0, 0, 0, 0])
        fixed = np.zeros((6, 2), dtype=bool)
        fixed[0] = True
        P, X, y = linear_g_pair(X, R, fixed, entrywise=True)
        calls = self.count_decomposition_calls(monkeypatch)
        critical_cone_basis(P, X, y)
        assert calls == [("null_space", (2, 6)), ("svd", (2, 9))]  # X^T for the tangent basis, then C
        assert self.assert_same_subspace(P, X, y) == 7

    def test_linear_non_entrywise_g(self, monkeypatch):
        rng = np.random.default_rng(21)
        X = geometry.Stiefel(6, 2).random_point(rng)
        R = np.eye(6) + 0.5 * rng.standard_normal((6, 6))
        fixed = np.zeros((6, 2), dtype=bool)
        fixed[[0, 2, 3, 5], [0, 1, 0, 1]] = True
        P, X, y = linear_g_pair(X, R, fixed)
        calls = self.count_decomposition_calls(monkeypatch)
        critical_cone_basis(P, X, y)
        # X^T for the tangent basis, then C: a row per fixed entry, a column per tangent direction
        assert calls == [("null_space", (2, 6)), ("svd", (4, 9))]
        # ker D has dimension 12 - 4, T_X M 12 - 3: they meet in 5 dimensions
        assert self.assert_same_subspace(P, X, y) == 5

    def test_free_directions_tangent_up_to_rounding(self):
        # Rows 4 and 5 of X are 1e-17 and g observes rows 0-3 only, so the 4
        # free unit vectors in rows 4-5 are tangent up to rounding: their
        # normal parts have norm ~1e-17.  A threshold relative to the
        # largest singular value would count them as constraints.
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        X = geometry.Stiefel(6, 2).point(np.vstack([Q, 1e-17 * rng.standard_normal((2, 2))]))
        fixed = np.zeros((6, 2), dtype=bool)
        fixed[:4] = True
        P, X, y = linear_g_pair(X, np.diag([1.0, 1, 1, 1, 0, 0]), fixed, entrywise=True)
        B = as_rows(critical_cone_basis(P, X, y), (6, 2))
        np.testing.assert_allclose(B.T @ B, np.diag((~fixed).ravel().astype(float)),
                                   rtol=0, atol=1e-12)
        assert self.assert_same_subspace(P, X, y) == 4

    def test_tangent_route_constraint_tangent_up_to_rounding(self):
        # D = x^T on the sphere St(5, 1): ker D is exactly T_x, so C = D T is
        # rounding alone and the cone is all of T_x (dimension 4).  A
        # threshold relative to C's largest singular value would count it.
        rng = np.random.default_rng(4)
        X = geometry.Stiefel(5, 1).random_point(rng)
        R = rng.standard_normal((5, 5))
        R[0] = X.X[:, 0]
        fixed = np.zeros((5, 1), dtype=bool)
        fixed[0, 0] = True
        P, X, y = linear_g_pair(X, R, fixed)
        assert critical_cone_basis(P, X, y).shape == (4, 5, 1)


class TestMssosc:
    def test_cm_value_and_verdict(self, cm_pair):
        P, Xbar, ybar = cm_pair
        cert = mssosc_certificate(P, Xbar, ybar)
        assert cert.subspace_dim == 2
        assert abs(cert.min_eig - cm_min_eig(0.8)) <= 1e-8
        assert cert.verdict == "holds"

    def test_pullback_oracle_confirms_value(self, cm_pair):
        # independent check: second difference of t -> L(retract(t xi), y)
        P, Xbar, ybar = cm_pair
        basis = critical_cone_basis(P, Xbar, ybar)

        def L(Z):
            return P.f_value(Z.X) + float(np.vdot(ybar, P.g_value(Z.X)))

        t = 1e-4
        for v in basis:
            up = L(geometry.retract(Xbar, t * v))
            dn = L(geometry.retract(Xbar, (-t) * v))
            quad = (up - 2 * L(Xbar) + dn) / t ** 2
            assert abs(quad - cm_min_eig(0.8)) <= 1e-6

    def test_boundary_weight_fails(self):
        P, Xbar, ybar = bench.cm_analytic_pair(CM_FLIP)
        cert = mssosc_certificate(P, Xbar, ybar)
        assert cert.min_eig <= 1e-9
        assert cert.verdict == "fails"

    def test_degenerate_zero_dimension_holds(self, rmc_fixture):
        fx = rmc_fixture
        cert = mssosc_certificate(fx.problem, fx.X_bar, fx.y_bar)
        assert cert.degenerate
        assert cert.verdict == "holds"
        assert cert.operator_applications == 0

    def test_one_hessian_product_per_cone_direction(self, cm_pair, monkeypatch):
        P, Xbar, ybar = cm_pair
        calls = []
        original = lagrangian.lagrangian_hess_operator

        def counted(*args):
            op = original(*args)

            def apply(v):
                calls.append(v)
                return op(v)
            return apply

        monkeypatch.setattr(lagrangian, "lagrangian_hess_operator", counted)
        cert = mssosc_certificate(P, Xbar, ybar)
        assert cert.operator_applications == len(calls) == cert.subspace_dim == 2

    def test_scale_equivariance(self):
        # scaling f and theta by lambda scales the certificate, verdict fixed
        for lam in (0.25, 4.0):
            P1, Xbar, ybar = bench.cm_analytic_pair(0.8)
            H = bench.cm_hamiltonian(4, 2.0)
            from ralmkit.convex import L1Norm
            from ralmkit.lagrangian import ProblemSpec

            P2 = ProblemSpec(
                manifold=P1.manifold,
                f_value=lambda X: lam * float(np.sum(X * (H @ X))),
                f_egrad=lambda X: lam * 2.0 * (H @ X),
                f_ehess=lambda X, xi: lam * 2.0 * (H @ xi),
                g_value=P1.g_value,
                g_jvp=P1.g_jvp,
                g_vjp=P1.g_vjp,
                gy_ehess=P1.gy_ehess,
                theta=L1Norm(lam * 0.8),
            )
            c1 = mssosc_certificate(P1, Xbar, ybar)
            c2 = mssosc_certificate(P2, Xbar, lam * ybar)
            assert abs(c2.min_eig - lam * c1.min_eig) <= 1e-8 * max(1.0, lam)
            assert c1.verdict == c2.verdict

    def test_basis_independence(self, cm_pair):
        # the certificate is a subspace property: remixing the basis by a
        # random rotation must not change the minimum eigenvalue
        P, Xbar, ybar = cm_pair
        basis = critical_cone_basis(P, Xbar, ybar)
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((len(basis), len(basis))))
        mixed = []
        for i in range(len(basis)):
            amb = sum(Q[j, i] * basis[j] for j in range(len(basis)))
            mixed.append(Xbar.manifold.project(Xbar, amb))
        hess = ambient_operator(Xbar, lagrangian.lagrangian_hess_operator(P, Xbar, ybar))
        B = np.array([[np.vdot(a, hess(b)) for b in mixed] for a in mixed])
        w = np.linalg.eigvalsh(0.5 * (B + B.T))
        cert = mssosc_certificate(P, Xbar, ybar)
        assert abs(w[0] - cert.min_eig) <= 1e-8


class TestGenHess:
    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0])
    def test_rejects_penalty_not_positive_and_finite(self, cm_pair, rho):
        P, Xbar, ybar = cm_pair
        with pytest.raises(CertifyError, match="positive and finite"):
            genhess_min_eig(P, rho, Xbar, ybar)

    def test_cm_positive_at_moderate_penalty(self, cm_pair):
        P, Xbar, ybar = cm_pair
        cert = genhess_min_eig(P, 10.0, Xbar, ybar, enumerate_elements=True)
        assert cert.min_eig > 0
        assert cert.boundary_count == 0

    def test_euclidean_quadratic_lower_bound(self):
        # for f = 0.5 x^T Q x the envelope term is PSD, so the spectrum
        # sits at or above the smallest eigenvalue of Q
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        Q = M @ M.T + np.eye(4)
        lam_min = np.linalg.eigvalsh(Q)[0]
        P = euclidean_quadratic_problem(Q, np.zeros(4), mu=0.7, g_zero=False)
        X = P.manifold.point(rng.standard_normal(4))
        y = rng.uniform(-0.7, 0.7, 4)
        for rho in (1.0, 10.0):
            cert = genhess_min_eig(P, rho, X, y, enumerate_elements=True)
            assert cert.min_eig >= lam_min - 1e-9

    def test_enumeration_covers_extreme_elements(self):
        # place an entry exactly on the prox threshold: two elements appear
        P = euclidean_l1_problem(shape=(1, 3), mu=1.0)
        rho = 2.0
        x = np.array([[1.0 / rho, 0.0, 3.0]])  # g + y/rho hits t*mu at entry 0
        X = P.manifold.point(x)
        y = np.zeros((1, 3))
        cert = genhess_min_eig(P, rho, X, y, enumerate_elements=True)
        assert cert.boundary_count == 1
        assert cert.elements_checked == 2
        single = genhess_min_eig(P, rho, X, y, enumerate_elements=False)
        assert single.elements_checked == 1
        assert single.partial

    def test_counts_every_operator_application(self, monkeypatch):
        # the count is every product with a prepared generalized Hessian,
        # summed over the enumerated elements: Lanczos's and v0's
        P = euclidean_l1_problem(shape=(1, 3), mu=1.0)
        rho = 2.0
        X = P.manifold.point(np.array([[1.0 / rho, 0.0, 3.0]]))  # one boundary entry
        y = np.zeros((1, 3))
        calls = []  # per prepared operator, the vectors it was applied to
        original = lagrangian.Evaluation.ghess_operator

        def counted(self, jac=None):
            op, products = original(self, jac), []
            calls.append(products)

            def apply(c):
                products.append(c)
                return op(c)
            return apply

        monkeypatch.setattr(lagrangian.Evaluation, "ghess_operator", counted)
        cert = genhess_min_eig(P, rho, X, y, enumerate_elements=True)
        assert cert.elements_checked == len(calls) == 2
        assert all(len(p) >= 2 for p in calls)  # v0's product and at least one of Lanczos's
        assert cert.operator_applications == sum(map(len, calls))

    def test_consistency_with_mssosc_at_large_penalty(self):
        # the certificates agree once the penalty clears the instance's
        # threshold level; at any penalty, positivity implies the
        # second-order condition
        for mu in (0.4, 0.8, 4.0, 7.1):
            P, Xbar, ybar = bench.cm_analytic_pair(mu)
            msc = mssosc_certificate(P, Xbar, ybar)
            gh100 = genhess_min_eig(P, 100.0, Xbar, ybar, enumerate_elements=True)
            assert (gh100.min_eig > 1e-9) == (msc.verdict == "holds"), mu
            for rho in (10.0, 100.0):
                gh = genhess_min_eig(P, rho, Xbar, ybar, enumerate_elements=True)
                if gh.min_eig > 1e-9:
                    assert msc.verdict == "holds"
                if msc.verdict != "holds":
                    assert gh.min_eig <= 1e-9

    def test_beyond_dense_scale_builds_no_tangent_basis(self, monkeypatch):
        man = geometry.Stiefel(1000, 5)  # tangent dimension 4985
        X = bench.cm_initial_point(1000, 5, seed=0)

        def refuse(point):
            raise AssertionError("tangent basis built by the matrix-free eigensolve")

        monkeypatch.setattr(geometry.Stiefel, "tangent_basis", refuse)
        P = bench.build_cm(1000, 5, 0.3, 50.0)
        y = np.zeros((1000, 5))
        cert = genhess_min_eig(P, 100.0, X, y)
        assert cert.subspace_dim == man.dim() == 4985
        # the minimum lies at or below every Rayleigh quotient on T_X M
        H = ambient_operator(X, evaluate(P, 100.0, X, y).ghess_operator())
        quotients = [np.vdot(v, H(v)) / np.vdot(v, v)
                     for v in (geometry.random_tangent(X, seed) for seed in range(5))]
        assert math.isfinite(cert.min_eig)
        assert cert.min_eig <= min(quotients)

    def test_identity_hessian_at_dimension_6400(self):
        # g = identity at X = 0, y = 0: every prox entry is strictly inside
        # its threshold, so G = rho I and H = I on the flat 80 x 80 space
        P = euclidean_l1_problem(shape=(80, 80), mu=1.0)
        X = P.manifold.point(np.zeros((80, 80)))
        cert = genhess_min_eig(P, 1.0, X, np.zeros((80, 80)))
        assert cert.subspace_dim == 6400
        assert cert.min_eig == pytest.approx(1.0, abs=1e-12)

    def test_start_on_the_tangent_minimum(self):
        # f = <B, x> on the sphere St(5, 1) with B = -3x and g = 0: the
        # Hessian is -(x^T B) = 3 times the identity on T_x, so v0's Rayleigh
        # quotient is already the minimum and the normal eigenvalue sigma
        # must lie strictly above it
        X = geometry.Stiefel(5, 1).random_point(np.random.default_rng(2))
        B = -3.0 * X.X
        P = ProblemSpec(
            manifold=X.manifold,
            f_value=lambda Z: float(np.vdot(B, Z)),
            f_egrad=lambda Z: B,
            f_ehess=lambda Z, xi: np.zeros_like(xi),
            g_value=np.zeros_like,
            g_jvp=None,
            g_vjp=lambda Z, w: np.zeros_like(w),
            gy_ehess=None,
            theta=L1Norm(1.0),
        )
        cert = genhess_min_eig(P, 1.0, X, np.zeros((5, 1)))
        assert cert.subspace_dim == 4
        assert cert.min_eig == pytest.approx(3.0, abs=1e-12)

    def test_lanczos_without_convergence_is_a_certify_error(self, monkeypatch):
        import scipy.sparse.linalg

        original = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *a, **k: original(*a, **{**k, "maxiter": 1}))
        rng = np.random.default_rng(3)
        M = rng.standard_normal((100, 100))
        P = euclidean_quadratic_problem(M @ M.T, np.zeros(100), g_zero=False)
        X = P.manifold.point(np.zeros(100))
        with pytest.raises(CertifyError, match=r"\d+ iterations"):
            genhess_min_eig(P, 1.0, X, np.zeros(100))

    def test_zero_dimensional_tangent_space_is_degenerate(self):
        # St(1, 1) = {-1, 1} has T_x = {0}: no Rayleigh quotient to take, and
        # no 0/0 either (warnings are errors here)
        P = euclidean_l1_problem(shape=(1, 1), mu=1.0)
        P = dataclasses.replace(P, manifold=geometry.Stiefel(1, 1))
        X = P.manifold.point(np.array([[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = genhess_min_eig(P, 1.0, X, np.zeros((1, 1)), enumerate_elements=True)
            cone = mssosc_certificate(P, X, np.array([[1.0]]))
        assert cert.degenerate and cert.subspace_dim == 0
        assert cert.verdict == "holds"
        assert cert.operator_applications == 0
        assert cone.degenerate and cone.subspace_dim == 0

    def test_ambient_size_one_is_the_rayleigh_quotient(self):
        # eigsh refuses k = 1 at size 1.  g = x at 2 lies beyond the prox
        # threshold 1/rho, so G = 0 and the form is f's curvature 3 alone
        P = euclidean_quadratic_problem(np.array([[3.0]]), np.zeros(1), g_zero=False)
        X = P.manifold.point(np.array([2.0]))
        cert = genhess_min_eig(P, 1.0, X, np.zeros(1))
        assert cert.min_eig == pytest.approx(3.0, abs=1e-14)
        assert cert.operator_applications == 1  # v0's product alone


class TestGenHessAgainstReference:
    """The Lanczos minimum against the dense tangent-coordinate form."""

    def assert_matches(self, P, rho, X, y, enumerate_elements=True):
        cert = genhess_min_eig(P, rho, X, y, enumerate_elements=enumerate_elements)
        ref = reference_genhess_min_eig(P, rho, X, y, enumerate_elements=enumerate_elements)
        assert abs(cert.min_eig - ref) <= 1e-10, (rho, cert.min_eig, ref)
        assert cert.subspace_dim == X.manifold.dim()
        return cert

    @pytest.mark.parametrize("mu", [0.4, 0.8, 4.0, 7.1])
    def test_cm4_pairs(self, mu):
        P, Xbar, ybar = bench.cm_analytic_pair(mu)
        for rho in (1.0, 10.0, 100.0):
            self.assert_matches(P, rho, Xbar, ybar)

    def test_rmc_fixture(self, rmc_fixture):
        fx = rmc_fixture
        self.assert_matches(fx.problem, 10.0, fx.X_bar, fx.y_bar)

    def test_boundary_enumeration_pair(self):
        P = euclidean_l1_problem(shape=(1, 3), mu=1.0)
        X = P.manifold.point(np.array([[0.5, 0.0, 3.0]]))
        y = np.zeros((1, 3))
        assert self.assert_matches(P, 2.0, X, y).elements_checked == 2
        assert self.assert_matches(P, 2.0, X, y, enumerate_elements=False).partial


class TestRateFit:
    def test_exact_geometric(self):
        r = [0.5 ** k for k in range(20)]
        rate, q = fit_linear_rate(r, 0.5)
        assert rate == pytest.approx(0.5, abs=1e-12)
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_constant_sequence(self):
        rate, q = fit_linear_rate([3.0] * 12, 0.5)
        assert rate == pytest.approx(1.0, abs=1e-12)

    def test_noisy_geometric(self):
        r = [0.5 ** k * (1 + 0.01 * math.sin(k)) for k in range(40)]
        rate, q = fit_linear_rate(r, 0.5)
        assert 0.49 <= rate <= 0.51
        assert q >= 0.99

    def test_errors(self):
        with pytest.raises(CertifyError):
            fit_linear_rate([1.0, 0.5, 0.25], 0.5)  # too short
        with pytest.raises(CertifyError):
            fit_linear_rate([1.0] * 4 + [-1.0] * 4, 1.0)  # nonpositive
        with pytest.raises(CertifyError):
            fit_linear_rate([1.0] * 10, 0.0)
