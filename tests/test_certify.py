import dataclasses
import math
import re
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
from ralmkit import bench, certify, geometry, lagrangian
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
        def refuse(*args, **kwargs):
            raise AssertionError("tangent-basis route taken for 4 free coordinates")

        monkeypatch.setattr(geometry.Stiefel, "tangent_basis", refuse)
        qr_calls = self.count_decomposition_calls(monkeypatch, "qr")
        calls = self.count_decomposition_calls(monkeypatch)
        assert len(critical_cone_basis(*cm_pair)) == 2
        # on St(4, 2) the normal parts of the 4 free unit vectors are
        # X sym(X^T e_i): the SVD of their r^2 x 4 = 4 x 4 matrix of sym(X^T e_i),
        # no QR of the 8 x 4 ambient normal parts, and no SVD of X for a tangent basis
        assert qr_calls == []
        assert calls == [(4, 4)]

    def count_decomposition_calls(self, monkeypatch, name="svd"):
        """The shapes of the matrices ``np.linalg.<name>`` is called on, in order."""
        calls = []
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, **kwargs:
                            calls.append(a.shape) or original(a, *args, **kwargs))
        return calls

    def test_free_route_to_an_empty_cone(self, monkeypatch):
        # On the circle St(2, 1) at X = e_0 with g = X - Z0 fixing row 1, the
        # one free unit vector e_0 is normal: the cone is {0}, and the free
        # route finds no null vector (its SVD sees the 1 x 1 sym(X^T e_0), and
        # no QR runs)
        X = geometry.Stiefel(2, 1).point(np.array([[1.0], [0.0]]))
        P, X, y = linear_g_pair(X, np.eye(2), np.array([[False], [True]]), entrywise=True)
        qr_calls = self.count_decomposition_calls(monkeypatch, "qr")
        calls = self.count_decomposition_calls(monkeypatch)
        assert critical_cone_basis(P, X, y).shape == (0, 2, 1)
        assert (qr_calls, calls) == ([], [(1, 1)])
        assert self.assert_same_subspace(P, X, y) == 0
        assert mssosc_certificate(P, X, y).degenerate

    def test_fixed_rank_free_route_keeps_the_ambient_normal_parts(self, monkeypatch):
        # on Fr(6, 5, 1) with g = diag(1, ..., 6) @ X - Z0 fixing rows 1-5, the
        # 5 free unit vectors of row 0 are fewer than the 10 tangent
        # dimensions: the QR of their 30 x 5 ambient normal parts, then the
        # SVD of its 5 x 5 R factor, and no SVD for a tangent basis
        X = geometry.FixedRank(6, 5, 1).random_point(np.random.default_rng(6))
        fixed = np.zeros((6, 5), dtype=bool)
        fixed[1:] = True
        P, X, y = linear_g_pair(X, np.diag(np.arange(1.0, 7)), fixed, entrywise=True)
        qr_calls = self.count_decomposition_calls(monkeypatch, "qr")
        calls = self.count_decomposition_calls(monkeypatch)
        critical_cone_basis(P, X, y)
        assert (qr_calls, calls) == ([(30, 5)], [(5, 5)])
        monkeypatch.undo()
        # the tangent vectors e_0 w^T at u v^T are those with w parallel to v
        assert self.assert_same_subspace(P, X, y) == 1

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
        assert calls == [(6, 2), (2, 9)]  # X for the tangent basis, then C
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
        # X for the tangent basis, then C: a row per fixed entry, a column per tangent direction
        assert calls == [(6, 2), (4, 9)]
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

    def test_zero_dimensional_tangent_space_on_either_route(self):
        # St(1, 1) = {-1, 1} has T_x = {0}; g = X - 1 vanishes at x = 1 with
        # y inside the box.  Declared entrywise, no coordinate is free; as
        # callbacks, the tangent basis is empty, and so is C
        P = dataclasses.replace(euclidean_l1_problem(shape=(1, 1), mu=1.0),
                                manifold=geometry.Stiefel(1, 1), g_value=lambda Z: Z - 1.0)
        X, y = P.manifold.point(np.array([[1.0]])), np.array([[0.5]])
        for Q in (P, dataclasses.replace(P, g_jvp=P.g_vjp)):
            assert critical_cone_basis(Q, X, y).shape == (0, 1, 1)
            assert mssosc_certificate(Q, X, y).degenerate

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


@pytest.mark.parametrize("entrywise", [False, True], ids=["tangent-basis", "free-directions"])
def test_cone_basis_forms_a_fixed_rank_x_once_at_any_size(entrywise, monkeypatch):
    # a fixed-rank point forms X on each read: the loops over the basis and
    # over the constrained entries must not read it
    form, calls = geometry.ManifoldPoint.X.fget, []
    counted = property(lambda point: calls.append(1) or form(point))
    for m, n, r in ((6, 5, 1), (9, 8, 3)):
        X = geometry.FixedRank(m, n, r).random_point(np.random.default_rng(m))
        R = np.diag(np.arange(1.0, m + 1)) if entrywise else np.eye(m) + np.ones((m, m))
        fixed = np.zeros((m, n), dtype=bool)
        fixed[(slice(1, None) if entrywise else np.s_[:, 0])] = True  # n free entries or m fixed
        P, X, y = linear_g_pair(X, R, fixed, entrywise=entrywise)
        monkeypatch.setattr(geometry.ManifoldPoint, "X", counted)
        basis = critical_cone_basis(P, X, y)
        monkeypatch.undo()
        assert len(basis) and len(calls) == 1
        calls.clear()


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

    def test_free_coefficient_form_equals_the_tangent_basis_form(self, cm_pair, monkeypatch):
        # a declared entrywise g takes the free-coordinate route, whose form
        # pairs the free entries of each Hessian product with the cone's
        # coefficients; as callbacks it takes the tangent-basis route, whose
        # form pairs coordinates.  On Stiefel and on the fixed-rank manifold
        # (n free entries of row 0, fewer than the tangent dimension), and on
        # a pair with no constrained entry, whose cone is the whole tangent
        # space.  Both forms are <H b_i, b_j> over critical_cone_basis's rows.
        pairs = [cm_pair]
        for m, n, r in ((6, 5, 1), (9, 8, 3)):
            X = geometry.FixedRank(m, n, r).random_point(np.random.default_rng(m))
            fixed = np.zeros((m, n), dtype=bool)
            fixed[1:] = True
            pairs.append(linear_g_pair(X, np.diag(np.arange(1.0, m + 1)), fixed, entrywise=True))
        X = geometry.FixedRank(6, 5, 1).random_point(np.random.default_rng(7))
        pairs.append(linear_g_pair(X, np.diag(np.arange(1.0, 7)), np.zeros((6, 5), dtype=bool),
                                   entrywise=True))
        forms, quadratic_form = [], certify._quadratic_form
        monkeypatch.setattr(certify, "_quadratic_form",
                            lambda row, V: forms.append(quadratic_form(row, V)) or forms[-1])
        for P, X, y in pairs:
            certificates = []
            for Q in (P, dataclasses.replace(P, g_jvp=P.g_vjp)):
                certificates.append(mssosc_certificate(Q, X, y))
                basis = critical_cone_basis(Q, X, y)
                hess = ambient_operator(X, lagrangian.lagrangian_hess_operator(Q, X, y))
                B = np.array([[np.vdot(hess(u), v) for v in basis] for u in basis])
                scale = max(1.0, np.abs(B).max())
                np.testing.assert_allclose(forms[-1], 0.5 * (B + B.T), rtol=0, atol=1e-12 * scale)
                w = np.linalg.eigvalsh(0.5 * (B + B.T))[0]
                assert abs(certificates[-1].min_eig - w) <= 1e-12 * scale
            free, tangent = certificates
            assert free.subspace_dim == tangent.subspace_dim > 0
            assert abs(free.min_eig - tangent.min_eig) <= 1e-12 * max(1.0, abs(tangent.min_eig))
        assert free.subspace_dim == X.manifold.dim()  # the unconstrained pair

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
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["multiplier", "point"])
    def test_rejects_a_non_finite_multiplier_or_point(self, cm_pair, where, bad):
        P, X, y = cm_pair
        if where == "multiplier":
            y = y.copy()
            y[2, 0] = bad
        else:
            Z = X.X.copy()
            Z[1, 1] = bad
            X = geometry.ManifoldPoint(X.manifold, Z)
        with pytest.raises(CertifyError, match="finite"):
            genhess_min_eig(P, 16.0, X, y)

    @pytest.mark.parametrize("shape", [(), (1, 2), (4, 1)], ids=["scalar", "1x2", "4x1"])
    def test_rejects_a_multiplier_not_of_the_shape_of_g(self, cm_pair, shape, monkeypatch):
        # g(X) is 4 x 2 on the CM-4 pair: a scalar would broadcast, the
        # others would fail inside NumPy; refused before any Evaluation
        P, X, _ = cm_pair

        def refuse(*args):
            raise AssertionError("an Evaluation was built")

        monkeypatch.setattr(lagrangian.Evaluation, "__init__", refuse)
        y = np.full(shape, 0.3) if shape else 0.3
        with pytest.raises(CertifyError, match=rf"multiplier shape {re.escape(str(shape))} "
                                               r"does not match g\(X\) \(4, 2\)"):
            genhess_min_eig(P, 1.0, X, y)

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
        # summed over the enumerated elements
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
        assert all(len(p) >= 2 for p in calls)  # each form has two distinct eigenvalues
        assert cert.operator_applications == sum(map(len, calls))

    def test_enumeration_builds_one_prox_jacobian(self, monkeypatch):
        # the extreme elements come from the convention element already built
        P = euclidean_l1_problem(shape=(1, 3), mu=1.0)
        rho = 2.0
        X = P.manifold.point(np.array([[1.0 / rho, 0.0, 3.0]]))  # one boundary entry
        calls, original = [], L1Norm.prox_jacobian
        monkeypatch.setattr(L1Norm, "prox_jacobian",
                            lambda self, t, p: calls.append(t) or original(self, t, p))
        cert = genhess_min_eig(P, rho, X, np.zeros((1, 3)), enumerate_elements=True)
        assert cert.elements_checked == 2 and not cert.partial
        assert calls == [1.0 / rho]

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
        # Hessian is -(x^T B) = 3 times the identity on T_x, so the start is
        # already an eigenvector: its Krylov space closes after one product
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
        assert cert.operator_applications == 1

    def test_repeated_eigenvalues_close_the_krylov_space(self):
        # H = Q diag(2, 2, ..., 5, ..., 9) Q^T on a flat 120-dimensional space
        # has 3 distinct eigenvalues, so the Krylov space of any start has
        # dimension 3: Lanczos stops on it, without a restart, with T's
        # exact minimum
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((120, 120)))
        lam = np.repeat([2.0, 5.0, 9.0], [50, 30, 40])
        P = euclidean_quadratic_problem((Q * lam) @ Q.T, np.zeros(120))
        X = P.manifold.point(np.zeros(120))
        cert = genhess_min_eig(P, 1.0, X, np.zeros(120))
        assert cert.min_eig == pytest.approx(2.0, abs=1e-12)
        assert cert.operator_applications <= 3 + 1

    def test_lanczos_without_convergence_is_a_certify_error(self, monkeypatch):
        # one 40-vector sweep does not resolve a random 100 x 100 form
        monkeypatch.setattr(certify, "LANCZOS_MAX_APPLICATIONS", 50)
        rng = np.random.default_rng(3)
        M = rng.standard_normal((100, 100))
        P = euclidean_quadratic_problem(M @ M.T, np.zeros(100), g_zero=False)
        X = P.manifold.point(np.zeros(100))
        with pytest.raises(CertifyError, match="no eigenvalue in 50 operator applications"):
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
        # g = x at 2 lies beyond the prox threshold 1/rho, so G = 0 and the
        # form is f's curvature 3 alone
        P = euclidean_quadratic_problem(np.array([[3.0]]), np.zeros(1), g_zero=False)
        X = P.manifold.point(np.array([2.0]))
        cert = genhess_min_eig(P, 1.0, X, np.zeros(1))
        assert cert.min_eig == pytest.approx(3.0, abs=1e-14)
        assert cert.operator_applications == 1  # the one Lanczos product


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

    def test_fixed_rank_lanczos_runs_on_tangent_coordinates(self):
        # Fr(100, 150, 2) at a completion truth: the 41-vector Lanczos basis
        # holds 504 packed coordinates per vector, 1.4 ambient arrays in all;
        # with ambient vectors it alone would be 41 arrays.  The evaluation,
        # the prepared Hessian and the re-projection's temporaries make the
        # rest of a 10.9-array peak
        import tracemalloc

        L, A = bench.rmc_random_data(100, 150, 2, 0.05, 1.0, 0)
        P = bench.build_rmc(A, np.ones(A.shape, dtype=bool), 2)
        X, y = P.manifold.point_from_ambient(L), -np.sign(A - L)
        cert = self.assert_matches(P, 64.0, X, y)  # one-time allocations fall outside the peak
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            again = genhess_min_eig(P, 64.0, X, y, enumerate_elements=True)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert again == cert
        assert peak < 12 * A.nbytes, f"peak {peak / A.nbytes:.2f} ambient arrays"


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_tail_residual(self, bad):
        r = [0.5 ** k for k in range(20)]
        r[12] = bad
        with pytest.raises(CertifyError, match="finite"):
            fit_linear_rate(r, 0.5)
        assert fit_linear_rate(r, 0.25)[0] == pytest.approx(0.5)  # not in this tail
