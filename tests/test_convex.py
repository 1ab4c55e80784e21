import math

import numpy as np
import pytest

from ralmkit.convex import BOUNDARY_TOL, ConvexError, L1Norm


def grid_min(objective, lo=-5.0, hi=5.0, step=1e-4):
    grid = np.arange(lo, hi, step)
    vals = objective(grid)
    i = int(np.argmin(vals))
    return grid[i], vals[i]


class TestProx:
    def test_inside_threshold_maps_to_zero(self):
        th = L1Norm(1.0)
        assert th.prox(1.0, np.array(0.5)) == 0.0

    def test_grid_oracle(self):
        th = L1Norm(1.0)
        u, _ = grid_min(lambda u: np.abs(u) + 0.5 * (u - 2.0) ** 2)
        assert abs(th.prox(1.0, np.array(2.0)) - u) <= 1e-4
        assert abs(th.prox(1.0, np.array(2.0)) - 1.0) <= 1e-12

    def test_zero_input(self):
        th = L1Norm(3.0)
        for t in (0.1, 1.0, 7.0):
            assert np.all(th.prox(t, np.zeros((2, 3))) == 0.0)

    def test_prox_objective_beats_grid(self):
        th = L1Norm(0.7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = float(rng.uniform(-3, 3))
            t = float(rng.uniform(0.1, 2.0))
            q = float(th.prox(t, np.array(p)))
            val = th.mu * abs(q) + (q - p) ** 2 / (2 * t)
            _, best = grid_min(lambda u: th.mu * np.abs(u) + (u - p) ** 2 / (2 * t))
            assert val <= best + 1e-8

    def test_nonpositive_t(self):
        with pytest.raises(ConvexError):
            L1Norm(1.0).prox(0.0, np.array(1.0))

    def test_invalid_weight(self):
        with pytest.raises(ConvexError):
            L1Norm(0.0)

    @pytest.mark.parametrize("mu", [np.nan, np.inf])
    def test_non_finite_weight(self, mu):
        with pytest.raises(ConvexError):
            L1Norm(mu)


class TestMoreau:
    def test_grid_oracle(self):
        value, grad = L1Norm(1.0).envelope(1.0, np.array(2.0))
        assert abs(value - 1.5) <= 1e-6
        assert abs(grad - 1.0) <= 1e-12

    def test_zero_point(self):
        value, grad = L1Norm(2.0).envelope(3.0, np.zeros((2, 2)))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_grad_matches_finite_differences(self):
        th = L1Norm(1.3)
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            p = rng.uniform(-3, 3, size=(3, 2))
            rho = float(rng.uniform(0.2, 5.0))
            _, g = th.envelope(rho, p)
            for idx in [(0, 0), (1, 1), (2, 0)]:
                e = np.zeros_like(p)
                e[idx] = 1.0
                fd = (th.envelope(rho, p + h * e)[0] - th.envelope(rho, p - h * e)[0]) / (2 * h)
                assert abs(fd - g[idx]) <= 1e-6 * max(1.0, abs(g[idx]))

    def test_envelope_below_function_and_monotone_in_rho(self):
        th = L1Norm(0.9)
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(-2, 2, size=(2, 2))
            rhos = [1.0, 10.0, 1e3, 1e6]
            vals = [th.envelope(r, p)[0] for r in rhos]
            assert all(v <= th.value(p) + 1e-12 for v in vals)
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_moreau_identity_and_firm_nonexpansiveness(self):
        th = L1Norm(1.7)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = rng.uniform(-4, 4, size=3)
            q = rng.uniform(-4, 4, size=3)
            rho = float(rng.uniform(0.1, 10.0))
            _, g = th.envelope(rho, p)
            np.testing.assert_array_equal(g, rho * (p - th.prox(1.0 / rho, p)))
            d = np.linalg.norm(th.prox(1.0 / rho, p) - th.prox(1.0 / rho, q))
            assert d <= np.linalg.norm(p - q) + 1e-14

    def test_grad_in_subdifferential_at_prox(self):
        th = L1Norm(1.1)
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.uniform(-3, 3, size=(2, 3))
            rho = float(rng.uniform(0.2, 8.0))
            _, g = th.envelope(rho, p)
            q = th.prox(1.0 / rho, p)
            assert th.in_subdifferential(q, g, tol=1e-10)
            assert np.max(np.abs(g)) <= th.mu + 1e-12

    def test_nonpositive_rho(self):
        with pytest.raises(ConvexError):
            L1Norm(1.0).envelope(-1.0, np.array(1.0))

    def test_gradient_at_zero_rho(self):
        with pytest.raises(ConvexError, match="envelope parameter must be positive"):
            L1Norm(1.0).envelope(0.0, np.array([1.0, -2.0]))

    def test_one_prox_gives_value_and_gradient(self, monkeypatch):
        th, calls = L1Norm(0.6), []
        prox = L1Norm.prox
        monkeypatch.setattr(L1Norm, "prox", lambda self, t, p: calls.append(t) or prox(self, t, p))
        th.envelope(2.0, np.array([[1.0, -0.1], [0.4, -2.0]]))
        assert calls == [0.5]


class TestClarkeJacobian:
    def test_threshold_rule(self):
        th = L1Norm(1.0)
        jac = th.prox_jacobian(1.0, np.array([0.5, 2.0, -3.0]))
        np.testing.assert_array_equal(jac.mask, [0.0, 1.0, 1.0])
        assert jac.boundary_count == 0

    def test_boundary_convention(self):
        th = L1Norm(1.0)
        p = np.array([1.0, -1.0, 0.2])
        jac0 = th.prox_jacobian(1.0, p)
        np.testing.assert_array_equal(jac0.mask, [0.0, 0.0, 0.0])
        assert jac0.boundary_count == 2
        masks = [jac.mask for jac in th.extreme_prox_jacobians(jac0)]
        assert any(np.array_equal(m, [1.0, 1.0, 0.0]) for m in masks)

    def test_zero_t(self):
        with pytest.raises(ConvexError, match="prox parameter must be positive"):
            L1Norm(1.0).prox_jacobian(0.0, np.array([0.5, 2.0]))

    def test_directional_derivative_away_from_kinks(self):
        th = L1Norm(0.8)
        rng = np.random.default_rng(5)
        h = 1e-7
        tries = 0
        for _ in range(20):
            p = rng.uniform(-3, 3, size=(3, 3))
            t = float(rng.uniform(0.3, 2.0))
            if np.min(np.abs(np.abs(p) - t * th.mu)) < 1e-3:
                continue  # too close to a kink for differencing
            tries += 1
            d = rng.standard_normal((3, 3))
            jac = th.prox_jacobian(t, p)
            fd = (th.prox(t, p + h * d) - th.prox(t, p - h * d)) / (2 * h)
            num = np.linalg.norm(fd - jac.mask * d)
            assert num <= 1e-8 * max(1.0, np.linalg.norm(jac.mask * d))
        assert tries >= 10

    def test_enumeration_counts(self):
        th = L1Norm(1.0)
        p = np.array([1.0, -1.0, 0.2, 5.0])
        jacs = list(th.extreme_prox_jacobians(th.prox_jacobian(1.0, p)))
        assert len(jacs) == 4  # two boundary entries
        masks = {tuple(j.mask) for j in jacs}
        assert len(masks) == 4
        with pytest.raises(ConvexError):  # refused when called, before any element is made
            th.extreme_prox_jacobians(th.prox_jacobian(1.0, np.ones(13)))

    def test_enumeration_makes_one_element_at_a_time(self):
        # 10 ties on 60 x 80: the 1,024 masks take 37.5 MiB held at once
        import tracemalloc

        th = L1Norm(1.0)
        p = np.full((60, 80), 0.5)
        p.flat[np.arange(0, 4800, 480)] = 1.0
        base = th.prox_jacobian(1.0, p)
        assert base.boundary_count == 10
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            count = sum(1 for _ in th.extreme_prox_jacobians(base))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert count == 2 ** 10
        assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.3f} MiB"


def special_points(t, mu):
    """Signed zeros, exact and near ties |p| = t mu (inside and outside
    BOUNDARY_TOL), infinities, NaNs of both signs, and ordinary values."""
    tie = t * mu
    return np.array([
        [0.0, -0.0, tie, -tie, np.nextafter(tie, 0.0), -np.nextafter(tie, np.inf), np.inf],
        [-np.inf, np.nan, -np.nan, tie + 1e-13, tie - 5e-12, 5e-324, -2.5],
    ])


@pytest.mark.parametrize("t, mu, rho", [(1.0, 1.0, 1.0), (0.1, 0.7, 10.0), (1.0 / 3.0, 3.0, 3.0)])
class TestInPlaceArithmetic:
    """The prox and envelope write their temporaries in place: their bytes
    equal the plain formulas', and NaN in gives NaN out (the Newton solver's
    non-finite check relies on it)."""

    def test_prox_envelope_and_gradient_bytes(self, t, mu, rho):
        th = L1Norm(mu)
        p = special_points(t, mu)
        with np.errstate(invalid="ignore"):
            q = th.prox(t, p)
            assert q.tobytes() == (np.sign(p) * np.maximum(np.abs(p) - t * mu, 0.0)).tobytes()
            q = th.prox(1.0 / rho, p)
            value, grad = th.envelope(rho, p)
            assert grad.tobytes() == (rho * (p - q)).tobytes()
            # a NaN's sign bit from Python float arithmetic depends on the
            # interpreter's code path, so the NaN envelope is compared as NaN
            assert math.isnan(value)
            finite = np.where(np.isfinite(p), p, 1.0)
            q = th.prox(1.0 / rho, finite)
            env = th.value(q) + 0.5 * rho * float(np.sum((finite - q) ** 2))
            assert np.float64(th.envelope(rho, finite)[0]).tobytes() == np.float64(env).tobytes()
            assert np.all(np.isnan(th.prox(t, p)[np.isnan(p)]))
            assert np.all(np.isnan(grad[~np.isfinite(p)]))

    def test_convention_mask_bytes(self, t, mu, rho):
        p = special_points(t, mu)
        with np.errstate(invalid="ignore"):
            gap = np.abs(p) - t * mu
            mask = (gap > 0).astype(float)
        mask[np.abs(gap) <= BOUNDARY_TOL] = 0.0
        jac = L1Norm(mu).prox_jacobian(t, p)
        assert jac.mask.tobytes() == mask.tobytes()
        assert np.array_equal(jac.boundary, np.abs(gap) <= BOUNDARY_TOL)


class TestSubdifferentialMembership:
    def test_zero_zero(self):
        assert L1Norm(1.0).in_subdifferential(np.zeros(3), np.zeros(3))

    def test_analytic_pair(self):
        # the sparse-modes stationary pair: y = mu * sign pattern on the support
        from ralmkit.bench import cm_analytic_pair

        P, Xbar, ybar = cm_analytic_pair(0.8)
        assert P.theta.in_subdifferential(Xbar.X, ybar, tol=1e-12)

    def test_sign_mismatch(self):
        th = L1Norm(1.0)
        assert not th.in_subdifferential(np.array(1.0), np.array(-1.0))

    def test_box_violation(self):
        th = L1Norm(1.0)
        assert not th.in_subdifferential(np.zeros(2), np.array([0.0, 1.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ConvexError, match="shape mismatch"):
            L1Norm(1.0).in_subdifferential(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_nan_fails(self):
        th = L1Norm(1.0)
        assert not th.in_subdifferential(np.array([1.0, 0.0]), np.array([1.0, np.nan]))
        assert not th.in_subdifferential(np.array([1.0, np.nan]), np.array([1.0, 0.0]))
