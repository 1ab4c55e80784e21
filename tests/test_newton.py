import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import euclidean_quadratic_problem
from ralmkit import bench, geometry, lagrangian, newton
from ralmkit.convex import L1Norm
from ralmkit.newton import NewtonConfig, NewtonError, cg_solve, ssn_minimize
from ralmkit.ralm import RalmConfig, ralm_solve


def make_operator(A):
    A = np.asarray(A, float)

    def apply_H(v):
        return (A @ v.ravel()).reshape(v.shape)

    return apply_H


class TestCg:
    def test_identity_one_iteration(self):
        b = np.arange(1.0, 6.0).reshape(5, 1)
        x, info = cg_solve(make_operator(np.eye(5)), 0.0, b, 1e-12, 10)
        assert info.converged and info.iterations == 1
        np.testing.assert_allclose(x, b, atol=1e-12)

    def test_spd_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        A = M @ M.T + 5 * np.eye(5)
        b_vec = rng.standard_normal(5)
        b = b_vec.reshape(5, 1)
        x, info = cg_solve(make_operator(A), 0.0, b, 1e-12, 50)
        assert info.converged
        np.testing.assert_allclose(x.ravel(), np.linalg.solve(A, b_vec), atol=1e-10)

    def test_shift_is_applied(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 5))
        A = M @ M.T
        omega = 2.5
        b_vec = rng.standard_normal(5)
        b = b_vec.reshape(5, 1)
        x, info = cg_solve(make_operator(A), omega, b, 1e-12, 100)
        assert info.converged
        np.testing.assert_allclose(
            x.ravel(), np.linalg.solve(A + omega * np.eye(5), b_vec), atol=1e-9
        )

    def test_zero_rhs(self):
        b = np.zeros((5, 1))
        x, info = cg_solve(make_operator(np.eye(5)), 0.0, b, 1e-12, 10)
        assert info.converged and info.iterations == 0
        assert np.linalg.norm(x) == 0.0

    def test_indefinite_flagged(self):
        A = -np.eye(5)
        b = np.ones((5, 1))
        x, info = cg_solve(make_operator(A), 0.0, b, 1e-12, 10)
        assert info.indefinite and not info.converged

    def test_nonfinite_operator(self):
        def bad(v):
            return np.full((5, 1), np.nan)

        b = np.ones((5, 1))
        with pytest.raises(NewtonError):
            cg_solve(bad, 0.0, b, 1e-12, 10)

    def test_nonfinite_entry_where_direction_vanishes(self):
        # The first direction is b, zero in entry 2; the operator is finite
        # everywhere else, so only the curvature d^T H d can reveal the inf.
        def bad(v):
            out = v.copy()
            out[2, 0] = np.inf
            return out

        b = np.ones((5, 1))
        b[2, 0] = 0.0
        with pytest.raises(NewtonError):
            cg_solve(bad, 0.5, b, 1e-12, 10)


    def test_operator_returning_its_argument(self):
        # (I + I) v = b in one step, alpha = 1/2 exactly.  The HVP returns
        # the direction itself, so writing into its result would corrupt d.
        b = np.random.default_rng(3).standard_normal((6, 2))
        b_before = b.copy()
        x, info = cg_solve(lambda v: v, 1.0, b, 1e-12, 10)
        assert info.converged and info.iterations == 1
        assert np.array_equal(x, b / 2)
        assert np.array_equal(b, b_before)


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=-1)
        with pytest.raises(ValueError):
            NewtonConfig(cg_max_iter=0)

    def test_fallback_direction_always_passes_descent_test(self):
        # <-g, -g> = |g|^2 >= min(beta0, beta1 |g|^p) |g|^2 whenever beta0 <= 1
        assert newton.BETA0 <= 1
        rng = np.random.default_rng(2)
        for _ in range(100):
            gnorm = float(rng.uniform(1e-8, 1e3))
            lhs = gnorm ** 2
            rhs = min(newton.BETA0, newton.BETA1 * gnorm ** newton.DESCENT_POWER) * gnorm ** 2
            assert lhs >= rhs


class TestFactoredNewtonSystem:
    def test_fixed_rank_cg_sees_only_packed_factors(self, monkeypatch):
        # partially observed 20 x 30 rank-2 completion: every right-hand side
        # and every solution CG handles is an (r + m + n, r) array
        m, n, r = 20, 30, 2
        rng = np.random.default_rng(3)
        L = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        A = L + bench.rmc_random_outliers(m, n, 0.05, 0.5, 4)
        omega = rng.uniform(size=(m, n)) < 0.6
        P = bench.build_rmc(A, omega, r)
        X0 = P.manifold.point_from_ambient(A * omega)
        shapes = []

        def recording_cg(apply_H, omega_k, b, tol, max_iter):
            x, info = cg_solve(apply_H, omega_k, b, tol, max_iter)
            shapes.append((b.shape, x.shape))
            return x, info

        monkeypatch.setattr(newton, "cg_solve", recording_cg)
        ev, stats = ssn_minimize(P, 10.0, np.zeros((m, n)), X0, NewtonConfig(max_iter=8))
        assert stats.iterations > 0 and stats.cg_iterations > 0
        assert len(shapes) >= stats.iterations
        assert set(shapes) == {((r + m + n, r), (r + m + n, r))}
        assert ev.value < stats.objective_trace[0]


class TestSsnMinimize:
    def test_strongly_convex_quadratic(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        Q = M @ M.T + 2 * np.eye(6)
        a = rng.standard_normal(6)
        P = euclidean_quadratic_problem(Q, a, g_zero=True)
        X0 = P.manifold.point(rng.standard_normal(6))
        ev, stats = ssn_minimize(P, 1.0, np.zeros(6), X0, NewtonConfig(grad_tol=1e-10))
        assert stats.iterations <= 15
        assert np.linalg.norm(ev.rgrad) <= 1e-10
        assert stats.stop_reason == "grad_tol" and stats.stopped
        np.testing.assert_allclose(ev.X.X, a, atol=1e-8)

    def test_starts_at_stationary_point(self, cm_pair):
        P, Xbar, ybar = cm_pair
        ev, stats = ssn_minimize(P, 10.0, ybar, Xbar, NewtonConfig(grad_tol=1e-10))
        assert stats.iterations == 0
        assert stats.stop_reason == "grad_tol" and stats.stopped
        assert ev.X is Xbar

    def test_monotone_descent(self, cm_pair):
        P, Xbar, ybar = cm_pair
        X0 = geometry.retract(Xbar, 0.5 * geometry.random_tangent(Xbar, 9))
        _, stats = ssn_minimize(P, 5.0, ybar, X0, NewtonConfig(grad_tol=1e-9))
        trace = stats.objective_trace
        assert all(b <= a + 1e-14 for a, b in zip(trace, trace[1:]))

    def test_stop_predicate_threading(self, cm_pair):
        P, Xbar, ybar = cm_pair
        X0 = geometry.retract(Xbar, 0.3 * geometry.random_tangent(Xbar, 13))
        calls = []

        def stop(ev):
            calls.append(np.linalg.norm(ev.rgrad))
            return np.linalg.norm(ev.rgrad) <= 1e-4

        _, stats = ssn_minimize(P, 5.0, ybar, X0, NewtonConfig(), stop)
        assert stats.stop_reason == "criterion" and stats.stopped
        assert calls, "predicate must be evaluated"
        assert calls[-1] <= 1e-4

    @pytest.mark.parametrize("cfg", [NewtonConfig(grad_tol=1e-10), NewtonConfig(max_iter=2)],
                             ids=["converged", "budget"])
    def test_returns_the_evaluation_at_the_last_iterate(self, cm_pair, cfg):
        P, Xbar, ybar = cm_pair
        X0 = geometry.retract(Xbar, 0.3 * geometry.random_tangent(Xbar, 13))
        seen = []
        ev, stats = ssn_minimize(P, 5.0, ybar, X0, cfg, stop=lambda e: seen.append(e))
        assert ev is seen[-1]
        assert stats.stop_reason == ("grad_tol" if cfg.max_iter > 2 else "max_iter")
        assert ev.value == stats.objective_trace[-1]

    def test_rank_drop_shrinks_step(self, rmc_fixture):
        # start the fixed-rank subproblem at a point with a tiny singular
        # value so aggressive steps fall off the rank chart and retry
        fx = rmc_fixture
        P = fx.problem
        U, s, V = fx.X_bar.factors
        s_small = np.array([s[0], s[1], 1e-7])
        X0 = P.manifold.point_from_factors(U, s_small, V)
        y = np.zeros((5, 5))
        ev, stats = ssn_minimize(P, 50.0, y, X0, NewtonConfig(grad_tol=1e-8, max_iter=60))
        assert np.all(np.isfinite(ev.X.X))

    def test_rank_drop_retry_backtracks(self, rmc_fixture, monkeypatch):
        # the first trial point of the line search falls off the rank chart
        fx = rmc_fixture
        X0 = geometry.retract(fx.X_bar, 0.1 * geometry.random_tangent(fx.X_bar, 3))
        retract, steps = geometry.FixedRank.retract, []

        def rank_drop_once(self, X, c):
            steps.append(c.copy())
            if len(steps) == 1:
                raise geometry.RankDropError("rank below r")
            return retract(self, X, c)

        monkeypatch.setattr(geometry.FixedRank, "retract", rank_drop_once)
        ev, stats = ssn_minimize(fx.problem, 10.0, fx.y_bar, X0,
                                 NewtonConfig(grad_tol=1e-9, max_iter=50))
        assert stats.rank_drop_retries == 1
        np.testing.assert_array_equal(steps[1], newton.DELTA * steps[0])
        assert stats.stop_reason == "grad_tol" and np.linalg.norm(ev.rgrad) <= 1e-9


def rounding_level_start(request, pair):
    """A stationary pair of a fixture, whose subproblem gradient at rho = 1 is
    at rounding level (~1e-15) and not zero."""
    fx = request.getfixturevalue(pair)
    return fx if pair == "cm_pair" else (fx.problem, fx.X_bar, fx.y_bar)


class TestStopReasons:
    def test_reasons_and_derived_flags(self):
        for reason in ("criterion", "grad_tol", "max_iter", "line_search", "noise_floor"):
            stats = newton.NewtonStats(stop_reason=reason)
            assert stats.stopped == (reason in ("criterion", "grad_tol"))
            assert stats.line_search_failed == (reason == "line_search")
        with pytest.raises(AttributeError):
            newton.NewtonStats().stopped = True

    @pytest.mark.parametrize("pair", ["cm_pair", "rmc_fixture"])
    def test_rounding_level_start_ends_at_the_noise_floor(self, request, pair):
        # Without the floor exit the CM-4 solve ends in an exhausted line
        # search after 4 steps and the rmc one runs all 50 steps.
        P, X, y = rounding_level_start(request, pair)
        ev, stats = ssn_minimize(P, 1.0, y, X, NewtonConfig(grad_tol=0.0, max_iter=50),
                                 stop=lambda ev: False)
        assert stats.stop_reason == "noise_floor" and not stats.stopped
        assert stats.iterations <= 2
        floor = newton.EPS * (np.linalg.norm(ev.egrad) + np.linalg.norm(ev.p))
        assert 0.0 < np.linalg.norm(ev.rgrad) <= newton.NOISE_FLOOR_C * floor

    def test_converging_solve_ends_at_the_noise_floor(self, cm_pair):
        # from 1e-4 away the gradient falls to ~1e-14 in three steps and then
        # no step can lower it; without the exit an exhausted line search ends
        # the solve four steps later
        P, Xbar, ybar = cm_pair
        X0 = geometry.retract(Xbar, 1e-4 * geometry.random_tangent(Xbar, 5))
        ev, stats = ssn_minimize(P, 10.0, ybar, X0, NewtonConfig(grad_tol=0.0, max_iter=50),
                                 stop=lambda ev: False)
        assert stats.stop_reason == "noise_floor"
        assert stats.iterations <= 4 and np.linalg.norm(ev.rgrad) <= 1e-13
        assert np.linalg.norm(ev.X.X - Xbar.X) <= 1e-12

    def test_exhausted_line_search(self):
        # neither the value nor the gradient ever decreases: no step passes
        # the Armijo test or, below rounding, the gradient test
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4))
        a = rng.standard_normal(4)
        P = dataclasses.replace(euclidean_quadratic_problem(M @ M.T + np.eye(4), a),
                                f_value=lambda X: 0.0, f_egrad=lambda X: a.copy())
        X0 = P.manifold.point(np.zeros(4))
        ev, stats = ssn_minimize(P, 1.0, np.zeros(4), X0, NewtonConfig(max_iter=5))
        assert stats.stop_reason == "line_search" and stats.line_search_failed
        assert stats.iterations == 0 and ev.X is X0
        assert stats.rounding_accepts == 0


class TestRoundingRegime:
    def test_a_falling_gradient_is_accepted_below_rounding(self):
        # a value that never decreases with a quadratic's gradient: once the
        # Armijo decrease is below rounding, each step is taken because its
        # gradient falls by the factor 1 - MU_LS step
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4))
        P = dataclasses.replace(
            euclidean_quadratic_problem(M @ M.T + np.eye(4), rng.standard_normal(4)),
            f_value=lambda X: 0.0)
        X0 = P.manifold.point(np.zeros(4))
        grads = []
        _, stats = ssn_minimize(P, 1.0, np.zeros(4), X0, NewtonConfig(max_iter=5),
                                stop=lambda ev: grads.append(np.linalg.norm(ev.rgrad)))
        assert stats.stop_reason == "max_iter"
        assert stats.iterations == stats.rounding_accepts == 5
        assert all(b < a for a, b in zip(grads, grads[1:]))

    @pytest.mark.parametrize("seed", [71, 72, 73, 74, 75])
    def test_small_stiefel_family_converges(self, seed):
        # f = <X, (M + M^T) X> / 2 and g = B X - c on St(6, 2), theta = |.|_1:
        # its inner solves used to stall at |grad| ~ 1e-8, where the Armijo
        # test asks for a decrease below the value's rounding, and seeds 72,
        # 73 and 75 did not converge in 60 outer steps
        rng = np.random.default_rng(seed)
        B, c, M = (rng.standard_normal(shape) for shape in ((4, 6), (4, 2), (6, 6)))
        A = M + M.T
        man = geometry.Stiefel(6, 2)
        P = lagrangian.ProblemSpec(
            manifold=man, f_value=lambda X: 0.5 * float(np.vdot(X, A @ X)),
            f_egrad=lambda X: A @ X, f_ehess=lambda X, xi: A @ xi,
            g_value=lambda X: B @ X - c, g_jvp=lambda X, xi: B @ xi,
            g_vjp=lambda X, w: B.T @ w, gy_ehess=None, theta=L1Norm(1.0))
        res = ralm_solve(P, RalmConfig(kkt_tol=1e-10, max_outer=60), man.random_point(rng),
                         np.zeros((4, 2)))
        assert res.converged
        assert not any(s.line_search_failed for s in res.inner_stats)
        assert sum(s.cg_iterations for s in res.inner_stats) <= 1000

    @pytest.mark.parametrize("rho, criterion", [(16.0, "b"), (64.0, "b"), (64.0, "a")])
    def test_cm4_at_a_fixed_penalty_converges(self, cm_pair, rho, criterion):
        # each of these solves used to exhaust line searches near convergence
        # (27, 27 and 5), and the two criterion-b solves did not converge
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        cfg = RalmConfig(rho0=rho, rho_max=rho, criterion=criterion, kkt_tol=1e-11,
                         max_outer=40)
        res = ralm_solve(P, cfg, X0, np.zeros_like(X0.X))
        assert res.converged
        assert not any(s.line_search_failed for s in res.inner_stats)
        if criterion == "b":
            R = [rec.kkt_residual for rec in res.records]
            assert all(b <= 10.0 * a for a, b in zip(R, R[1:]) if a < 1e-6)


# Solves the seed-1 instance of the benchmark's fully observed 200 x 300
# completion with the default configuration and prints its work counts, stop
# reasons and relative recovery error as JSON.  The path of this solve depends
# on the BLAS thread count (with two threads it is another one), so the test
# runs it in a process pinned to one thread, as the benchmark does.
SEED1_COMPLETION = """
import json
import numpy as np
from ralmkit import cli, ralm
m, n, r, seed = 200, 300, 5, 1
cfg = {"problem": {"kind": "rmc", "m": m, "n": n, "r": r, "density": 0.05, "magnitude": 0.5}}
P, X0, y0 = cli.build_problem(cfg, seed)
rng = np.random.default_rng(seed)  # the low-rank truth, drawn as build_problem draws it
U, _ = np.linalg.qr(rng.standard_normal((m, r)))
V, _ = np.linalg.qr(rng.standard_normal((n, r)))
L = (U * np.sort(rng.uniform(1.0, 3.0, r))[::-1]) @ V.T
res = ralm.ralm_solve(P, ralm.RalmConfig(), X0, y0)
print(json.dumps({
    "converged": res.converged,
    "newton_steps": sum(s.iterations for s in res.inner_stats),
    "cg_iterations": sum(s.cg_iterations for s in res.inner_stats),
    "stop_reasons": [s.stop_reason for s in res.inner_stats],
    "recovery_error": float(np.linalg.norm(res.X.X - L) / np.linalg.norm(L)),
}))
"""


def test_completion_seed1_tail_ends_at_the_noise_floor():
    """Its last inner solve (rho = 256) reaches the floor at its second step;
    without the exit it runs to max_iter, 331 Newton steps in all."""
    import ralmkit

    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(Path(ralmkit.__file__).resolve().parents[1]),
               **threads)
    out = subprocess.run([sys.executable, "-c", SEED1_COMPLETION], capture_output=True,
                         text=True, env=env, check=True)
    got = json.loads(out.stdout)
    assert got["converged"] and got["recovery_error"] <= 1e-6
    assert got["newton_steps"] <= 140 and got["cg_iterations"] <= 900
    assert got["stop_reasons"].count("noise_floor") == 1
    assert got["stop_reasons"][-1] == "noise_floor"
