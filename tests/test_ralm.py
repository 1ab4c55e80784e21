import dataclasses
import math

import numpy as np
import pytest

from ralmkit import bench, certify, geometry, lagrangian, ralm
from ralmkit.convex import L1Norm
from ralmkit.newton import NewtonConfig
from ralmkit.ralm import (
    IterateRecord, RalmConfig, RalmError, dual_jump, inner_threshold, ralm_solve,
)


class TestInnerThreshold:
    def test_variant_a(self):
        assert inner_threshold("a", 0.1, 4.0, 123.0) == pytest.approx(0.05)

    def test_variant_b_zero_dual_step(self):
        assert inner_threshold("b", 0.1, 4.0, 0.0) == 0.0

    def test_variant_c_arithmetic(self):
        assert inner_threshold("c", 0.1, 1.0, 0.5) == pytest.approx(0.025)

    def test_caps_at_one(self):
        assert inner_threshold("b", 0.2, 1.0, 50.0) == pytest.approx(0.2)
        assert inner_threshold("c", 0.2, 1.0, 50.0) == pytest.approx(0.2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(RalmError):
            inner_threshold("b", 0.1, 0.0, 1.0)
        with pytest.raises(RalmError):
            inner_threshold("z", 0.1, 1.0, 1.0)
        with pytest.raises(RalmError, match="nonnegative"):
            inner_threshold("a", -0.1, 1.0, 1.0)

    @pytest.mark.parametrize("variant", ralm.CRITERIA)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("arg", range(3))
    def test_rejects_non_finite_inputs(self, variant, bad, arg):
        # a NaN must fail every range check: under 'b', min(1.0, nan) is 1.0,
        # so a NaN dual step would give eps_k itself
        args = [0.1, 4.0, 0.5]
        args[arg] = bad
        with pytest.raises(RalmError, match="finite"):
            inner_threshold(variant, *args)


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            RalmConfig(rho0=0.0)
        with pytest.raises(ValueError):
            RalmConfig(gamma=0.5)
        with pytest.raises(ValueError):
            RalmConfig(rho_bar=2.0, rho0=1.0)
        with pytest.raises(ValueError):
            RalmConfig(criterion="d")
        with pytest.raises(ValueError, match="exact-mode constant must be positive"):
            RalmConfig(exact_c=0.0)
        with pytest.raises(ValueError, match="max_outer must be nonnegative"):
            RalmConfig(max_outer=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["rho0", "rho_bar", "gamma", "rho_max", "exact_c", "kkt_tol"])
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            RalmConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_newton_rejects_non_finite_grad_tol(self, value):
        with pytest.raises(ValueError, match="finite"):
            NewtonConfig(grad_tol=value)


class TestSolveCm:
    def test_converges_from_perturbed_start(self, cm_pair):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion="b", kkt_tol=1e-8, max_outer=50)
        res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
        assert res.converged
        assert res.records[-1].k <= 50
        assert res.records[-1].kkt_residual <= 1e-7

    def test_unmet_inner_solve_warning_names_the_reason(self, cm_pair, caplog):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        cfg = RalmConfig(max_outer=2, newton=NewtonConfig(max_iter=1))
        with caplog.at_level("WARNING", logger="ralmkit.ralm"):
            res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
        unmet = [s for s in res.inner_stats if not s.stopped]
        assert unmet and all(s.stop_reason == "max_iter" for s in unmet)
        warnings = [r.getMessage() for r in caplog.records if r.name == "ralmkit.ralm"]
        assert len(warnings) == len(unmet)
        assert all(w.endswith("before meeting its criterion: max_iter") for w in warnings)

    def test_starts_at_stationary_pair(self, cm_pair):
        P, Xbar, ybar = cm_pair
        cfg = RalmConfig(kkt_tol=1e-8, max_outer=50)
        res = ralm_solve(P, cfg, Xbar, ybar)
        assert res.converged
        assert len(res.records) == 1  # terminated before any outer iteration
        assert res.records[0].kkt_residual <= 1e-10

    @pytest.mark.parametrize("shape", [(), (1, 2), (2,), (2, 4)], ids=str)
    def test_rejects_misshapen_multiplier(self, cm_pair, shape):
        # the first three broadcast against g(X)'s (4, 2); the last is its transpose
        P, Xbar, _ = cm_pair
        with pytest.raises(RalmError, match="multiplier shape"):
            ralm_solve(P, RalmConfig(max_outer=1), Xbar, 0.3 * np.ones(shape))

    def test_multiplier_box_invariance_full_step(self, cm_pair):
        # replay deterministic prefixes of the run to observe every y^k
        P, Xbar, _ = cm_pair
        mu = P.theta.mu
        X0 = geometry.retract(Xbar, 0.2 * geometry.random_tangent(Xbar, 3))
        for k in range(1, 9):
            cfg = RalmConfig(rho0=1.0, gamma=4.0, kkt_tol=1e-12, max_outer=k)
            res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
            assert np.max(np.abs(res.y)) <= mu + 1e-12

    def test_monotone_penalties(self, cm_pair):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.3 * geometry.random_tangent(Xbar, 7))
        cfg = RalmConfig(rho0=1.0, gamma=4.0, kkt_tol=1e-9, max_outer=40)
        res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
        rhos = [rec.rho for rec in res.records]
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert all(rec.rho_tilde <= rec.rho for rec in res.records)

    def test_fixed_point_records_exact(self):
        # with an exactly-zero residual the loop is a true fixed point:
        # identical records, frozen penalty
        from conftest import euclidean_l1_problem

        P = euclidean_l1_problem(shape=(2, 2))
        X0 = P.manifold.point(np.zeros((2, 2)))
        cfg = RalmConfig(kkt_tol=-1.0, max_outer=3)  # force the loop to run
        res = ralm_solve(P, cfg, X0, np.zeros((2, 2)))
        assert len(res.records) == 4
        first = res.records[0]
        for rec in res.records[1:]:
            assert rec.kkt_residual == 0.0
            assert rec.dual_step_norm == 0.0
            assert rec.rho == first.rho
            assert rec.auglag == first.auglag
        assert np.all(res.X.X == X0.X)

    def test_fixed_point_records_analytic_pair(self, cm_pair):
        # at a floating-point-stationary pair the iterates stay put
        P, Xbar, ybar = cm_pair
        cfg = RalmConfig(kkt_tol=0.0, max_outer=3)
        res = ralm_solve(P, cfg, Xbar, ybar)
        assert len(res.records) == 4
        for rec in res.records[1:]:
            assert rec.kkt_residual <= 1e-12
            assert rec.dual_step_norm <= 1e-12
        assert np.max(np.abs(res.X.X - Xbar.X)) <= 1e-12
        assert np.max(np.abs(res.y - ybar)) <= 1e-12

    def test_r_linear_envelope(self, cm_pair):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion="b", kkt_tol=1e-9, max_outer=50)
        res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
        resids = [rec.kkt_residual for rec in res.records]
        rate, quality = certify.fit_linear_rate(resids, 0.5)
        assert rate < 1.0
        assert quality >= 0.9

    def test_criterion_variants_all_converge(self, cm_pair):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 2))
        for variant in ("a", "b", "c"):
            cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion=variant, kkt_tol=1e-7, max_outer=60)
            res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
            assert res.converged, variant

    def test_exact_mode_constant(self, cm_pair):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 2))
        cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion="a", exact_c=10.0,
                         kkt_tol=1e-7, max_outer=60)
        res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
        assert res.converged

    def test_base_level_shrinks_dual_step(self, cm_pair):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 4))
        cfg = RalmConfig(rho0=2.0, rho_bar=1.0, gamma=2.0, kkt_tol=1e-7, max_outer=80)
        res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
        for rec in res.records:
            assert rec.rho_tilde == pytest.approx(rec.rho - 1.0)
        assert res.converged


class TestOuterLoop:
    """Record k holds the pair after k inner solves and the evaluation the
    k-th inner solve returned; the penalty rule reads consecutive records."""

    def solve(self, cm_pair, cfg):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.3 * geometry.random_tangent(Xbar, 7))
        return ralm_solve(P, cfg, X0, np.zeros((4, 2)))

    def test_records_come_from_the_inner_solves(self, cm_pair):
        res = self.solve(cm_pair, RalmConfig(kkt_tol=1e-9, max_outer=40))
        assert res.converged and len(res.records) == len(res.inner_stats) + 1 > 2
        assert [rec.k for rec in res.records] == list(range(len(res.records)))
        first = res.records[0]
        assert (first.inner_iters, first.dual_step_norm) == (0, 0.0)
        for rec, stats in zip(res.records[1:], res.inner_stats):
            assert same_bits(rec.auglag, stats.objective_trace[-1])
            assert rec.inner_iters == stats.iterations

    def test_penalty_grows_only_after_a_residual_that_failed_to_halve(self, cm_pair):
        cfg = RalmConfig(kkt_tol=1e-9, max_outer=40)
        res, R_prev, raised = self.solve(cm_pair, cfg), math.inf, 0
        for rec, nxt in zip(res.records, res.records[1:]):
            grow = rec.kkt_residual > 0.5 * R_prev
            assert nxt.rho == (min(cfg.gamma * rec.rho, cfg.rho_max) if grow else rec.rho)
            raised += grow
            R_prev = rec.kkt_residual
        assert raised > 0

    def test_zero_budget_records_the_start_only(self, cm_pair):
        res = self.solve(cm_pair, RalmConfig(kkt_tol=1e-9, max_outer=0))
        assert len(res.records) == 1 and res.inner_stats == [] and not res.converged
        assert res.records[0].inner_iters == 0

    def test_exhausted_budget_records_every_outer_step(self, cm_pair):
        res = self.solve(cm_pair, RalmConfig(kkt_tol=0.0, max_outer=3))
        assert not res.converged
        assert len(res.records) == 4 and len(res.inner_stats) == 3


class TestOneProxPerPoint:
    # Besides one prox per line-search trial point, each outer step takes one
    # at the start of its inner solve and one in the KKT residual; the first
    # record takes the same two.
    PROX_PER_OUTER_STEP = 2
    PROX_AT_START = 2

    def test_cm4_prox_calls(self, cm_pair, monkeypatch):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        calls = {"prox": 0, "trial": 0}
        prox, retract = L1Norm.prox, geometry.Stiefel.retract

        def counted_prox(theta, *args):
            calls["prox"] += 1
            return prox(theta, *args)

        def counted_retract(*args):  # only the line search retracts
            calls["trial"] += 1
            return retract(*args)

        monkeypatch.setattr(L1Norm, "prox", counted_prox)
        monkeypatch.setattr(geometry.Stiefel, "retract", counted_retract)
        cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion="b", kkt_tol=1e-8, max_outer=50)
        res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
        outer = res.records[-1].k
        assert res.converged
        assert calls["trial"] >= sum(s.iterations for s in res.inner_stats) > outer
        bound = calls["trial"] + self.PROX_PER_OUTER_STEP * outer + self.PROX_AT_START
        assert calls["prox"] <= bound


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNoEvaluationHeldAcrossSolves:
    def test_inner_solves_start_with_no_live_evaluation(self, cm_pair, monkeypatch):
        # An evaluation holds several arrays of g's shape; one kept by the
        # outer loop through the next inner solve raises the peak memory.
        import gc

        from ralmkit import lagrangian, ralm

        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        solve = ralm.ssn_minimize

        def count_live():
            gc.collect()
            return sum(isinstance(o, lagrangian.Evaluation) for o in gc.get_objects())

        def counted(*args):
            live.append(count_live())
            return solve(*args)

        monkeypatch.setattr(ralm, "ssn_minimize", counted)
        live, before = [], count_live()
        res = ralm_solve(P, RalmConfig(kkt_tol=1e-8, max_outer=50), X0, np.zeros((4, 2)))
        assert res.converged and len(live) == len(res.inner_stats) > 1
        assert live == [before] * len(live)


def traced_peak(call):
    """``call()`` and its tracemalloc peak above its start, in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestSolveMemory:
    # An ambient array lives only while a later step reads it: the traced
    # peak above the start, in arrays of A's size, stays below a bound.

    def test_completion_solve_peak_stays_below_7_5_ambient_arrays(self):
        L, A = bench.rmc_random_data(60, 80, 3, 0.05, 0.5, 0)
        P = bench.build_rmc(A, np.ones(A.shape, dtype=bool), 3)
        X0, y0 = P.manifold.point_from_ambient(A), np.zeros_like(A)
        res, peak = traced_peak(lambda: ralm_solve(P, RalmConfig(), X0, y0))
        assert res.converged
        assert peak < 7.5 * A.nbytes, f"peak {peak / A.nbytes:.2f} ambient arrays"

    def test_half_observed_solve_peak_stays_below_9_5_ambient_arrays(self):
        # the benchmark's partially observed instance and budget: here
        # egrad = mask * ytilde and the weight are arrays of their own
        L, A = bench.rmc_random_data(60, 80, 3, 0.05, 0.5, 0)
        omega = np.random.default_rng(2).uniform(size=A.shape) < 0.5
        P = bench.build_rmc(A, omega, 3)
        X0, y0 = P.manifold.point_from_ambient(A * omega), np.zeros_like(A)
        cfg = RalmConfig(max_outer=16, newton=NewtonConfig(max_iter=10, cg_max_iter=100))
        res, peak = traced_peak(lambda: ralm_solve(P, cfg, X0, y0))
        assert len(res.records) == 17
        assert peak < 9.5 * A.nbytes, f"peak {peak / A.nbytes:.2f} ambient arrays"


class TestSolveRmc:
    def test_full_observation_is_bit_identical_to_the_mask(self):
        # A fully observed build_rmc drops the all-ones mask from g and passes
        # f_ehess=None; the solve must keep every bit of the masked form.
        rng = np.random.default_rng(4)
        m, n, r = 20, 30, 2
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        A = A + bench.rmc_random_outliers(m, n, 0.05, 0.5, 5)
        P = bench.build_rmc(A, np.ones((m, n), dtype=bool), r)
        assert P.f_ehess is None
        mask = np.ones((m, n))
        masked = dataclasses.replace(
            P,
            f_ehess=lambda X, xi: np.zeros_like(xi),
            g_value=lambda X: mask * (X - A),
            g_jvp=None,
            g_vjp=lambda X, w: mask * w,
        )
        X0 = P.manifold.point_from_ambient(A)
        cfg = RalmConfig(kkt_tol=1e-9, max_outer=40)
        got, want = (ralm_solve(Q, cfg, X0, np.zeros((m, n))) for Q in (P, masked))
        assert want.converged and len(want.records) > 5
        assert same_bits(got.X.X, want.X.X) and same_bits(got.y, want.y)
        assert len(got.records) == len(want.records)
        for a, b in zip(got.records, want.records):
            assert same_bits(a.as_row(), b.as_row())
        assert [s.objective_trace for s in got.inner_stats] == \
            [s.objective_trace for s in want.inner_stats]

    def test_recovers_ground_truth(self, rmc_fixture):
        fx = rmc_fixture
        X0 = geometry.retract(fx.X_bar, 0.05 * geometry.random_tangent(fx.X_bar, 3))
        cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion="b", kkt_tol=1e-9, max_outer=60,
                         newton=NewtonConfig(max_iter=100))
        res = ralm_solve(fx.problem, cfg, X0, np.zeros((5, 5)))
        assert res.converged
        assert res.records[-1].kkt_residual <= 1e-7
        assert np.linalg.norm(res.X.X - fx.A_exact) <= 1e-5

    def test_warns_on_infeasible_multiplier(self, rmc_fixture, caplog):
        import logging

        fx = rmc_fixture
        cfg = RalmConfig(kkt_tol=1e-6, max_outer=1)
        with caplog.at_level(logging.WARNING, logger="ralmkit.ralm"):
            ralm_solve(fx.problem, cfg, fx.X_bar, 5.0 * np.ones((5, 5)))
        assert any("box" in rec.message for rec in caplog.records)


class TestRecords:
    def test_schema(self):
        assert IterateRecord.FIELDS == (
            "k", "rho", "rho_tilde", "inner_iters", "grad_norm",
            "kkt_residual", "dual_step_norm", "auglag",
        )

    def test_finite_guard(self):
        with pytest.raises(RalmError):
            IterateRecord(0, 1.0, 1.0, 0, float("nan"), 1.0, 0.0, 1.0)


class TestDualJumpRule:
    """``dual_jump`` on small arrays.  Over the support of D (entries above
    1e-3 |D|_inf = 1e-5) the first face is entry 0's, at t = 0.2 / 0.01 = 20;
    entry 2 (5e-6, off the support) would stop it at t = 0.02, and y + 20 D
    puts it outside the box, where the clip brings it back."""

    Y = np.array([0.1, -0.05, 0.2999999])
    D = np.array([0.01, -0.005, 5e-6])
    BOUND = 0.3

    def jump(self, y=Y, d_prev=D, armed=True, R=0.95, R_prev=1.0):
        return dual_jump(y, self.D, d_prev, armed, R, R_prev, self.BOUND)

    def test_jumps_to_the_first_face_and_clips_to_the_box(self):
        t, y = self.jump(d_prev=2.0 * self.D)
        assert t == pytest.approx(20.0, rel=1e-12)
        assert same_bits(y, np.clip(self.Y + t * self.D, -self.BOUND, self.BOUND))
        assert y[0] == pytest.approx(self.BOUND, rel=1e-12)
        assert self.Y[2] + t * self.D[2] > self.BOUND and y[2] == self.BOUND
        assert y[1] == pytest.approx(-0.15, rel=1e-12)
        # a residual that fell by less than 10%, or not at all, is slow progress too
        assert self.jump(R=0.9001)[0] == self.jump(R=1.0)[0] == t

    def test_no_jump_below_the_largest_penalty(self):
        t, y = self.jump(armed=False)
        assert t is None and y is self.Y

    @pytest.mark.parametrize("R", [0.9, 0.5, 1.01, 15.0], ids=["fell10pct", "halved", "rose",
                                                                  "rose15x"])
    def test_no_jump_unless_the_residual_fell_by_less_than_ten_percent(self, R):
        t, y = self.jump(R=R)
        assert t is None and y is self.Y

    @pytest.mark.parametrize("eps, fires", [(1e-3, True), (2e-3, False)])
    def test_needs_collinear_steps(self, eps, fires):
        # cos(D, D + eps |D| e) = 1 / sqrt(1 + eps^2) for a unit e orthogonal to D:
        # 1 - 5.0e-7 and 1 - 2.0e-6, on either side of 1 - JUMP_COLLINEAR
        e = np.array([self.D[1], -self.D[0], 0.0]) / np.hypot(self.D[0], self.D[1])
        t, y = self.jump(d_prev=self.D + eps * np.linalg.norm(self.D) * e)
        assert (t is not None) == fires
        if not fires:
            assert y is self.Y

    @pytest.mark.parametrize("d_prev", [-D, None, np.zeros(3)], ids=["reversed", "none", "zero"])
    def test_no_jump_without_a_previous_step_along_d(self, d_prev):
        t, y = self.jump(d_prev=d_prev)
        assert t is None and y is self.Y

    def test_no_jump_when_the_face_is_within_one_step(self):
        y0 = np.array([0.295, -0.05, 0.0])  # entry 0 reaches the face at t = 0.5
        t, y = self.jump(y=y0)
        assert t == pytest.approx(0.5, rel=1e-12) and y is y0


class TestDualJumpInSolve:
    CM200_CONFIG = RalmConfig(  # the C5/C6 configuration of the CM-200 benchmark runs
        rho0=1.0, gamma=4.0, rho_max=256.0, criterion="b", kkt_tol=1e-9, max_outer=100,
        newton=NewtonConfig(max_iter=150, cg_max_iter=400))

    def test_cm200_start_seed_7_converges_to_a_certified_pair(self):
        # without the jump this start walks y along one direction at rho = 256
        # and stops after 100 outer steps at KKT residual 2.467e-8
        P = bench.build_cm(200, 5, 0.3, 50.0)
        res = ralm_solve(P, self.CM200_CONFIG, bench.cm_initial_point(200, 5, 7),
                         np.zeros((200, 5)))
        assert res.converged and res.dual_jumps >= 1
        # no jump on the converging step: the last record describes result.y
        assert same_bits(lagrangian.kkt_residual(P, res.X, res.y), res.records[-1].kkt_residual)
        cert = certify.mssosc_certificate(P, res.X, res.y)
        assert cert.verdict == "holds" and cert.min_eig > 0.05

    @pytest.fixture
    def fixed_penalty_solve(self, cm_pair):
        # rho0 = rho_max arms the rule from the first step; its dual steps
        # never repeat (the largest cosine of successive steps is 0.985)
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        cfg = RalmConfig(rho0=64.0, rho_max=64.0, criterion="b", kkt_tol=1e-11, max_outer=40)
        return lambda: ralm_solve(P, cfg, X0, np.zeros_like(X0.X))

    def test_solves_without_a_repeated_step_keep_their_bits(self, fixed_penalty_solve,
                                                             monkeypatch):
        res = fixed_penalty_solve()
        monkeypatch.setattr(ralm, "JUMP_COLLINEAR", -1.0)  # no two steps are collinear
        ref = fixed_penalty_solve()
        assert res.converged and res.dual_jumps == ref.dual_jumps == 0
        assert same_bits(res.X.X, ref.X.X) and same_bits(res.y, ref.y)
        assert len(res.records) == len(ref.records)
        for a, b in zip(res.records, ref.records):
            assert same_bits(a.as_row(), b.as_row())

    def test_no_jump_on_a_final_step(self, cm_pair, monkeypatch):
        P, Xbar, _ = cm_pair
        X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
        armed = []

        def spy(y, d, d_prev, arm, *args):
            armed.append(arm)
            return None, y

        monkeypatch.setattr(ralm, "dual_jump", spy)
        cfg = RalmConfig(rho0=64.0, rho_max=64.0, kkt_tol=0.0, max_outer=3)
        ralm_solve(P, cfg, X0, np.zeros_like(X0.X))
        assert armed == [True, True, False]  # the budget's last step
        armed.clear()
        res = ralm_solve(P, dataclasses.replace(cfg, kkt_tol=1e-11, max_outer=40), X0,
                         np.zeros_like(X0.X))
        assert res.converged and armed[-1] is False and all(armed[:-1])
        armed.clear()
        ralm_solve(P, dataclasses.replace(cfg, rho0=16.0), X0, np.zeros_like(X0.X))
        assert armed == [False, False, False]  # rho stays below rho_max

    def test_a_blocked_jump_is_logged_once(self, fixed_penalty_solve, monkeypatch, caplog):
        monkeypatch.setattr(ralm, "dual_jump", lambda y, d, d_prev, armed, *args:
                            (0.5 if armed else None, y))
        with caplog.at_level("WARNING", logger="ralmkit.ralm"):
            res = fixed_penalty_solve()
        blocked = [r.getMessage() for r in caplog.records if "allows no jump" in r.getMessage()]
        assert len(res.records) > 3 and res.dual_jumps == 0
        assert len(blocked) == 1 and blocked[0].endswith("(t = 0.5)")
