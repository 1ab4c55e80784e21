"""Acceptance suite: one test per criterion, run at stated tolerances.

Each criterion prints a PASS line with its measured quantities (visible
with ``pytest -v -rA`` or ``-s``).  Three literal reference constants are
arithmetically inconsistent with the instances they describe; those
appear as strict xfail twins next to the corrected assertions, with the
independent oracles that settle the discrepancy in-line.
"""

import math
import time

import numpy as np
import pytest

from conftest import evaluate
from ralmkit import bench, certify, geometry, lagrangian, oracles
from ralmkit.newton import NewtonConfig, ssn_minimize
from ralmkit.ralm import RalmConfig, ralm_solve

SQRT2 = math.sqrt(2.0)


def report(name, detail):
    print(f"ACCEPTANCE {name} PASS: {detail}")


@pytest.fixture(scope="session")
def cm4_solve():
    """Shared CM 4-node run from a perturbed start (criteria 5 and 8)."""
    P, Xbar, _ = bench.cm_analytic_pair(0.8)
    X0 = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 11))
    cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion="b", kkt_tol=1e-9, max_outer=50)
    t0 = time.perf_counter()
    res = ralm_solve(P, cfg, X0, np.zeros((4, 2)))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cm200_runs():
    """Five seeded CM 200-node runs (criteria 5 and 6)."""
    P = bench.build_cm(200, 5, 0.3, 50.0)
    runs = []
    for seed in range(5):
        X0 = bench.cm_initial_point(200, 5, seed=seed)
        cfg = RalmConfig(
            rho0=1.0, gamma=4.0, rho_max=256.0, criterion="b",
            kkt_tol=1e-9, max_outer=100,
            newton=NewtonConfig(max_iter=150, cg_max_iter=400),
        )
        t0 = time.perf_counter()
        res = ralm_solve(P, cfg, X0, np.zeros((200, 5)))
        runs.append((res, time.perf_counter() - t0))
    return P, runs


class TestCriterion1Cm4Certificates:
    def test_c1_stationarity_cone_and_min_eig(self):
        t0 = time.perf_counter()
        P, Xbar, ybar = bench.cm_analytic_pair(0.8)
        residual = lagrangian.kkt_residual(P, Xbar, ybar)
        cone = certify.critical_cone_basis(P, Xbar, ybar)
        cert = certify.mssosc_certificate(P, Xbar, ybar)
        elapsed = time.perf_counter() - t0
        assert residual <= 1e-10
        assert len(cone) == 2
        # dense eigensolve and the finite-difference pullback oracle agree
        # on 8 - 0.8*sqrt(2); see the xfail twin for the reference constant
        expected = 8.0 - 0.8 * SQRT2
        assert abs(cert.min_eig - expected) <= 1e-8
        assert cert.subspace_dim == 2
        assert cert.verdict == "holds"
        assert elapsed < 1.0
        report("C1", f"residual={residual:.2e} cone_dim=2 "
                     f"min_eig={cert.min_eig:.8f} (= 8 - 0.8*sqrt2) {elapsed:.2f}s")

    @pytest.mark.xfail(
        strict=True,
        reason="the reference constant 10 - 0.8*sqrt(2) does not match the "
        "instance: the dense eigensolve and the pullback second-difference "
        "oracle both give 8 - 0.8*sqrt(2), and the associated closed-form "
        "symmetric factor fails its own defining identity",
    )
    def test_c1_reference_min_eig(self):
        P, Xbar, ybar = bench.cm_analytic_pair(0.8)
        cert = certify.mssosc_certificate(P, Xbar, ybar)
        assert abs(cert.min_eig - (10.0 - 0.8 * SQRT2)) <= 1e-8


class TestCriterion2VerdictFlip:
    def test_c2_single_monotone_flip(self):
        t0 = time.perf_counter()
        verdicts = []
        for mu in (0.4, 4.0, 7.0, 7.2):
            P, Xbar, ybar = bench.cm_analytic_pair(mu)
            verdicts.append(certify.mssosc_certificate(P, Xbar, ybar).verdict == "holds")
        elapsed = time.perf_counter() - t0
        # exactly one holds -> fails transition across the sweep, located at
        # the measured threshold 4*sqrt(2) ~ 5.657 (between 4.0 and 7.0)
        assert verdicts == [True, True, False, False]
        flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
        assert flips == 1
        P, Xb, yb = bench.cm_analytic_pair(4 * SQRT2 - 1e-3)
        assert certify.mssosc_certificate(P, Xb, yb).verdict == "holds"
        P, Xb, yb = bench.cm_analytic_pair(4 * SQRT2 + 1e-3)
        assert certify.mssosc_certificate(P, Xb, yb).verdict == "fails"
        assert elapsed < 1.0
        report("C2", f"verdicts across mu=(0.4,4,7.0,7.2): {verdicts}; "
                     f"flip bracketed at 4*sqrt2={4*SQRT2:.4f} {elapsed:.2f}s")

    @pytest.mark.xfail(
        strict=True,
        reason="the reference threshold 5*sqrt(2) is inconsistent with the instance: "
        "the measured flip is at 4*sqrt(2) ~ 5.657, so mu = 7.0 already fails",
    )
    def test_c2_reference_threshold(self):
        verdicts = []
        for mu in (0.4, 4.0, 7.0, 7.2):
            P, Xbar, ybar = bench.cm_analytic_pair(mu)
            verdicts.append(certify.mssosc_certificate(P, Xbar, ybar).verdict == "holds")
        assert verdicts == [True, True, True, False]


class TestCriterion3HessianBundleConsistency:
    MUS = (0.4, 0.8, 4.0, 7.1)

    def test_c3_consistency(self):
        t0 = time.perf_counter()
        rows = []
        for mu in self.MUS:
            P, Xbar, ybar = bench.cm_analytic_pair(mu)
            holds = certify.mssosc_certificate(P, Xbar, ybar).verdict == "holds"
            eig10 = certify.genhess_min_eig(P, 10.0, Xbar, ybar, enumerate_elements=True).min_eig
            eig100 = certify.genhess_min_eig(P, 100.0, Xbar, ybar, enumerate_elements=True).min_eig
            rows.append((mu, holds, eig10, eig100))
            # equivalence at the larger penalty, which clears this
            # instance's threshold level for every mu in the grid
            assert (eig100 > 1e-9) == holds, mu
            # positivity at any penalty implies the second-order condition
            for eig in (eig10, eig100):
                if eig > 1e-9:
                    assert holds
                if not holds:
                    assert eig <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report("C3", "; ".join(
            f"mu={mu}: mssosc={h} eig(10)={a:+.3f} eig(100)={b:+.3f}"
            for mu, h, a, b in rows) + f" {elapsed:.2f}s")

    @pytest.mark.xfail(
        strict=True,
        reason="the spectrum/second-order equivalence needs the penalty above an "
        "instance-dependent level; at mu = 4 positivity starts near rho = 26, so "
        "the rho = 10 grid point disagrees",
    )
    def test_c3_consistency_at_rho_10(self):
        for mu in self.MUS:
            P, Xbar, ybar = bench.cm_analytic_pair(mu)
            holds = certify.mssosc_certificate(P, Xbar, ybar).verdict == "holds"
            eig10 = certify.genhess_min_eig(P, 10.0, Xbar, ybar, enumerate_elements=True).min_eig
            assert (eig10 > 1e-9) == holds, mu


class TestCriterion4RmcFixture:
    def test_c4_kkt_cone_and_recovery(self):
        t0 = time.perf_counter()
        fx = bench.rmc_toy_fixture()
        residual = lagrangian.kkt_residual(fx.problem, fx.X_bar, fx.y_bar)
        assert residual <= 1e-10
        cone = certify.critical_cone_basis(fx.problem, fx.X_bar, fx.y_bar)
        assert len(cone) == 0
        X0 = geometry.retract(fx.X_bar, 0.05 * geometry.random_tangent(fx.X_bar, 3))
        cfg = RalmConfig(rho0=1.0, gamma=4.0, criterion="b", kkt_tol=1e-9, max_outer=60,
                         newton=NewtonConfig(max_iter=100))
        res = ralm_solve(fx.problem, cfg, X0, np.zeros((5, 5)))
        err = float(np.linalg.norm(res.X.X - fx.A_exact))
        elapsed = time.perf_counter() - t0
        assert res.records[-1].kkt_residual <= 1e-7
        assert err <= 1e-5
        assert elapsed < 10.0
        report("C4", f"residual={residual:.2e} cone_dim=0 recovery_err={err:.2e} "
                     f"final_kkt={res.records[-1].kkt_residual:.2e} {elapsed:.2f}s")


class TestCriterion5LinearRates:
    def test_c5_rates(self, cm4_solve, cm200_runs):
        res4, t4 = cm4_solve
        P200, runs = cm200_runs
        res200, t200 = runs[0]
        t0 = time.perf_counter()
        r4 = [rec.kkt_residual for rec in res4.records]
        rate4, q4 = certify.fit_linear_rate(r4, 0.5)
        r200 = [rec.kkt_residual for rec in res200.records]
        rate200, q200 = certify.fit_linear_rate(r200, 0.5)
        fit_time = time.perf_counter() - t0
        assert res4.converged and res200.converged
        assert rate4 < 1.0 and q4 >= 0.9
        assert rate200 < 1.0 and q200 >= 0.9
        elapsed = t4 + t200 + fit_time
        assert elapsed < 60.0
        report("C5", f"cm4 rate={rate4:.3f} fit={q4:.3f}; "
                     f"cm200 rate={rate200:.3f} fit={q200:.3f} {elapsed:.1f}s")


class TestCriterion6GenHessAtScale:
    def test_c6_positive_across_seeds(self, cm200_runs):
        P, runs = cm200_runs
        solve_time = sum(t for _, t in runs)
        t0 = time.perf_counter()
        eigs, counts = [], []
        for res, _ in runs:
            assert res.converged
            cert = certify.genhess_min_eig(
                P, res.records[-1].rho, res.X, res.y, enumerate_elements=True
            )
            assert cert.min_eig > 0.0
            eigs.append(cert.min_eig)
            counts.append(cert.operator_applications)
        elapsed = solve_time + (time.perf_counter() - t0)
        assert elapsed < 120.0
        report("C6", "min eigs across 5 seeds: "
               + ", ".join(f"{e:.4f}" for e in eigs)
               + " (operator applications " + "/".join(map(str, counts)) + f") {elapsed:.1f}s")

    def test_cm200_genhess_matches_reference(self, cm200_runs):
        # the Lanczos minimum against the dense tangent-coordinate form at
        # the seed-0 CM-200 pair (tangent dimension 985), on both sides of
        # the penalty where the generalized Hessian turns positive definite.
        # The application bounds hold with a 40-vector Lanczos basis (581,
        # 181 and 261 Lanczos products); ARPACK's default 20 takes 841, 241
        # and 401.
        from conftest import reference_genhess_min_eig

        P, runs = cm200_runs
        res = runs[0][0]
        rows = []
        for rho, max_applications in ((1.0, 650), (32.0, 200), (256.0, 300)):
            t0 = time.perf_counter()
            cert = certify.genhess_min_eig(P, rho, res.X, res.y, enumerate_elements=True)
            elapsed = time.perf_counter() - t0
            ref = reference_genhess_min_eig(P, rho, res.X, res.y, enumerate_elements=True)
            assert cert.subspace_dim == 985
            assert abs(cert.min_eig - ref) <= 1e-10, (rho, cert.min_eig, ref)
            assert cert.operator_applications <= max_applications, (rho, cert.operator_applications)
            rows.append(f"rho={rho:g}: {cert.min_eig:+.12f} (reference {ref:+.12f}, "
                        f"{cert.operator_applications} applications) {elapsed:.3f}s")
        report("generalized Hessian at scale", "cm200 seed 0: " + "; ".join(rows))


class TestMssoscAtScale:
    def test_cm200_cone_matches_reference(self, cm200_runs):
        # the two-step critical-cone basis against the tangent-basis null
        # space at the seed-0 CM-200 pair (tangent dimension 985)
        from conftest import reference_cone_basis

        P, runs = cm200_runs
        res = runs[0][0]
        t0 = time.perf_counter()
        cert = certify.mssosc_certificate(P, res.X, res.y)
        elapsed = time.perf_counter() - t0
        ref = reference_cone_basis(P, res.X, res.y)
        hess = lagrangian.lagrangian_hess_operator(P, res.X, res.y)
        ref_coords = np.stack([res.X.manifold.coords(res.X, v).ravel() for v in ref])
        B = ref_coords @ np.stack([hess(c.reshape(res.X.X.shape)).ravel() for c in ref_coords]).T
        ref_eig = float(np.linalg.eigvalsh(0.5 * (B + B.T))[0])
        assert cert.subspace_dim == len(ref)
        assert abs(cert.min_eig - ref_eig) <= 1e-10
        assert cert.verdict == "holds"
        report("M-SSOSC at scale", f"cm200 seed 0: dim={cert.subspace_dim} "
                                   f"min_eig={cert.min_eig:.12f} (reference {ref_eig:.12f}) "
                                   f"{elapsed:.3f}s")

    def test_cm200_coefficient_form_equals_the_dense_basis_form(self, cm200_runs, monkeypatch):
        # the form mssosc_certificate builds from the cone's coefficients on
        # the free coordinates, against <H d_i, d_j> on the ambient basis rows
        P, runs = cm200_runs
        X, y = runs[0][0].X, runs[0][0].y
        forms, quadratic_form = [], certify._quadratic_form
        monkeypatch.setattr(certify, "_quadratic_form",
                            lambda row, V: forms.append(quadratic_form(row, V)) or forms[-1])
        certify.mssosc_certificate(P, X, y)
        basis = certify.critical_cone_basis(P, X, y)
        assert len(basis) == 85 > certify.FORM_BLOCK
        assert forms[0].shape == (85, 85)
        hess = lagrangian.lagrangian_hess_operator(P, X, y)
        V = basis.reshape(len(basis), -1)
        B = V @ np.stack([hess(v).ravel() for v in basis]).T
        np.testing.assert_allclose(forms[0], 0.5 * (B + B.T), rtol=0, atol=1e-12)

    def test_cm200_certificate_peak_stays_below_0_5_mib(self, cm200_runs):
        # the cone's coefficients on the 90 free coordinates, one ambient
        # direction, one block of the free entries of its Hessian products
        # and the 85 x 85 form: 0.28 MiB in all; an 85 x 1000 basis
        # (0.65 MiB) of ambient rows or of their Hessian products would
        # exceed the bound
        import tracemalloc

        P, runs = cm200_runs
        X, y = runs[0][0].X, runs[0][0].y
        certify.mssosc_certificate(P, X, y)  # one-time allocations fall outside the peak
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            certify.mssosc_certificate(P, X, y)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2 ** 20, f"peak {peak / 2 ** 20:.3f} MiB"


class TestCriterion7DerivativeOracles:
    def test_c7_gradients_hessians_taylor(self):
        t0 = time.perf_counter()
        problems = {
            "stiefel": bench.build_cm(6, 2, 0.5, 3.0),
            "fixed-rank": bench.rmc_toy_fixture().problem,
        }
        worst_grad, worst_hess = {}, {}
        for label, P in problems.items():
            worst_grad[label] = oracles.gradient_check(P, samples=20, seed=3)
            worst_hess[label] = oracles.hessian_check(P, samples=20, seed=5)
            assert worst_grad[label] <= 1e-6
            assert worst_hess[label] <= 1e-4
        # euclidean gradients through the same pullback oracle
        from conftest import euclidean_l1_problem

        Pe = euclidean_l1_problem(shape=(3, 3), mu=0.7)
        worst_grad["euclidean"] = oracles.gradient_check(Pe, samples=20, seed=7)
        assert worst_grad["euclidean"] <= 1e-6
        # the Taylor slopes of C7 are test_geometry.py's test_second_order_taylor_slope
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report("C7", f"grad errs {worst_grad}; hess errs {worst_hess}; {elapsed:.1f}s")


class TestCriterion8Identities:
    def test_c8_envelope_identity_box_and_grids(self, cm4_solve):
        from conftest import euclidean_l1_problem

        t0 = time.perf_counter()
        # dual-update envelope identity on 1000 random draws
        P = euclidean_l1_problem(shape=(3, 2), mu=1.4)
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            X = P.manifold.point(rng.uniform(-3, 3, (3, 2)))
            y = rng.uniform(-1.4, 1.4, (3, 2))
            rho = float(rng.uniform(0.2, 20.0))
            ev = evaluate(P, rho, X, y)
            worst = max(worst, float(np.max(np.abs(y + rho * ev.dual_grad - ev.ytilde))))
        assert worst <= 1e-12

        # multiplier box invariance along the shared full-step run
        res4, _ = cm4_solve
        assert np.max(np.abs(res4.y)) <= 0.8 + 1e-12

        # scalar prox / envelope values against the brute-force grids
        th = P.theta.__class__(1.0)
        grid = np.arange(-5.0, 5.0, 1e-4)
        prox_grid = grid[np.argmin(np.abs(grid) + 0.5 * (grid - 2.0) ** 2)]
        assert abs(float(th.prox(1.0, np.array(2.0))) - prox_grid) <= 1e-4
        assert abs(float(th.prox(1.0, np.array(2.0))) - 1.0) <= 1e-12
        env_grid = float(np.min(np.abs(grid) + 0.5 * (grid - 2.0) ** 2))
        env, env_grad = th.envelope(1.0, np.array(2.0))
        assert abs(env - env_grid) <= 1e-6
        assert abs(env - 1.5) <= 1e-12
        assert abs(float(env_grad) - 1.0) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report("C8", f"envelope identity worst={worst:.2e}; box ok; "
                     f"grid oracles ok {elapsed:.1f}s")


class TestCriterion9LocalSuperlinearity:
    def test_c9_quadratic_tail(self):
        t0 = time.perf_counter()
        P, Xbar, ybar = bench.cm_analytic_pair(0.8)
        # the subproblem minimizer is the stationary frame itself
        assert np.linalg.norm(evaluate(P, 10.0, Xbar, ybar).rgrad) <= 1e-12
        X0 = geometry.retract(Xbar, 0.05 * geometry.random_tangent(Xbar, 5))
        cfg = NewtonConfig(grad_tol=1e-10, max_iter=50)
        points = []  # every iterate: the stop test sees each one and never stops
        _, stats = ssn_minimize(P, 10.0, ybar, X0, cfg, stop=lambda ev: points.append(ev.X))
        dists = [float(np.linalg.norm(pt.X - Xbar.X)) for pt in points]
        assert dists[-1] <= 1e-8
        pairs = [(d0, d1) for d0, d1 in zip(dists[:-1], dists[1:]) if d0 > 1e-13][-3:]
        assert len(pairs) >= 2
        cs = [d1 / d0 ** 2 for d0, d1 in pairs]
        assert all(c <= 100.0 for c in cs)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report("C9", f"distances {['%.1e' % d for d in dists]}; "
                     f"quadratic constants {['%.1f' % c for c in cs]} {elapsed:.2f}s")
