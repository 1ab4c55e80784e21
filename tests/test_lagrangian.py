import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    ambient_operator,
    callback_ghess_operator,
    counted_ghess_operator,
    euclidean_l1_problem,
    euclidean_quadratic_problem,
    evaluate,
    reference_cone_basis,
    weight_ghess_operator,
)
from ralmkit import bench, geometry, oracles
from ralmkit.certify import CertifyError, critical_cone_basis
from ralmkit.convex import L1Norm
from ralmkit.lagrangian import (
    LagrangianError,
    ProblemSpec,
    Subproblem,
    auglag_dual_grad,
    auglag_ghess_vec,
    auglag_rgrad,
    auglag_value,
    kkt_residual,
    lagrangian_egrad,
    lagrangian_hess_operator,
)
from ralmkit.ralm import RalmConfig, ralm_solve


def auglag_grid_oracle(x, y, rho, mu=1.0, lo=-8.0, hi=8.0, step=1e-4):
    """Brute-force infimum over the perturbation for the scalar problem
    f = 0, g(x) = x.  Refines the grid once around the coarse argmin."""

    def scan(lo_, hi_, step_):
        u = np.arange(lo_, hi_, step_)
        vals = mu * np.abs(x + u) - y * u + 0.5 * rho * u ** 2
        i = int(np.argmin(vals))
        return u[i], float(vals[i])

    u0, _ = scan(lo, hi, step)
    _, val = scan(u0 - 2 * step, u0 + 2 * step, 1e-8)
    return val


class TestAuglagValue:
    def test_scalar_grid_oracle(self):
        P = euclidean_l1_problem()
        X = P.manifold.point(np.array([[2.0]]))
        got = evaluate(P, 1.0, X, np.zeros((1, 1))).value
        assert abs(got - 1.5) <= 1e-12
        assert abs(got - auglag_grid_oracle(2.0, 0.0, 1.0)) <= 1e-6

    def test_scalar_grid_oracle_random(self):
        P = euclidean_l1_problem()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.uniform(-3, 3), rng.uniform(-1, 1)
            rho = float(rng.uniform(0.3, 4.0))
            X = P.manifold.point(np.array([[x]]))
            got = evaluate(P, rho, X, np.array([[y]])).value
            assert abs(got - auglag_grid_oracle(x, y, rho)) <= 1e-6

    def test_constant_when_g_and_y_vanish(self, cm_pair):
        # y = 0 and the envelope of 0 is 0, so the value is f alone when g = 0
        from conftest import euclidean_quadratic_problem

        P = euclidean_quadratic_problem(np.eye(2), np.zeros(2), g_zero=True)
        X = P.manifold.point(np.array([1.0, -2.0]))
        for rho in (0.5, 1.0, 10.0):
            assert abs(evaluate(P, rho, X, np.zeros(2)).value - P.f_value(X.X)) <= 1e-14

    def test_increases_to_composite_value(self):
        # as rho grows the value approaches f + theta(g) from below
        P = euclidean_l1_problem(shape=(2, 2))
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-2, 2, (2, 2))
            X = P.manifold.point(x)
            target = P.theta.value(x)
            vals = [evaluate(P, rho, X, np.zeros((2, 2))).value for rho in (1, 10, 1e3, 1e6)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v <= target + 1e-12 for v in vals)
            assert abs(vals[-1] - target) <= 1e-4

    def test_rejects_bad_rho(self):
        P = euclidean_l1_problem()
        X = P.manifold.point(np.zeros((1, 1)))
        with pytest.raises(Exception):
            evaluate(P, 0.0, X, np.zeros((1, 1))).value

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_subproblem_rejects_penalty_not_positive_and_finite(self, rho):
        # NaN slips through a plain `rho <= 0` test
        with pytest.raises(LagrangianError):
            Subproblem(euclidean_l1_problem(), rho, np.zeros((1, 1)))


class TestAuglagGradient:
    def test_zero_at_analytic_pair_for_all_rho(self, cm_pair):
        P, Xbar, ybar = cm_pair
        for rho in (0.5, 1.0, 10.0, 100.0):
            assert np.linalg.norm(evaluate(P, rho, Xbar, ybar).rgrad) <= 1e-10

    def test_matches_finite_differences(self, rmc_fixture):
        Pcm = bench.build_cm(6, 2, 0.5, 3.0)
        for P in (Pcm, rmc_fixture.problem):
            assert oracles.gradient_check(P, samples=20, seed=3) <= 1e-6

    def test_weight_limits_of_the_envelope_term(self):
        # With y = 0: a huge weight collapses the prox to 0, so the value
        # becomes the quadratic penalty f + rho/2 |g|^2 and the gradient
        # follows; a vanishing weight removes the composite term entirely.
        from conftest import euclidean_quadratic_problem

        rng = np.random.default_rng(2)
        Q = np.eye(3)
        a = rng.standard_normal(3)
        X_data = rng.standard_normal(3)
        rho = 2.0

        P_big = euclidean_quadratic_problem(Q, a, mu=1e9, g_zero=False)
        X = P_big.manifold.point(X_data)
        g = evaluate(P_big, rho, X, np.zeros(3)).rgrad
        expect = P_big.f_egrad(X.X) + rho * X.X  # d/dx [f + rho/2 |x|^2]
        assert np.max(np.abs(g - expect)) <= 1e-8
        val = evaluate(P_big, rho, X, np.zeros(3)).value
        assert abs(val - (P_big.f_value(X.X) + 0.5 * rho * np.sum(X.X ** 2))) <= 1e-10

        P_tiny = euclidean_quadratic_problem(Q, a, mu=1e-9, g_zero=False)
        X = P_tiny.manifold.point(X_data)
        g = evaluate(P_tiny, rho, X, np.zeros(3)).rgrad
        assert np.max(np.abs(g - P_tiny.f_egrad(X.X))) <= 1e-8


class TestAuglagHessian:
    def test_zero_direction(self, cm_pair):
        P, Xbar, ybar = cm_pair
        zero = np.zeros(Xbar.manifold.ambient_shape)
        out = ambient_operator(Xbar, evaluate(P, 10.0, Xbar, ybar).ghess_operator())(zero)
        assert np.linalg.norm(out) <= 1e-14

    def test_symmetry(self, cm_pair, rmc_fixture):
        for (P, X, y) in (cm_pair, (rmc_fixture.problem, rmc_fixture.X_bar, rmc_fixture.y_bar)):
            rng = np.random.default_rng(4)
            H = ambient_operator(X, evaluate(P, 7.0, X, y).ghess_operator())
            for trial in range(10):
                xi = geometry.random_tangent(X, 700 + trial)
                eta = geometry.random_tangent(X, 800 + trial)
                Hxi, Heta = H(xi), H(eta)
                a = np.vdot(eta, Hxi)
                b = np.vdot(xi, Heta)
                assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_matches_differenced_gradients(self, rmc_fixture):
        Pcm = bench.build_cm(6, 2, 0.5, 3.0)
        for P in (Pcm, rmc_fixture.problem):
            assert oracles.hessian_check(P, samples=20, seed=5) <= 1e-4

    def test_four_point_stencil_on_the_analytic_pair(self, cm_pair):
        # a two-point stencil at h = 1e-5 read 1.4e-10 here
        assert oracles.hessian_check(cm_pair[0], samples=5, seed=5) <= 1e-10

    @pytest.mark.parametrize("observed", [1.0, 0.5], ids=["toy", "half-observed"])
    def test_oracle_catches_missing_fixed_rank_curvature(self, rmc_fixture, monkeypatch,
                                                         observed):
        # a tangent gradient has no normal part N, so the curvature terms
        # N Vp / s and N^T Up / s drop out of the fixed-rank Hessian
        if observed == 1.0:
            P = rmc_fixture.problem
        else:
            rng = np.random.default_rng(0)
            A = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 50))
            P = bench.build_rmc(A, rng.uniform(size=A.shape) < observed, 5)
        assert oracles.hessian_check(P, samples=5, seed=5) <= 1e-10
        full = geometry.FixedRank.hess_operator

        def flat(self, point, egrad, ehess=None, weight=None):
            return full(self, point, self.project(point, egrad), ehess, weight)

        monkeypatch.setattr(geometry.FixedRank, "hess_operator", flat)
        assert oracles.hessian_check(P, samples=5, seed=5) > 1e-2


class TestNonlinearG:
    @pytest.mark.parametrize("entrywise", [False, True], ids=["jvp", "entrywise"])
    def test_derivatives_match_finite_differences(self, entrywise):
        # CM on St(6, 2) with the non-affine g(X) = X o X: Dg(X) xi = 2 X o xi,
        # declared entrywise (g_jvp None) or passed, and the Hessian of
        # <y, g> is 2 y o xi
        P = dataclasses.replace(
            bench.build_cm(6, 2, 0.5, 3.0),
            g_value=lambda X: X * X,
            g_jvp=None if entrywise else (lambda X, xi: 2.0 * X * xi),
            g_vjp=lambda X, w: 2.0 * X * w,
            gy_ehess=lambda X, y, xi: 2.0 * y * xi,
        )
        assert oracles.gradient_check(P, samples=20, seed=3) <= 1e-6
        assert oracles.hessian_check(P, samples=20, seed=5) <= 1e-4
        # without the gy_ehess term the Hessian misses the curvature of g
        blind = dataclasses.replace(P, gy_ehess=None)
        assert oracles.hessian_check(blind, samples=20, seed=5) > 1e-2


def reference_rhess(X, egrad, ehess, xi):
    """Euclidean-to-Riemannian Hessian conversion written out unprepared and
    in ambient form: on Stiefel and Euclidean space with the floating-point
    operations of the prepared operators in the same order, on the fixed-rank
    manifold as the ambient formula (the prepared operator works on factors)."""
    man = X.manifold
    if isinstance(man, geometry.Euclidean):
        return ehess
    if isinstance(man, geometry.Stiefel):
        A = X.X.T @ egrad
        return man.project(X, ehess - xi @ (0.5 * (A + A.T)))
    U, s, V = X.factors
    N = egrad - U @ (U.T @ egrad)
    N = N - (N @ V) @ V.T
    YV = ehess @ V
    M = U.T @ YV
    Up = YV - U @ M
    Vp = ehess.T @ U - V @ M.T
    Up = Up + (N @ (xi.T @ U)) / s
    Vp = Vp + (N.T @ (xi @ V)) / s
    return U @ M @ V.T + Up @ V.T + U @ Vp.T


def reference_lagrangian_hess(P, X, y, xi):
    f_egrad = np.zeros_like(X.X) if P.f_egrad is None else P.f_egrad(X.X)  # None: f is constant
    egrad = f_egrad + P.g_vjp(X.X, y)
    ehess = np.zeros_like(xi) if P.f_ehess is None else P.f_ehess(X.X, xi)  # None: zero Hessian
    if P.gy_ehess is not None:  # None: g is affine
        ehess = ehess + P.gy_ehess(X.X, y, xi)
    return reference_rhess(X, egrad, ehess, xi)


def reference_ghess(P, rho, X, y, xi):
    """The generalized HVP at the convention Jacobian element: the smooth
    term, then the separately projected envelope term, added last."""
    p = P.g_value(X.X) + y / rho
    mask = P.theta.prox_jacobian(1.0 / rho, p).mask
    smooth = reference_lagrangian_hess(P, X, P.theta.envelope(rho, p)[1], xi)
    w = (P.g_jvp or P.g_vjp)(X.X, xi)
    return smooth + X.manifold.project(X, P.g_vjp(X.X, rho * (w - mask * w)))


def hessian_cases():
    """(problem, rho, point, multiplier) on each geometry, at points where
    the prox Jacobian has both 0 and 1 entries."""
    rng = np.random.default_rng(11)
    cm = bench.build_cm(8, 3, 0.3, 3.0)
    rmc = bench.rmc_toy_fixture().problem
    Q = rng.standard_normal((6, 6))
    flat = euclidean_quadratic_problem(Q @ Q.T, rng.standard_normal((3, 2)), mu=2.0, g_zero=False)
    cases = []
    for P, rho in ((cm, 4.0), (rmc, 2.0), (flat, 3.0)):
        X = P.manifold.random_point(rng)
        y = rng.uniform(-1.0, 1.0, P.manifold.ambient_shape)
        cases.append((P, rho, X, y))
    return cases


CASE_IDS = ["stiefel", "fixed-rank", "euclidean"]


def identity_hessian_case():
    """A flat problem whose ``f_ehess`` returns its argument itself."""
    rng = np.random.default_rng(12)
    P = ProblemSpec(
        manifold=geometry.Euclidean(4, 3),
        f_value=lambda X: 0.5 * float(np.sum(X * X)),
        f_egrad=lambda X: X,
        f_ehess=lambda X, xi: xi,
        g_value=lambda X: X,
        g_jvp=None,
        g_vjp=lambda X, w: w,
        gy_ehess=None,
        theta=L1Norm(0.5),
    )
    X = P.manifold.random_point(rng)
    return P, 2.0, X, rng.uniform(-0.5, 0.5, (4, 3))


# The fixed-rank operators work on packed factors, in another order of
# floating-point operations than the ambient formulas: compared at this
# relative tolerance.  Stiefel and Euclidean space stay bit-identical.
FIXED_RANK_RTOL = 1e-12


def assert_same(got, want, man):
    if isinstance(man, geometry.FixedRank):
        assert np.linalg.norm(got - want) <= FIXED_RANK_RTOL * np.linalg.norm(want)
    else:
        assert np.array_equal(got, want)


class TestPreparedHessian:
    @pytest.mark.parametrize("callbacks", [False, True], ids=["declared", "callbacks"])
    @pytest.mark.parametrize("case", hessian_cases(), ids=CASE_IDS)
    def test_bit_identical_to_unprepared_reference(self, case, callbacks):
        # declared: bit-identical on Stiefel and Euclidean space, FIXED_RANK_RTOL
        # on fixed rank; the same g as callbacks projects the envelope term
        # with the smooth terms, so it agrees within rounding
        P, rho, X, y = case
        Q = dataclasses.replace(P, g_jvp=P.g_vjp) if callbacks else P
        mask = P.theta.prox_jacobian(1.0 / rho, P.g_value(X.X) + y / rho).mask
        assert 0 < mask.sum() < mask.size
        H = ambient_operator(X, evaluate(Q, rho, X, y).ghess_operator())
        declared = ambient_operator(X, evaluate(P, rho, X, y).ghess_operator())
        L = ambient_operator(X, lagrangian_hess_operator(Q, X, y))
        for seed in range(5):
            xi = geometry.random_tangent(X, 900 + seed)
            want = reference_ghess(P, rho, X, y, xi)
            if callbacks:
                assert np.linalg.norm(H(xi) - declared(xi)) <= 1e-12 * np.linalg.norm(want)
            else:
                assert_same(H(xi), want, X.manifold)
            fresh = ambient_operator(X, evaluate(Q, rho, X, y).ghess_operator())
            assert np.array_equal(fresh(xi), H(xi))
            assert_same(L(xi), reference_lagrangian_hess(P, X, y, xi), X.manifold)

    @pytest.mark.parametrize(
        "case", hessian_cases() + [identity_hessian_case()], ids=CASE_IDS + ["returns-xi"]
    )
    def test_reuse_neither_aliases_nor_mutates(self, case):
        P, rho, X, y = case
        H = evaluate(P, rho, X, y).ghess_operator()
        results, snapshots = [], []
        for seed in range(4):
            c = X.manifold.coords(X, geometry.random_tangent(X, 950 + seed))
            c_before = c.copy()
            out = H(c)
            assert np.array_equal(out, evaluate(P, rho, X, y).ghess_operator()(c))
            assert np.array_equal(c, c_before)
            results.append(out)
            snapshots.append(out.copy())
        for out, snap in zip(results, snapshots):
            assert np.array_equal(out, snap)
        for i, out in enumerate(results):  # each product is a fresh array
            assert not any(np.shares_memory(out, other) for other in results[i + 1:])

    @pytest.mark.parametrize("observed", [1.0, 0.5], ids=["full", "half"])
    def test_fixed_rank_products_allocate_less_than_one_ambient_array(self, observed):
        # The ambient xi and the envelope term live in arrays the operator
        # owns; a product allocates only coordinate-sized arrays.
        import tracemalloc

        rng = np.random.default_rng(41)
        m, n = 60, 80
        A = rng.standard_normal((m, n))
        P = bench.build_rmc(A, rng.uniform(size=(m, n)) < observed, 3)
        X = P.manifold.random_point(rng)
        H = evaluate(P, 10.0, X, rng.uniform(-1.0, 1.0, (m, n))).ghess_operator()
        c = X.manifold.coords(X, geometry.random_tangent(X, 42))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(5):
                H(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < A.nbytes

    @pytest.mark.parametrize("case", hessian_cases(), ids=CASE_IDS)
    def test_manifold_operator_projects_and_adds_the_weight_term(self, case):
        # ehess reads xi, so a weight term written over xi before it shows
        P, _, X, y = case
        man = X.manifold
        egrad = lagrangian_egrad(P, X.X, y)
        rng = np.random.default_rng(31)
        for seed in range(4):
            c = man.coords(X, geometry.random_tangent(X, 980 + seed))
            E, w = rng.standard_normal((2,) + man.ambient_shape)
            both = man.hess_operator(X, egrad, lambda xi: E * xi, w)(c)
            alone = man.hess_operator(X, egrad, lambda xi: E * xi)(c)
            assert_same(both, alone + man.coords(X, man.project(X, w * man.ambient(X, c))), man)

    @pytest.mark.parametrize("case", hessian_cases(), ids=CASE_IDS)
    @pytest.mark.parametrize("with_weight", [False, True], ids=["plain", "weight"])
    def test_manifold_operator_reuse_keeps_results_and_inputs(self, case, with_weight):
        P, _, X, y = case
        man = X.manifold
        rng = np.random.default_rng(32)
        w = rng.standard_normal(man.ambient_shape)
        terms = {}
        hess = man.hess_operator(X, lagrangian_egrad(P, X.X, y), lambda xi: terms["e"],
                                 w if with_weight else None)
        kept = []
        for seed in range(4):
            c = man.coords(X, geometry.random_tangent(X, 990 + seed))
            terms["e"] = rng.standard_normal(man.ambient_shape)
            inputs = (c, terms["e"], w) if with_weight else (c, terms["e"])
            before = [a.copy() for a in inputs]
            out = hess(c)
            assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
            assert not any(np.shares_memory(out, a) for a in inputs)
            kept.append((out, out.copy()))
        for out, snap in kept:
            assert np.array_equal(out, snap)

    @pytest.mark.parametrize("case", hessian_cases(), ids=CASE_IDS)
    def test_manifold_operator_none_is_a_zero_ehess(self, case):
        # the same bytes on Stiefel and Euclidean space; the same values on
        # fixed rank, whose skipped projection has no signed zeros to match
        P, _, X, y = case
        man = X.manifold
        egrad = lagrangian_egrad(P, X.X, y)
        zero = np.zeros(man.ambient_shape)
        rng = np.random.default_rng(33)
        for seed in range(4):
            c = man.coords(X, geometry.random_tangent(X, 960 + seed))
            w = rng.standard_normal(man.ambient_shape)
            for weight in (None, w):  # without and with the weight term
                got = man.hess_operator(X, egrad, None, weight)(c)
                want = man.hess_operator(X, egrad, lambda xi: zero, weight)(c)
                assert got.dtype == want.dtype
                if isinstance(man, geometry.FixedRank):
                    assert np.array_equal(got, want)
                else:
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", hessian_cases()[:2], ids=CASE_IDS[:2])
    def test_affine_g_skips_the_zero_term(self, case):
        P, rho, X, y = case
        assert P.gy_ehess is None
        Z = dataclasses.replace(P, gy_ehess=lambda X, y, xi: np.zeros_like(xi))
        for seed in range(3):
            c = X.manifold.coords(X, geometry.random_tangent(X, 970 + seed))
            assert np.array_equal(evaluate(P, rho, X, y).ghess_operator()(c),
                                  evaluate(Z, rho, X, y).ghess_operator()(c))
            assert np.array_equal(lagrangian_hess_operator(P, X, y)(c),
                                  lagrangian_hess_operator(Z, X, y)(c))


    @pytest.mark.parametrize("case", hessian_cases()[1:2], ids=CASE_IDS[1:2])
    def test_constant_f_skips_the_gradient_term(self, case):
        P, rho, X, y = case
        assert P.f_egrad is None
        Z = dataclasses.replace(P, f_egrad=lambda X: np.zeros_like(X))
        ev, ez = evaluate(P, rho, X, y), evaluate(Z, rho, X, y)
        assert np.array_equal(ev.egrad, ez.egrad) and np.array_equal(ev.rgrad, ez.rgrad)
        assert kkt_residual(P, X, y) == kkt_residual(Z, X, y)
        c = X.manifold.coords(X, geometry.random_tangent(X, 975))
        assert np.array_equal(ev.ghess_operator()(c), ez.ghess_operator()(c))
        assert np.array_equal(lagrangian_hess_operator(P, X, y)(c),
                              lagrangian_hess_operator(Z, X, y)(c))


def envelope_route_cases():
    """(problem, rho, point, multiplier) whose g is entrywise: the identity
    on each geometry and a 0/1 observation mask."""
    rng = np.random.default_rng(61)
    A = rng.standard_normal((7, 9))
    Q = rng.standard_normal((6, 6))
    problems = (
        (bench.build_cm(8, 3, 0.3, 3.0), 4.0),
        (bench.build_rmc(A, np.ones(A.shape, dtype=bool), 2), 2.0),
        (bench.build_rmc(A, rng.uniform(size=A.shape) < 0.5, 2), 2.0),
        (euclidean_quadratic_problem(Q @ Q.T, rng.standard_normal((3, 2)), g_zero=False), 3.0),
    )
    cases = []
    for P, rho in problems:
        X = P.manifold.random_point(rng)
        cases.append((P, rho, X, rng.uniform(-1.0, 1.0, P.manifold.ambient_shape)))
    return cases


def count_calls(monkeypatch, owner, name):
    """A list that grows by one entry per call of ``owner.name`` until the
    test ends."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


class TestEnvelopeRoutes:
    """The envelope term as the weight G d^2 against the callbacks' g_vjp(G g_jvp(xi))."""

    @pytest.mark.parametrize("case", envelope_route_cases(),
                             ids=["stiefel-identity", "fixed-rank-identity", "fixed-rank-mask",
                                  "euclidean-identity"])
    def test_identity_and_mask_weights_are_bit_identical(self, case):
        P, rho, X, y = case
        assert P.g_jvp is None
        d = P.g_vjp(X.X, np.ones(y.shape))
        assert P.g_vjp(X.X, y) is y or 0 < d.sum() < d.size  # the identity or a proper mask
        calls = []
        H = counted_ghess_operator(P, rho, X, y, calls)
        ref, callbacks = weight_ghess_operator(P, rho, X, y), callback_ghess_operator(P, rho, X, y)
        for seed in range(4):
            c = X.manifold.coords(X, geometry.random_tangent(X, 940 + seed))
            got, want = H(c), callbacks(c)
            assert got.tobytes() == ref(c).tobytes()
            # the callbacks' term is the same one, projected with the smooth terms
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert calls == []  # the weight route calls no g callback

    def test_general_diagonal_weight_within_rounding(self):
        rng = np.random.default_rng(62)
        A = rng.standard_normal((7, 9))
        D = rng.uniform(0.5, 2.0, A.shape)
        base = bench.build_rmc(A, np.ones(A.shape, dtype=bool), 2)
        P = dataclasses.replace(base, g_value=lambda X: D * X - A, g_vjp=lambda X, w: D * w)
        assert P.g_jvp is None
        X = P.manifold.random_point(rng)
        y = rng.uniform(-1.0, 1.0, A.shape)
        calls = []
        H = counted_ghess_operator(P, 2.0, X, y, calls)
        ref = callback_ghess_operator(P, 2.0, X, y)
        for seed in range(4):
            c = X.manifold.coords(X, geometry.random_tangent(X, 945 + seed))
            want = ref(c)
            assert np.linalg.norm(H(c) - want) <= 1e-12 * np.linalg.norm(want)
        assert calls == []

    def test_linear_non_entrywise_g_takes_the_callbacks(self):
        rng = np.random.default_rng(63)
        R = np.eye(6) + 0.5 * rng.standard_normal((6, 6))
        Z0 = rng.standard_normal((6, 2))
        P = ProblemSpec(
            manifold=geometry.Stiefel(6, 2), f_value=lambda X: 0.0, f_egrad=None, f_ehess=None,
            g_value=lambda X: R @ X - Z0, g_jvp=lambda X, xi: R @ xi,
            g_vjp=lambda X, w: R.T @ w, gy_ehess=None, theta=L1Norm(1.0),
        )
        X = P.manifold.random_point(rng)
        y = rng.uniform(-1.0, 1.0, (6, 2))
        calls = []
        H = counted_ghess_operator(P, 2.0, X, y, calls)
        ref = callback_ghess_operator(P, 2.0, X, y)
        for seed in range(4):
            c = X.manifold.coords(X, geometry.random_tangent(X, 950 + seed))
            assert H(c).tobytes() == ref(c).tobytes()
        assert len(calls) == 8  # one g_jvp and one g_vjp per product

    def test_image_shape_other_than_ambient_takes_the_callbacks(self):
        # g(X) = B X - c maps St(6, 2) into 4 x 2 arrays; the pair is a RALM
        # solution of the problem
        rng = np.random.default_rng(74)
        B, c = rng.standard_normal((4, 6)), rng.standard_normal((4, 2))
        P = ProblemSpec(
            manifold=geometry.Stiefel(6, 2), f_value=lambda X: 0.0, f_egrad=None, f_ehess=None,
            g_value=lambda X: B @ X - c, g_jvp=lambda X, xi: B @ xi,
            g_vjp=lambda X, w: B.T @ w, gy_ehess=None, theta=L1Norm(1.0),
        )
        assert oracles.gradient_check(P, samples=5) <= 1e-9
        assert oracles.hessian_check(P, samples=5) <= 1e-8
        res = ralm_solve(P, RalmConfig(kkt_tol=1e-9, max_outer=60),
                         P.manifold.random_point(rng), np.zeros((4, 2)))
        assert res.converged and all(s.stopped for s in res.inner_stats)
        X, y = res.X, res.y
        H, ref = evaluate(P, 2.0, X, y).ghess_operator(), callback_ghess_operator(P, 2.0, X, y)
        for seed in range(4):
            v = X.manifold.coords(X, geometry.random_tangent(X, 970 + seed))
            assert H(v).tobytes() == ref(v).tobytes()
        got, want = (np.reshape(b, (len(b), 12)) for b in (critical_cone_basis(P, X, y),
                                                            reference_cone_basis(P, X, y)))
        assert 0 < len(got) == len(want) < 9  # a proper subspace of the 9-dim tangent space
        np.testing.assert_allclose(got.T @ got, want.T @ want, rtol=0, atol=1e-9)
        # g_jvp None would declare g's image the ambient shape, which it is not
        declared = dataclasses.replace(P, g_jvp=None)
        with pytest.raises(LagrangianError, match="shape"):
            evaluate(declared, 2.0, X, y).ghess_operator()
        with pytest.raises(CertifyError, match="shape"):
            critical_cone_basis(declared, X, y)

    def test_no_random_draws(self, monkeypatch, cm_pair, rmc_fixture):
        # a declared Dg is read, not probed: neither the envelope term nor the
        # critical cone draws a random number
        cases = envelope_route_cases() + hessian_cases()
        pairs = [cm_pair, (rmc_fixture.problem, rmc_fixture.X_bar, rmc_fixture.y_bar)]
        draws = count_calls(monkeypatch, np.random, "default_rng")
        for P, rho, X, y in cases:
            evaluate(P, rho, X, y).ghess_operator()
        for P, X, y in pairs:
            critical_cone_basis(P, X, y)
        assert draws == []


class TestSingleEvaluations:
    """The kept module-level functions read their field of one evaluation."""

    @pytest.mark.parametrize("rho", [1.0, 30.0])
    @pytest.mark.parametrize("pair", ["cm_pair", "rmc_fixture"])
    def test_bit_identical_to_the_evaluation(self, request, pair, rho):
        fx = request.getfixturevalue(pair)
        P, Xbar, ybar = fx if pair == "cm_pair" else (fx.problem, fx.X_bar, fx.y_bar)
        X = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 21))
        xi = geometry.random_tangent(X, 22)
        ev = evaluate(P, rho, X, ybar)
        assert auglag_value(P, rho, X, ybar) == ev.value
        assert np.array_equal(auglag_rgrad(P, rho, X, ybar), ev.rgrad)
        assert np.array_equal(auglag_dual_grad(P, rho, X, ybar), ev.dual_grad)
        assert np.array_equal(auglag_ghess_vec(P, rho, X, ybar, xi),
                              ambient_operator(X, ev.ghess_operator())(xi))


class TestDroppedQuantities:
    """A dropped quantity is recomputed on its next read with the same bits."""

    NAMES = ("value", "ytilde", "egrad", "rgrad", "grad_norm", "dual_grad")

    @pytest.mark.parametrize("pair", ["cm_pair", "rmc_fixture"])
    def test_reads_after_a_drop_repeat_their_bytes(self, request, pair):
        fx = request.getfixturevalue(pair)
        P, Xbar, ybar = fx if pair == "cm_pair" else (fx.problem, fx.X_bar, fx.y_bar)
        X = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 21))
        c = X.manifold.coords(X, geometry.random_tangent(X, 22))
        ev = evaluate(P, 10.0, X, ybar)

        def read(names):
            got = {name: np.asarray(getattr(ev, name)) for name in names}
            return dict(got, hvp=ev.ghess_operator()(c))

        first = read(self.NAMES)  # value first: one prox sets value and ytilde
        ev.drop("p", *self.NAMES)
        again = read(self.NAMES[::-1])  # ytilde before value
        for name, a in first.items():
            assert a.tobytes() == again[name].tobytes(), name
            assert name == "value" or again[name] is not a, name

    def test_a_callers_jacobian_is_not_written(self, rmc_fixture):
        fx = rmc_fixture
        ev = evaluate(fx.problem, 10.0, fx.X_bar, fx.y_bar)
        jac = fx.problem.theta.prox_jacobian(0.1, ev.p)
        mask = jac.mask.copy()
        ev.ghess_operator(jac)
        assert np.array_equal(jac.mask, mask)

    @pytest.mark.parametrize("pair", ["cm_pair", "rmc_fixture"])
    def test_the_envelope_argument_is_g_plus_y_over_rho_bytes(self, request, pair):
        # p sums y / rho + g(X) in the quotient's array; addition commutes
        fx = request.getfixturevalue(pair)
        P, Xbar, ybar = fx if pair == "cm_pair" else (fx.problem, fx.X_bar, fx.y_bar)
        X = geometry.retract(Xbar, 0.1 * geometry.random_tangent(Xbar, 23))
        signed = ybar.copy()
        signed.flat[::3] = -0.0
        for y in (ybar, signed, np.full(ybar.shape, -0.0)):
            for rho in (1.0, 3.0, 1e8):
                want = P.g_value(X.X) + y / rho
                assert evaluate(P, rho, X, y).p.tobytes() == want.tobytes()

    def test_a_subproblem_holds_no_array_but_y(self, rmc_fixture):
        sub = Subproblem(rmc_fixture.problem, 10.0, rmc_fixture.y_bar)
        arrays = [name for name, v in vars(sub).items() if isinstance(v, np.ndarray)]
        assert arrays == ["y"] and sub.y is rmc_fixture.y_bar

    def test_a_newton_preparation_frees_what_it_reads_last(self, rmc_fixture):
        # p, ytilde and egrad go with the operator built on its own Jacobian;
        # with a caller's Jacobian they stay, for the next element's operator
        fx = rmc_fixture
        ev = evaluate(fx.problem, 10.0, fx.X_bar, fx.y_bar)
        kept = {name: getattr(ev, name) for name in ("p", "ytilde", "egrad")}
        ev.ghess_operator(fx.problem.theta.prox_jacobian(0.1, ev.p))
        assert all(vars(ev)[name] is a for name, a in kept.items())
        ev.ghess_operator()
        assert not set(kept) & set(vars(ev))

    def test_the_gradient_norm_outlives_the_gradient(self, cm_pair):
        P, X, y = cm_pair
        ev = evaluate(P, 10.0, X, y)
        assert ev.grad_norm == float(np.linalg.norm(ev.rgrad))
        ev.drop("rgrad")
        assert "grad_norm" in vars(ev) and "rgrad" not in vars(ev)

    def test_a_fixed_rank_x_is_formed_for_the_value_and_for_the_hessian(self, rmc_fixture,
                                                                        monkeypatch):
        # p and value share one X, which egrad reads last and frees; the
        # Newton preparation forms it once more and keeps none
        form, calls = geometry.ManifoldPoint.X.fget, []
        monkeypatch.setattr(geometry.ManifoldPoint, "X",
                            property(lambda point: calls.append(1) or form(point)))
        fx = rmc_fixture
        ev = evaluate(fx.problem, 10.0, fx.X_bar, fx.y_bar)
        ev.value
        assert len(calls) == 1 and "dense" in vars(ev)
        ev.rgrad, ev.dual_grad
        assert len(calls) == 1 and "dense" not in vars(ev)
        ev.ghess_operator()
        assert len(calls) == 2 and "dense" not in vars(ev)

    def test_only_kept_quantities_are_dropped(self, cm_pair):
        P, X, y = cm_pair
        with pytest.raises(AttributeError, match="'q' is not a kept quantity"):
            evaluate(P, 1.0, X, y).drop("q")


def dual_step(P, rho, X, y, rho_tilde):
    """The dual ascent step of ``ralm_solve``: ``y + rho_tilde * dual_grad``."""
    return y + rho_tilde * evaluate(P, rho, X, y).dual_grad


class TestMultiplierUpdate:
    def test_scalar_soft_threshold_arithmetic(self):
        # mu=1, rho=rho_tilde=1, y=0, g=2: the envelope gradient at 2 is 1
        P = euclidean_l1_problem()
        X = P.manifold.point(np.array([[2.0]]))
        y1 = dual_step(P, 1.0, X, np.zeros((1, 1)), 1.0)
        assert abs(y1[0, 0] - 1.0) <= 1e-14

    def test_zero_fixed_point(self):
        P = euclidean_l1_problem()
        X = P.manifold.point(np.zeros((1, 1)))
        y1 = dual_step(P, 2.0, X, np.zeros((1, 1)), 2.0)
        assert np.all(y1 == 0.0)

    def test_fixed_point_at_analytic_pair(self, cm_pair):
        P, Xbar, ybar = cm_pair
        for rho, rho_tilde in ((1.0, 1.0), (10.0, 10.0), (10.0, 3.0), (100.0, 50.0)):
            y1 = dual_step(P, rho, Xbar, ybar, rho_tilde)
            assert np.max(np.abs(y1 - ybar)) <= 1e-12

    def test_full_step_stays_in_box(self):
        P = euclidean_l1_problem(shape=(2, 2), mu=0.6)
        rng = np.random.default_rng(7)
        for _ in range(100):
            X = P.manifold.point(rng.uniform(-4, 4, (2, 2)))
            y = rng.uniform(-0.6, 0.6, (2, 2))
            rho = float(rng.uniform(0.5, 10.0))
            y1 = dual_step(P, rho, X, y, rho)
            assert np.max(np.abs(y1)) <= 0.6 + 1e-14


class TestKktResidual:
    def test_zero_at_cm_pair(self, cm_pair):
        P, Xbar, ybar = cm_pair
        assert kkt_residual(P, Xbar, ybar) <= 1e-10

    def test_zero_at_rmc_pair(self, rmc_fixture):
        fx = rmc_fixture
        assert kkt_residual(fx.problem, fx.X_bar, fx.y_bar) <= 1e-10

    def test_single_entry_perturbation(self, cm_pair):
        P, Xbar, ybar = cm_pair
        mu = P.theta.mu
        y = ybar.copy()
        y[2, 0] += 2 * mu
        # direct evaluation: the prox part alone contributes at least mu
        g = P.g_value(Xbar.X)
        prox_part = np.linalg.norm(g - P.theta.prox(1.0, g + y))
        assert prox_part >= mu - 1e-12
        assert kkt_residual(P, Xbar, y) >= mu - 1e-12

    def test_rho_independent_stationarity(self, cm_pair):
        P, Xbar, ybar = cm_pair
        assert kkt_residual(P, Xbar, ybar) <= 1e-12
        for rho in (0.5, 1.0, 10.0, 100.0):
            assert np.linalg.norm(evaluate(P, rho, Xbar, ybar).rgrad) <= 1e-10
            y1 = dual_step(P, rho, Xbar, ybar, rho)
            assert np.max(np.abs(y1 - ybar)) <= 1e-12


class TestStructure:
    def test_concave_in_y_midpoint(self, cm_pair):
        P, Xbar, _ = cm_pair
        rng = np.random.default_rng(8)
        for _ in range(50):
            y1 = rng.uniform(-1, 1, (4, 2))
            y2 = rng.uniform(-1, 1, (4, 2))
            rho = float(rng.uniform(0.3, 5.0))
            mid = evaluate(P, rho, Xbar, 0.5 * (y1 + y2)).value
            avg = 0.5 * (evaluate(P, rho, Xbar, y1).value + evaluate(P, rho, Xbar, y2).value)
            assert mid >= avg - 1e-10

    def test_envelope_telescoping(self, cm_pair):
        P, Xbar, ybar = cm_pair
        for rho in (0.5, 2.0, 30.0):
            p = P.g_value(Xbar.X) + ybar / rho
            expect = P.f_value(Xbar.X) + P.theta.envelope(rho, p)[0] - np.sum(ybar ** 2) / (2 * rho)
            assert evaluate(P, rho, Xbar, ybar).value == expect

    def test_lagrangian_gradient_at_pair(self, cm_pair):
        P, Xbar, ybar = cm_pair
        grad = Xbar.manifold.project(Xbar, P.f_egrad(Xbar.X) + P.g_vjp(Xbar.X, ybar))
        assert np.linalg.norm(grad) <= 1e-12
