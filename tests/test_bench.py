import dataclasses
import math

import numpy as np
import pytest

from conftest import counted_ghess_operator
from ralmkit import bench, geometry, lagrangian, oracles
from ralmkit.bench import (
    BenchError,
    ParseError,
    build_cm,
    build_rmc,
    cm_hamiltonian,
    load_coordinate,
    load_dense,
    load_log,
    save_log,
)
from ralmkit.ralm import IterateRecord


class TestHamiltonian:
    def test_four_node_integers(self):
        H = cm_hamiltonian(4, 2.0)
        expect = np.array(
            [[4.0, -2.0, 0.0, -2.0],
             [-2.0, 4.0, -2.0, 0.0],
             [0.0, -2.0, 4.0, -2.0],
             [-2.0, 0.0, -2.0, 4.0]]
        )
        np.testing.assert_array_equal(H, expect)

    def test_constant_vector_in_kernel(self):
        for n in (3, 4, 7, 16):
            H = cm_hamiltonian(n, 5.0)
            assert np.max(np.abs(H @ np.ones(n))) <= 1e-12

    def test_symmetric_psd(self):
        H = cm_hamiltonian(9, 3.0)
        np.testing.assert_allclose(H, H.T, atol=0)
        assert np.linalg.eigvalsh(H)[0] >= -1e-12

    def test_eigenvalues_circulant(self):
        # (1 - cos(2 pi k / n)) / h^2, cross-checked by a dense eigensolve
        n, length = 4, 2.0
        h = length / n
        H = cm_hamiltonian(n, length)
        dense = np.sort(np.linalg.eigvalsh(H))
        formula = np.sort([(1 - math.cos(2 * math.pi * k / n)) / h ** 2 for k in range(n)])
        np.testing.assert_allclose(dense, formula, atol=1e-12)
        np.testing.assert_allclose(dense, [0.0, 4.0, 4.0, 8.0], atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(BenchError):
            cm_hamiltonian(2, 1.0)
        with pytest.raises(BenchError):
            build_cm(4, 5, 1.0, 1.0)
        with pytest.raises(BenchError):
            build_cm(4, 2, -1.0, 1.0)

    @pytest.mark.parametrize("mu, length", [(math.nan, 2.0), (math.inf, 2.0), (0.8, math.nan),
                                            (0.8, math.inf)])
    def test_non_finite_parameters(self, mu, length):
        with pytest.raises(BenchError):
            build_cm(4, 2, mu, length)


class TestStencil:
    @pytest.mark.parametrize("n", [3, 4, 7, 200])
    @pytest.mark.parametrize("length", [2.0, 3.0, 50.0])
    def test_matches_dense_hamiltonian(self, n, length):
        # Bit-for-bit agreement with a dense BLAS product depends on the BLAS
        # build (FMA), so this compares to rounding only.
        H = cm_hamiltonian(n, length)
        r = min(n, 3)
        P = build_cm(n, r, 0.3, length)
        rng = np.random.default_rng(n)

        def rel(got, ref):
            return np.linalg.norm(got - ref) / np.linalg.norm(ref)

        for _ in range(3):
            X = P.manifold.random_point(rng).X
            xi = rng.standard_normal((n, r))
            assert rel(P.f_value(X), np.sum(X * (H @ X))) <= 1e-13
            assert rel(P.f_egrad(X), 2.0 * (H @ X)) <= 1e-13
            assert rel(P.f_ehess(X, xi), 2.0 * (H @ xi)) <= 1e-13

    def test_layout_independent_and_fresh(self):
        P = build_cm(200, 5, 0.3, 50.0)
        rng = np.random.default_rng(3)
        X = P.manifold.random_point(rng).X
        strided = rng.standard_normal((200, 10))[:, ::2]
        layouts = [np.ascontiguousarray(strided), np.asfortranarray(strided), strided]
        before = [a.copy() for a in layouts]
        outs = [P.f_ehess(X, a) for a in layouts]
        for a, b, out in zip(layouts, before, outs):
            assert np.array_equal(a, b)
            assert np.array_equal(out, outs[0])
        # Consecutive results are distinct arrays: the gather buffer never leaks.
        kept = outs[0].copy()
        assert not np.shares_memory(outs[0], P.f_ehess(X, 2.0 * strided))
        assert np.array_equal(outs[0], kept)

    def test_builds_no_dense_matrix(self, monkeypatch):
        def refuse(n, length):
            raise AssertionError("build_cm built the dense n x n Hamiltonian")

        monkeypatch.setattr(bench, "cm_hamiltonian", refuse)
        P = build_cm(200, 5, 0.3, 50.0)
        X = P.manifold.random_point(np.random.default_rng(0)).X
        assert P.f_value(X) > 0.0
        assert P.f_egrad(X).shape == P.f_ehess(X, X).shape == (200, 5)


class TestBuilders:
    def test_cm_derivative_checks(self):
        P = build_cm(7, 3, 0.4, 3.0)
        assert oracles.gradient_check(P, samples=5, seed=0) <= 1e-6

    def test_checks_need_a_sample(self):
        P = build_cm(7, 3, 0.4, 3.0)
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples"):
                oracles.gradient_check(P, samples=samples)
            with pytest.raises(ValueError, match="samples"):
                oracles.hessian_check(P, samples=samples)

    def test_unsampleable_problem_raises_oracle_error(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_TRIES", 0)
        P = build_cm(4, 2, 0.8, 2.0)
        for check in (oracles.gradient_check, oracles.hessian_check):
            with pytest.raises(oracles.OracleError, match="kink-free"):
                check(P, samples=1)

    def test_rmc_derivative_checks(self, rmc_fixture):
        assert oracles.gradient_check(rmc_fixture.problem, samples=5, seed=1) <= 1e-6

    def test_nan_derivatives_fail_the_checks(self):
        # max(worst, nan) keeps worst, so a NaN sample must end the check
        P = build_cm(4, 2, 0.8, 2.0)
        nan_grad = dataclasses.replace(P, f_egrad=lambda X: np.full_like(X, np.nan))
        nan_hess = dataclasses.replace(P, f_ehess=lambda X, xi: np.full_like(xi, np.nan))
        assert oracles.gradient_check(nan_grad, samples=3) == math.inf
        assert oracles.hessian_check(nan_hess, samples=3) == math.inf

    def test_rmc_requires_observations(self):
        with pytest.raises(BenchError):
            build_rmc(np.eye(3), np.zeros((3, 3), dtype=bool), 1)

    def test_rmc_mask_of_another_shape(self):
        with pytest.raises(BenchError, match=r"mask shape \(3, 2\) does not match data \(3, 3\)"):
            build_rmc(np.eye(3), np.ones((3, 2), dtype=bool), 1)

    @pytest.mark.parametrize("r", [0, 4])
    def test_rmc_rank_out_of_range(self, r):
        with pytest.raises(BenchError, match=r"need 1 <= r <= min\(m, n\)"):
            build_rmc(np.eye(3), np.ones((3, 3), dtype=bool), r)

    def test_rmc_random_data_is_a_low_rank_truth_plus_outliers(self):
        L, A = bench.rmc_random_data(12, 9, 3, 0.2, 0.5, 4)
        s = np.linalg.svd(L, compute_uv=False)
        assert np.all((1.0 <= s[:3]) & (s[:3] <= 3.0)) and s[3] <= 1e-14
        np.testing.assert_array_equal(A, L + bench.rmc_random_outliers(12, 9, 0.2, 0.5, 5))

    def test_rmc_partial_mask_adjoint(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 6))
        omega = rng.uniform(size=(4, 6)) < 0.5
        omega[0, 0] = True
        P = build_rmc(A, omega, 2)
        w = rng.standard_normal((4, 6))
        # Dg is the observation mask, declared entrywise: g_vjp is both maps
        assert P.g_jvp is None
        assert np.array_equal(P.g_vjp(A, w), omega * w)

    @pytest.mark.parametrize("builder", ["cm", "rmc-full", "rmc-partial"])
    def test_benchmark_problems_take_the_weight_route(self, builder):
        # a builder that gave g_jvp would move its benchmark onto the
        # slower callback route of the envelope term
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 8))
        P = {"cm": lambda: build_cm(8, 3, 0.3, 3.0),
             "rmc-full": lambda: build_rmc(A, np.ones(A.shape, dtype=bool), 2),
             "rmc-partial": lambda: build_rmc(A, rng.uniform(size=A.shape) < 0.5, 2)}[builder]()
        assert P.g_jvp is None
        calls = []
        X = P.manifold.random_point(rng)
        H = counted_ghess_operator(P, 2.0, X, rng.uniform(-1.0, 1.0, X.X.shape), calls)
        for seed in range(3):
            H(X.manifold.coords(X, geometry.random_tangent(X, seed)))
        assert calls == []

    def test_rmc_fixture_outliers(self, rmc_fixture):
        fx = rmc_fixture
        block = fx.E_out[3:, 3:]
        assert np.all(np.abs(block) <= 0.5)
        assert np.all(np.abs(block) >= 0.1)
        assert np.all(fx.E_out[:3, :] == 0.0) and np.all(fx.E_out[:, :3] == 0.0)
        np.testing.assert_array_equal(fx.A, fx.A_exact + fx.E_out)

    def test_rmc_fixture_is_kkt_pair(self, rmc_fixture):
        fx = rmc_fixture
        assert lagrangian.kkt_residual(fx.problem, fx.X_bar, fx.y_bar) <= 1e-10

    def test_rmc_fixture_zero_outliers_plain_truth(self):
        # with no outliers, the truth with the zero multiplier is stationary
        fx = bench.rmc_toy_fixture()
        P0 = build_rmc(fx.A_exact, np.ones((5, 5), dtype=bool), 3)
        X = P0.manifold.point_from_ambient(fx.A_exact)
        assert lagrangian.kkt_residual(P0, X, np.zeros((5, 5))) <= 1e-12

    def test_outlier_generator(self):
        E = bench.rmc_random_outliers(20, 30, 0.1, 2.0, seed=4)
        vals = E[E != 0]
        assert np.all(np.isin(vals, [-2.0, 2.0]))
        assert 0 < len(vals) < 0.3 * 600

    def test_cm_initial_point_deterministic(self):
        X1 = bench.cm_initial_point(10, 3, seed=5)
        X2 = bench.cm_initial_point(10, 3, seed=5)
        np.testing.assert_array_equal(X1.X, X2.X)
        X1.manifold.check_point(X1)

    def test_cm_initial_point_draw(self):
        # the Q factor of a seeded Gaussian draw: the start points of the
        # acceptance runs and of the benchmark depend on these bits
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((200, 5)))
        assert bench.cm_initial_point(200, 5, seed=3).X.tobytes() == Q.tobytes()

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf])
    def test_rmc_outliers_non_finite_magnitude(self, magnitude):
        with pytest.raises(BenchError):
            bench.rmc_random_outliers(3, 3, 0.5, magnitude, 0)


class TestFileFormats:
    def test_csv_identity(self, tmp_path):
        path = str(tmp_path / "eye.csv")
        with open(path, "w") as fh:
            fh.write("1,0\n0,1\n")
        np.testing.assert_array_equal(load_dense(path), np.eye(2))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((5, 7)) * np.exp(rng.uniform(-12, 12, (5, 7)))
        path = str(tmp_path / "m.csv")
        np.savetxt(path, M, delimiter=",", fmt="%.17g")
        back = load_dense(path)
        np.testing.assert_allclose(back, M, rtol=1e-15, atol=0)

    def test_csv_ragged_row_names_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dense(path)

    def test_csv_non_numeric_names_line(self, tmp_path):
        path = str(tmp_path / "bad2.csv")
        with open(path, "w") as fh:
            fh.write("1,2\nx,4\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dense(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_csv_non_finite_names_line(self, tmp_path, value):
        path = str(tmp_path / "nan.csv")
        with open(path, "w") as fh:
            fh.write(f"1,2\n3,{value}\n")
        with pytest.raises(ParseError, match="line 2: non-finite value"):
            load_dense(path)

    def test_coordinate_file(self, tmp_path):
        path = str(tmp_path / "obs.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write("% comment\n")
            fh.write("3 4 3\n")
            fh.write("1 1 2.5\n2 3 -1\n3 4 0.125\n")
        M, mask = load_coordinate(path)
        assert M.shape == (3, 4)
        assert mask.sum() == 3
        assert M[0, 0] == 2.5 and M[1, 2] == -1.0 and M[2, 3] == 0.125
        assert np.count_nonzero(M) == 3

    def test_coordinate_banner_keywords_are_case_insensitive(self, tmp_path):
        body = "3 4 2\n1 1 2.5\n3 4 0.125\n"
        lower, mixed = tmp_path / "lower.mtx", tmp_path / "mixed.mtx"
        lower.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        mixed.write_text("%%MatrixMarket Matrix Coordinate Real General\n" + body)
        for got, want in zip(load_coordinate(str(mixed)), load_coordinate(str(lower))):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("symmetry", ["symmetric", "Symmetric", "skew-symmetric",
                                          "hermitian", ""])
    def test_coordinate_rejects_non_general_symmetry(self, tmp_path, symmetry):
        path = str(tmp_path / "sym.mtx")
        with open(path, "w") as fh:
            fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n3 3 2\n1 1 1.0\n3 1 2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_coordinate(path)

    def test_coordinate_count_mismatch(self, tmp_path):
        path = str(tmp_path / "bad.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(ParseError, match="promised"):
            load_coordinate(path)

    def test_coordinate_out_of_range(self, tmp_path):
        path = str(tmp_path / "oob.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n")
        with pytest.raises(ParseError, match="out of range"):
            load_coordinate(path)

    def test_coordinate_negative_size(self, tmp_path):
        path = str(tmp_path / "neg.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n% c\n-2 3 0\n")
        with pytest.raises(ParseError, match="line 3: negative matrix size"):
            load_coordinate(path)

    @pytest.mark.parametrize("text, message", [
        ("%%MatrixMarket matrix coordinate real general\n% only comments\n",
         "missing size line"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n",
         "line 2: malformed size line"),
        ("%%MatrixMarket matrix coordinate real general\n2 x 1\n1 1 1.0\n",
         "line 2: malformed size line"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
         "line 3: expected 'i j value'"),
    ], ids=["no size line", "two-token size line", "non-integer size", "two-token entry"])
    def test_coordinate_malformed_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_coordinate(str(path))

    def test_coordinate_repeated_entry(self, tmp_path):
        # scipy.io.mmread would sum the two values; a completion mask has one
        # observation per entry, so the file is rejected
        path = str(tmp_path / "dup.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 3.0\n1 2 5.0\n")
        with pytest.raises(ParseError, match=r"line 4: entry \(1,2\) listed twice"):
            load_coordinate(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_coordinate_non_finite_value(self, tmp_path, value):
        path = str(tmp_path / "nan.mtx")
        with open(path, "w") as fh:
            fh.write(f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {value}\n")
        with pytest.raises(ParseError, match="line 4: non-finite value"):
            load_coordinate(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_log_non_finite_cell(self, tmp_path, value):
        path = str(tmp_path / "log.csv")
        save_log(path, [IterateRecord(0, 1.0, 1.0, 0, 0.5, 1.25, 0.0, -3.5)])
        with open(path, "a") as fh:
            fh.write(f"1,4,4,7,1e-07,{value},0.125,-3.75\n")
        with pytest.raises(ParseError, match="line 3: non-finite value"):
            load_log(path)

    def test_log_round_trip(self, tmp_path):
        records = [
            IterateRecord(0, 1.0, 1.0, 0, 0.5, 1.25, 0.0, -3.5),
            IterateRecord(1, 4.0, 4.0, 7, 1e-7, 2.5e-9, 0.125, -3.75),
        ]
        path = str(tmp_path / "log.csv")
        save_log(path, records)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "k,rho,rho_tilde,inner_iters,grad_norm,kkt_residual,dual_step_norm,auglag"
        back = load_log(path)
        assert back == records

    def test_log_wrong_header(self, tmp_path):
        path = str(tmp_path / "log.csv")
        save_log(path, [IterateRecord(0, 1.0, 1.0, 0, 0.5, 1.25, 0.0, -3.5)])
        with open(path) as fh:
            lines = fh.readlines()
        lines[0] = lines[0].replace("auglag", "objective")
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ParseError, match="unexpected log header"):
            load_log(path)

    @pytest.mark.parametrize("row", ["1,4,4,7,1e-07,0.5,0.125",
                                     "1,4,4,7,1e-07,0.5,0.125,-3.75,0"])
    def test_log_wrong_column_count(self, tmp_path, row):
        path = str(tmp_path / "log.csv")
        save_log(path, [IterateRecord(0, 1.0, 1.0, 0, 0.5, 1.25, 0.0, -3.5)])
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ParseError, match="line 3: wrong number of columns"):
            load_log(path)

    def test_atomic_write_failure_keeps_target(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(bench.os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace refused"):
            bench.atomic_write(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []
