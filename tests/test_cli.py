import dataclasses
import importlib.metadata
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ralmkit import bench, lagrangian
from ralmkit.cli import (
    EXIT_ERROR, EXIT_MAXITER, EXIT_OK, build_problem, build_solver_config, load_config, main,
)
from ralmkit.ralm import IterateRecord, ralm_solve


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "cm", "n": 4, "r": 2, "mu": 0.8, "len": 2.0},
        "solver": {
            "rho0": 1.0,
            "gamma": 4.0,
            "criterion": "b",
            "kkt_tol": 1e-8,
            "max_outer": 50,
        },
        "output": {"log": str(tmp_path / "run.csv"), "seed": 0},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's ``perfbench/workloads.py``, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def parse_report(text):
    """The CLI's JSON report, parsed strictly: a NaN or Infinity token fails."""
    def reject(token):
        raise ValueError(f"non-finite token {token} in the CLI report")

    return json.loads(text, parse_constant=reject)


def check_help(out):
    """`ralmkit --help` exits 0 and lists `solve` among the sub-commands."""
    assert out.returncode == 0, out.stderr
    assert "solve" in out.stdout
    assert out.stdout.startswith("usage: ralmkit")
    commands = re.search(r"\{([^}]*)\}", out.stdout.splitlines()[0])
    assert commands is not None and "solve" in commands.group(1).split(",")


class TestSolve:
    def test_cm_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["solve", "--config", cfg])
        assert code == EXIT_OK
        out = parse_report(capsys.readouterr().out)
        assert out["converged"]
        records = bench.load_log(str(tmp_path / "run.csv"))
        assert records[-1].kkt_residual <= 1e-7

    def test_summary_reports_inner_work(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg]) == EXIT_OK
        out = parse_report(capsys.readouterr().out)
        records = bench.load_log(str(tmp_path / "run.csv"))
        assert out["outer_iterations"] == records[-1].k == len(records) - 1
        assert out["newton_steps"] == sum(rec.inner_iters for rec in records) > 0
        config = load_config(cfg)
        P, X0, y0 = build_problem(config, None)
        stats = ralm_solve(P, build_solver_config(config), X0, y0).inner_stats
        assert out["cg_iterations"] == sum(st.cg_iterations for st in stats) > 0
        assert out["line_search_failures"] == sum(st.line_search_failed for st in stats) == 0
        assert out["noise_floor_exits"] == sum(st.stop_reason == "noise_floor" for st in stats)
        assert out["rounding_accepts"] == sum(st.rounding_accepts for st in stats)
        assert all(type(out[key]) is int for key in
                   ("newton_steps", "cg_iterations", "line_search_failures", "noise_floor_exits",
                    "rounding_accepts"))

    @pytest.mark.parametrize("env, threads", [
        ({"OPENBLAS_NUM_THREADS": "3", "GOTO_NUM_THREADS": "5", "OMP_NUM_THREADS": "2"}, 3),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "5", "OMP_NUM_THREADS": "2"}, 5),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": " 4 "}, 4),
        ({"OPENBLAS_NUM_THREADS": "16"}, 8),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "\u00b2"}, 8),
        ({}, 8),
    ], ids=["openblas", "goto", "omp", "omp-spaces", "capped", "not-a-count", "unset"])
    def test_summary_says_how_it_ran(self, tmp_path, capsys, monkeypatch, env, threads):
        # OpenBLAS takes the first positive count, else one thread per CPU it
        # may run on (8 here); the log does not depend on it
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg]) == EXIT_OK
        plain = (tmp_path / "run.csv").read_bytes()
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        capsys.readouterr()
        assert main(["solve", "--config", cfg]) == EXIT_OK
        out = parse_report(capsys.readouterr().out)
        assert out["blas_threads"] == threads
        assert type(out["wall_seconds"]) is float and out["wall_seconds"] > 0
        assert (tmp_path / "run.csv").read_bytes() == plain

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["solve", "--config", cfg])
        first = (tmp_path / "run.csv").read_bytes()
        main(["solve", "--config", cfg])
        assert (tmp_path / "run.csv").read_bytes() == first

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["solve", "--config", cfg])
        first = (tmp_path / "run.csv").read_bytes()
        main(["solve", "--config", cfg, "--seed", "1"])
        assert (tmp_path / "run.csv").read_bytes() != first

    def test_zero_outer_budget(self, tmp_path):
        cfg = write_config(tmp_path, solver={"max_outer": 0})
        code = main(["solve", "--config", cfg])
        assert code == EXIT_MAXITER
        records = bench.load_log(str(tmp_path / "run.csv"))
        assert len(records) == 1 and records[0].k == 0

    def test_missing_problem_block(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"schema_version": 1, "solver": {}}))
        code = main(["solve", "--config", str(path)])
        assert code == EXIT_ERROR
        assert "problem" in capsys.readouterr().err

    def test_bad_solver_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"gamma": 0.0})
        code = main(["solve", "--config", cfg])
        assert code == EXIT_ERROR
        assert "solver" in capsys.readouterr().err

    def test_svg_plot_written(self, tmp_path):
        plot = tmp_path / "run.svg"
        cfg = write_config(tmp_path, output={"log": str(tmp_path / "run.csv"),
                                             "plot": str(plot), "seed": 0})
        assert main(["solve", "--config", cfg]) == EXIT_OK
        svg = plot.read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_rmc_from_coordinate_file(self, tmp_path, rmc_fixture):
        fx = rmc_fixture
        data = tmp_path / "obs.mtx"
        rows = []
        m, n = fx.A.shape
        entries = [(i + 1, j + 1, fx.A[i, j]) for i in range(m) for j in range(n)]
        rows.append("%%MatrixMarket matrix coordinate real general")
        rows.append(f"{m} {n} {len(entries)}")
        rows += [f"{i} {j} {v:.17g}" for i, j, v in entries]
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path,
            problem={"kind": "rmc", "data": str(data), "r": 3},
            solver={"rho0": 1.0, "gamma": 4.0, "criterion": "b",
                    "kkt_tol": 1e-8, "max_outer": 60},
        )
        code = main(["solve", "--config", cfg])
        assert code == EXIT_OK
        records = bench.load_log(str(tmp_path / "run.csv"))
        assert records[-1].kkt_residual <= 1e-7

    @pytest.mark.parametrize("m, n, r, seed", [(200, 300, 5, 0), (200, 300, 5, 1),
                                               (200, 300, 5, 2), (60, 80, 3, 0)])
    def test_rmc_generator_draws_the_benchmark_data(self, workloads, m, n, r, seed):
        # the benchmark's completion workload copies the generator's draws
        cfg = {"problem": {"kind": "rmc", "m": m, "n": n, "r": r,
                           "density": workloads.RMC_DENSITY, "magnitude": workloads.RMC_MAGNITUDE}}
        P, _, _ = build_problem(cfg, seed)
        _, A = workloads.rmc_data(m, n, r, seed)
        np.testing.assert_array_equal(-P.g_value(np.zeros((m, n))), A)


def assert_positive_count(value):
    assert isinstance(value, int) and not isinstance(value, bool) and value > 0, value


class TestCertify:
    def _dump_pair(self, tmp_path, X, y):
        bench.save_dense(str(tmp_path / "point.csv"), X)
        bench.save_dense(str(tmp_path / "mult.csv"), y)
        return str(tmp_path / "point.csv"), str(tmp_path / "mult.csv")

    def test_cm_pair_report(self, tmp_path, capsys, cm_pair):
        P, Xbar, ybar = cm_pair
        cfg = write_config(tmp_path)
        point, mult = self._dump_pair(tmp_path, Xbar.X, ybar)
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert report["stationarity_residual"] <= 1e-10
        assert report["cone_dim"] == 2
        assert abs(report["mssosc_min_eig"] - (8.0 - 0.8 * math.sqrt(2))) <= 1e-8
        assert report["mssosc_verdict"] == "holds"
        assert report["genhess_min_eig"] > 0
        assert_positive_count(report["genhess_operator_applications"])

    def test_large_weight_fails_verdict(self, tmp_path, capsys):
        P, Xbar, ybar = bench.cm_analytic_pair(7.5)
        cfg = write_config(tmp_path, problem={"kind": "cm", "n": 4, "r": 2,
                                              "mu": 7.5, "len": 2.0})
        point, mult = self._dump_pair(tmp_path, Xbar.X, ybar)
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert report["mssosc_verdict"] == "fails"
        assert_positive_count(report["genhess_operator_applications"])

    def test_fixed_rank_pair_report(self, tmp_path, capsys, rmc_fixture):
        # the point is read through the FixedRank branch of the point loader
        fx = rmc_fixture
        data = tmp_path / "A.csv"
        bench.save_dense(str(data), fx.A)
        # mu overrides the cm default merged into the problem block; the
        # fixture's multiplier certifies the pair at mu = 1
        cfg = write_config(tmp_path, problem={"kind": "rmc", "data": str(data), "r": 3,
                                              "mu": 1.0})
        point, mult = self._dump_pair(tmp_path, fx.X_bar.X, fx.y_bar)
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert report["stationarity_residual"] <= 1e-10
        assert report["cone_dim"] == 0
        assert report["mssosc_min_eig"] is None
        assert report["mssosc_verdict"] == "holds-degenerate"
        assert report["rho"] == 10.0
        assert report["genhess_min_eig"] == pytest.approx(8.585786437626899, abs=1e-8)
        assert report["genhess_verdict"] == "holds"
        assert_positive_count(report["genhess_operator_applications"])

    @pytest.mark.parametrize("block", [{"rho": -3}, {"rho": 0}, {"stationarity_tol": -1e-6},
                                       {"stationarity_tol": math.nan},
                                       {"stationarity_tol": math.inf}],
                             ids=["negative-rho", "zero-rho", "negative-tol", "nan-tol", "inf-tol"])
    def test_bad_certify_block_rejected_at_a_non_stationary_pair(self, tmp_path, capsys, cm_pair,
                                                                 block):
        # a non-stationary pair skips the certificates, so only the config
        # check can reject the block
        P, Xbar, ybar = cm_pair
        cfg = write_config(tmp_path, certify=block)
        point, mult = self._dump_pair(tmp_path, Xbar.X, np.zeros_like(ybar))
        assert lagrangian.kkt_residual(P, Xbar, np.zeros_like(ybar)) > 1e-6
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: bad 'certify' block: ")

    def test_multiplier_shape_mismatch(self, tmp_path, capsys, cm_pair):
        P, Xbar, ybar = cm_pair
        cfg = write_config(tmp_path)
        point, mult = self._dump_pair(tmp_path, Xbar.X, ybar[:3])
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: multiplier shape (3, 2)") and "(4, 2)" in err

    def test_garbage_point_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        point, mult = self._dump_pair(tmp_path, np.ones((4, 2)), np.zeros((4, 2)))
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "orthonormal" in err

    @pytest.mark.parametrize("which", ["point", "multiplier"])
    def test_nan_in_pair_rejected(self, tmp_path, capsys, cm_pair, which):
        P, Xbar, ybar = cm_pair
        X, y = Xbar.X.copy(), ybar.copy()
        (X if which == "point" else y)[1, 0] = np.nan
        cfg = write_config(tmp_path)
        point, mult = self._dump_pair(tmp_path, X, y)
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "line 2: non-finite value 'nan'" in out.err

    def test_nonstationary_pair_reports_null_cone(self, tmp_path, capsys, cm_pair):
        P, Xbar, _ = cm_pair
        cfg = write_config(tmp_path)
        y = np.full((4, 2), 0.79)  # inside the box but not stationary
        point, mult = self._dump_pair(tmp_path, Xbar.X, y)
        code = main(["certify", "--config", cfg, "--point", point, "--multiplier", mult])
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert report["cone_dim"] is None
        assert report["genhess_operator_applications"] is None
        assert report["stationarity_residual"] > 1e-6


class TestRateAndGradcheck:
    def test_rate_synthetic_log(self, tmp_path, capsys):
        records = [
            IterateRecord(k, 1.0, 1.0, 1, 0.0, 0.5 ** k, 0.0, 0.0) for k in range(12)
        ]
        path = str(tmp_path / "log.csv")
        bench.save_log(path, records)
        code = main(["rate", "--log", path, "--tail", "0.5"])
        assert code == EXIT_OK
        out = parse_report(capsys.readouterr().out)
        assert out["rate"] == pytest.approx(0.5, abs=1e-9)
        assert out["fit_quality"] == pytest.approx(1.0, abs=1e-9)

    def test_rate_from_solve_log(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["solve", "--config", cfg])
        capsys.readouterr()
        code = main(["rate", "--log", str(tmp_path / "run.csv"), "--tail", "0.5"])
        assert code == EXIT_OK
        out = parse_report(capsys.readouterr().out)
        assert out["rate"] < 1.0
        assert out["fit_quality"] >= 0.9

    def test_rate_short_log(self, tmp_path, capsys):
        records = [IterateRecord(k, 1.0, 1.0, 1, 0.0, 0.5 ** k, 0.0, 0.0) for k in range(3)]
        path = str(tmp_path / "log.csv")
        bench.save_log(path, records)
        assert main(["rate", "--log", path]) == EXIT_ERROR

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rate_rejects_non_finite_residual(self, tmp_path, capsys, value):
        records = [IterateRecord(k, 1.0, 1.0, 1, 0.0, 0.5 ** k, 0.0, 0.0) for k in range(12)]
        path = tmp_path / "log.csv"
        bench.save_log(str(path), records)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(f",{0.5 ** 4!r},", f",{value},")
        path.write_text("\n".join(lines) + "\n")
        assert main(["rate", "--log", str(path)]) == EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {path}: line 6: non-finite value")

    @pytest.mark.parametrize("field", ["f_egrad", "f_ehess"])
    def test_gradcheck_fails_nan_derivatives(self, tmp_path, capsys, monkeypatch, field):
        build_cm = bench.build_cm

        def nan_cm(*args):
            return dataclasses.replace(build_cm(*args),
                                       **{field: lambda X, *xi: np.full_like(X, np.nan)})

        monkeypatch.setattr(bench, "build_cm", nan_cm)
        code = main(["gradcheck", "--config", write_config(tmp_path), "--samples", "2"])
        assert code == EXIT_ERROR
        out = parse_report(capsys.readouterr().out)
        key = "grad_max_rel_err" if field == "f_egrad" else "hess_max_rel_err"
        assert out[key] is None

    def test_gradcheck_cm(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["gradcheck", "--config", cfg, "--samples", "5"])
        assert code == EXIT_OK
        out = parse_report(capsys.readouterr().out)
        assert out["grad_max_rel_err"] <= 1e-5
        assert out["hess_max_rel_err"] <= 1e-3

    def test_gradcheck_rmc(self, tmp_path, capsys, rmc_fixture):
        fx = rmc_fixture
        data = tmp_path / "A.csv"
        bench.save_dense(str(data), fx.A)
        cfg = write_config(tmp_path, problem={"kind": "rmc", "data": str(data), "r": 3})
        code = main(["gradcheck", "--config", cfg, "--samples", "5"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_gradcheck_without_samples(self, tmp_path, capsys, samples):
        cfg = write_config(tmp_path)
        code = main(["gradcheck", "--config", cfg, "--samples", samples])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "samples" in captured.err

    def test_gradcheck_without_a_kink_free_sample(self, tmp_path, capsys, monkeypatch):
        from ralmkit import oracles

        monkeypatch.setattr(oracles, "MAX_TRIES", 0)
        code = main(["gradcheck", "--config", write_config(tmp_path), "--samples", "2"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: could not sample a kink-free configuration")

    @pytest.mark.parametrize("seed", [2, 5])
    def test_gradcheck_rmc_above_rounding_noise(self, tmp_path, capsys, seed):
        # A two-point gradient stencil at h = 1e-6 read 1.4e-5 (seed 2) and
        # 1.7e-5 (seed 5) here: rounding noise above the 1e-5 gate.
        cfg = write_config(
            tmp_path,
            problem={"kind": "rmc", "m": 200, "n": 300, "r": 5, "mu": 1.0,
                     "density": 0.05, "magnitude": 0.5},
            output={"seed": seed},
        )
        code = main(["gradcheck", "--config", cfg, "--samples", "3"])
        assert code == EXIT_OK
        assert parse_report(capsys.readouterr().out)["grad_max_rel_err"] <= 1e-6


MALFORMED_CONFIGS = {
    "non-numeric field": ("solve", {"problem": {"n": "abc"}}),
    "null field": ("solve", {"problem": {"mu": None}}),
    "non-numeric rmc rank": ("solve", {"problem": {"kind": "rmc", "m": 6, "n": 5, "r": "x",
                                                   "density": 0.1, "magnitude": 0.5}}),
    "missing data file": ("solve", {"problem": {"kind": "rmc", "data": "missing.csv", "r": 3}}),
    "non-string data path": ("solve", {"problem": {"kind": "rmc", "data": 5, "r": 3}}),
    "non-numeric seed": ("solve", {"output": {"seed": "x"}}),
    "output not an object": ("solve", {"output": [1]}),
    "solver not an object": ("solve", {"solver": [1]}),
    "non-numeric certify field": ("certify", {"certify": {"rho": "x"}}),
    "NaN certify rho": ("certify", {"certify": {"rho": math.nan}}),
    "infinite certify rho": ("certify", {"certify": {"rho": math.inf}}),
    "fractional max_outer": ("solve", {"solver": {"max_outer": 2.5}}),
    "null kkt_tol": ("solve", {"solver": {"kkt_tol": None}}),
    "fractional newton max_iter": ("solve", {"solver": {"newton": {"max_iter": 2.5}}}),
    "fractional newton cg_max_iter": ("solve", {"solver": {"newton": {"cg_max_iter": 3.5}}}),
    "non-numeric newton grad_tol": ("solve", {"solver": {"newton": {"grad_tol": "x"}}}),
    "removed newton eta": ("solve", {"solver": {"newton": {"eta": 0.1}}}),
    "zero rmc weight": ("solve", {"problem": {"kind": "rmc", "m": 10, "n": 12, "r": 2,
                                              "density": 0.1, "magnitude": 0.5, "mu": 0}}),
    "NaN kkt_tol": ("solve", {"solver": {"kkt_tol": math.nan}}),
    "infinite rho_max": ("solve", {"solver": {"rho_max": math.inf, "gamma": math.inf}}),
    "NaN newton grad_tol": ("solve", {"solver": {"newton": {"grad_tol": math.nan}}}),
}

# Fields of the wrong JSON type or non-finite, each with the block and field
# its error names.  Every field goes through one conversion: ints are
# integers, numbers finite, paths strings, and a bool is none of them.
ILL_TYPED_FIELDS = {
    "fractional n": ("solve", {"problem": {"n": 4.9}}, "problem", "n"),
    "string n": ("solve", {"problem": {"n": "4"}}, "problem", "n"),
    "boolean r": ("solve", {"problem": {"r": True}}, "problem", "r"),
    "string mu": ("solve", {"problem": {"mu": "0.8"}}, "problem", "mu"),
    "NaN mu": ("solve", {"problem": {"mu": math.nan}}, "problem", "mu"),
    "NaN mu at certify": ("certify", {"problem": {"mu": math.nan}}, "problem", "mu"),
    "NaN len at certify": ("certify", {"problem": {"len": math.nan}}, "problem", "len"),
    "NaN rmc magnitude": ("solve", {"problem": {"kind": "rmc", "m": 6, "n": 5, "r": 2,
                                                "density": 0.1, "magnitude": math.nan}},
                          "problem", "magnitude"),
    "non-string log": ("solve", {"output": {"log": 5}}, "output", "log"),
    "non-string plot": ("solve", {"output": {"plot": 7}}, "output", "plot"),
    "string solver float": ("solve", {"solver": {"rho0": "1.0"}}, "solver", "rho0"),
    "boolean schema_version": ("solve", {"schema_version": True}, "config", "schema_version"),
}
MALFORMED_CONFIGS.update({key: case[:2] for key, case in ILL_TYPED_FIELDS.items()})

# Generated rmc problems whose rank does not fit their size: rejected before
# the draws, which would fail on them.
RMC_BAD_SIZES = {
    "rmc rank above m": {"m": 2, "n": 30, "r": 3},
    "negative rmc m": {"m": -3, "n": 4, "r": 2},
    "zero rmc m": {"m": 0, "n": 4, "r": 1},
}
MALFORMED_CONFIGS.update({
    key: ("solve", {"problem": {"kind": "rmc", "density": 0.05, "magnitude": 0.5, **size}})
    for key, size in RMC_BAD_SIZES.items()})


def malformed_argv(tmp_path, command, overrides):
    """``command``'s argv for a config with ``overrides``, at the CM-4 pair
    for ``certify``."""
    argv = [command, "--config", write_config(tmp_path, **overrides)]
    if command == "certify":
        _, Xbar, ybar = bench.cm_analytic_pair()
        point, mult = str(tmp_path / "point.csv"), str(tmp_path / "mult.csv")
        bench.save_dense(point, Xbar.X)
        bench.save_dense(mult, ybar)
        argv += ["--point", point, "--multiplier", mult]
    return argv


class TestRobustness:
    @pytest.mark.parametrize("command, overrides", MALFORMED_CONFIGS.values(),
                             ids=MALFORMED_CONFIGS.keys())
    def test_malformed_config_exits_with_error(self, tmp_path, capsys, command, overrides):
        assert main(malformed_argv(tmp_path, command, overrides)) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, overrides, block, key", ILL_TYPED_FIELDS.values(),
                             ids=ILL_TYPED_FIELDS.keys())
    def test_ill_typed_field_is_named(self, tmp_path, capsys, command, overrides, block, key):
        assert main(malformed_argv(tmp_path, command, overrides)) == EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: bad '{block}' block: field '{key}': ")

    @pytest.mark.parametrize("command", ["solve", "gradcheck"])
    @pytest.mark.parametrize("size", RMC_BAD_SIZES.values(), ids=RMC_BAD_SIZES.keys())
    def test_rmc_rank_that_does_not_fit_is_named(self, tmp_path, capsys, command, size):
        problem = {"kind": "rmc", "density": 0.05, "magnitude": 0.5, **size}
        assert main(malformed_argv(tmp_path, command, {"problem": problem})) == EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: bad 'problem' block: need 1 <= r <= min(m, n)")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["solve", "certify", "gradcheck"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, source):
        if source == "flag":
            argv = malformed_argv(tmp_path, command, {}) + ["--seed", "-2"]
        else:
            argv = malformed_argv(tmp_path, command, {"output": {"seed": -1}})
        assert main(argv) == EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: seed must be nonnegative, got -")

    def test_negative_size_in_coordinate_file(self, tmp_path, capsys):
        data = tmp_path / "neg.mtx"
        data.write_text("%%MatrixMarket matrix coordinate real general\n-2 3 0\n")
        cfg = write_config(tmp_path, problem={"kind": "rmc", "data": str(data), "r": 1})
        assert main(["solve", "--config", cfg]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {data}: line 2: negative matrix size")

    def test_log_level_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RALMKIT_LOG_LEVEL", "debug")
        cfg = write_config(tmp_path, solver={"max_outer": 1})
        code = main(["solve", "--config", cfg])
        assert code in (EXIT_OK, EXIT_MAXITER)
        monkeypatch.setenv("RALMKIT_LOG_LEVEL", "not-a-level")
        code = main(["solve", "--config", cfg])
        assert code in (EXIT_OK, EXIT_MAXITER)

    def test_plot_failure_keeps_exit_code(self, tmp_path):
        plot = tmp_path / "no" / "such" / "dir" / "plot.svg"
        cfg = write_config(tmp_path, output={"log": str(tmp_path / "run.csv"),
                                             "plot": str(plot), "seed": 0})
        assert main(["solve", "--config", cfg]) == EXIT_OK
        assert not plot.exists()

    def test_entry_point_installed(self):
        """The declared console script resolves to `cli.main` and runs, installed or not."""
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")

        import ralmkit
        from ralmkit import cli

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert scripts.get("ralmkit") == "ralmkit.cli:main"
        entry = importlib.metadata.EntryPoint(
            name="ralmkit", value=scripts["ralmkit"], group="console_scripts")
        assert entry.load() is cli.main
        # The launcher below sets argv[0] itself, so the program name must come
        # from the parser, not from how the process was started.
        assert cli.make_parser().prog == "ralmkit"

        # What pip writes into the `ralmkit` script, run on the imported package.
        launcher = ("import sys; sys.argv[0] = 'ralmkit'; "
                    "from ralmkit.cli import main; sys.exit(main())")
        package_root = str(Path(ralmkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=package_root)
        out = subprocess.run([sys.executable, "-c", launcher, "--help"],
                             capture_output=True, text=True, env=env)
        check_help(out)

    def test_import_leaves_scipy_linalg_unloaded(self):
        """scipy.linalg costs about half of the import; only certificates and
        tangent bases load it, on first use.  scipy.sparse.linalg (the
        generalized-Hessian eigensolve) likewise."""
        import ralmkit

        probe = ("import sys, ralmkit, ralmkit.cli; "
                 "print([m in sys.modules for m in ('scipy.linalg', 'scipy.sparse.linalg')])")
        package_root = str(Path(ralmkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=package_root)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "[False, False]"

    @pytest.mark.skipif(shutil.which("ralmkit") is None,
                        reason="ralmkit console script not installed")
    def test_console_script_on_path(self):
        exe = shutil.which("ralmkit")
        assert exe is not None
        out = subprocess.run([exe, "--help"], capture_output=True, text=True)
        check_help(out)
