"""Command-line front end: solve, certify, rate and gradcheck.

Runs are described by a single JSON config with three blocks::

    {
      "schema_version": 1,
      "problem": {"kind": "cm", "n": 4, "r": 2, "mu": 0.8, "len": 2.0},
      "solver":  {"rho0": 1.0, "gamma": 4.0, "criterion": "b", ...},
      "output":  {"log": "run.csv", "plot": "run.svg", "seed": 0}
    }

Exit codes: 0 success/converged, 1 error, 2 iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from typing import Optional, get_type_hints

import numpy as np

from . import bench, certify, convex, geometry, lagrangian, newton, oracles, ralm
from .bench import ParseError

log = logging.getLogger("ralmkit.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAXITER = 2

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class ConfigError(ValueError):
    pass


def _setup_logging() -> None:
    level = os.environ.get("RALMKIT_LOG_LEVEL", "error").lower()
    if level not in _LOG_LEVELS:
        level = "error"
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(levelname)s %(name)s: %(message)s")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "problem" not in cfg:
        raise ConfigError("missing 'problem' block")
    for name in ("problem", "solver", "output", "certify"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"'{name}' block must be a JSON object")
    version = _reader("config", cfg)("schema_version", int, 1)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}")
    return cfg


def _expect(ok: bool, v, what: str):
    if isinstance(v, bool) or not ok:
        raise ValueError(f"expected {what}, got {v!r}")
    return v


# Conversion of a JSON value to the annotated type of a config field: an int
# is an integer, a float a finite number and a str a string, never a bool.
_CONVERT = {
    int: lambda v: _expect(isinstance(v, int), v, "an integer"),
    float: lambda v: float(_expect(isinstance(v, (int, float)) and math.isfinite(v), v,
                                   "a finite number")),
    str: lambda v: _expect(isinstance(v, str), v, "a string"),
    Optional[float]: lambda v: None if v is None else _CONVERT[float](v),
}


def _reader(name: str, block: dict):
    """``get(key, kind[, default])``: field ``key`` of config block ``name``
    converted by ``_CONVERT[kind]`` (returned as is for any other ``kind``)."""
    def get(key: str, kind, *default):
        if key not in block:
            if not default:
                raise ConfigError(f"'{name}' block missing field {key!r}")
            return default[0]
        try:
            return _CONVERT.get(kind, lambda v: v)(block[key])
        except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
            raise ConfigError(f"bad '{name}' block: field {key!r}: {exc}") from None
    return get


def _seed(cfg: dict, seed: Optional[int]) -> int:
    """``seed`` when given, else the output block's seed (default 0); never negative."""
    if seed is None:
        seed = _reader("output", cfg.get("output", {}))("seed", int, 0)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def build_problem(cfg: dict, seed: Optional[int]):
    """Instantiate (problem, X0, y0) from the config's problem block."""
    get, seed = _reader("problem", cfg["problem"]), _seed(cfg, seed)
    kind = get("kind", str)
    if kind == "cm":
        n, r = get("n", int), get("r", int)
        P = bench.build_cm(n, r, get("mu", float), get("len", float))
        return P, bench.cm_initial_point(n, r, seed), np.zeros((n, r))
    if kind == "rmc":
        r, mu, path = get("r", int, 0), get("mu", float, 1.0), get("data", str, None)
        if r < 1:
            raise ConfigError("'problem' block needs a positive rank 'r'")
        if path is None:
            m, n = get("m", int), get("n", int)
            if not 1 <= r <= min(m, n):  # before the draws, which need it
                raise ConfigError(f"bad 'problem' block: need 1 <= r <= min(m, n), "
                                  f"got m={m}, n={n}, r={r}")
            density, magnitude = get("density", float), get("magnitude", float)
            rng = np.random.default_rng(seed)
            U, _ = np.linalg.qr(rng.standard_normal((m, r)))
            V, _ = np.linalg.qr(rng.standard_normal((n, r)))
            s = np.sort(rng.uniform(1.0, 3.0, r))[::-1]
            A = (U * s) @ V.T + bench.rmc_random_outliers(m, n, density, magnitude, seed + 1)
            omega = np.ones((m, n), dtype=bool)
        elif path.endswith((".mtx", ".mm")):
            A, omega = bench.load_coordinate(path)
        else:
            A = bench.load_dense(path)
            omega = np.ones_like(A, dtype=bool)
        P = bench.build_rmc(A, omega, r, mu)
        return P, P.manifold.point_from_ambient(A), np.zeros_like(A)
    raise ConfigError(f"unknown problem kind {kind!r}")


def _typed(cls, block: dict, **nested):
    """``cls(**block, **nested)`` with each value of the solver block ``block``
    converted by its field's annotation; ``cls`` rejects an unknown field."""
    get, hints = _reader("solver", block), get_type_hints(cls)
    kwargs = {key: get(key, hints.get(key)) for key in block}
    try:
        return cls(**kwargs, **nested)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'solver' block: {exc}") from None


def build_solver_config(cfg: dict) -> ralm.RalmConfig:
    block = dict(cfg.get("solver", {}))
    newton_block = block.pop("newton", {})
    if not isinstance(newton_block, dict):
        raise ConfigError("'solver' block field 'newton' must be a JSON object")
    return _typed(ralm.RalmConfig, block, newton=_typed(newton.NewtonConfig, newton_block))


def write_svg(path: str, residuals) -> None:
    """Log-scale polyline plot of a residual history."""
    vals = [max(v, 1e-300) for v in residuals]
    logs = [math.log10(v) for v in vals]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    width, height = 640, 400
    mL, mR, mT, mB = 60, 20, 20, 40
    W, Hh = width - mL - mR, height - mT - mB
    pts = []
    for k, lv in enumerate(logs):
        x = mL + (W * k / max(len(logs) - 1, 1))
        yy = mT + Hh * (hi - lv) / (hi - lo)
        pts.append(f"{x:.2f},{yy:.2f}")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mL}" y1="{mT}" x2="{mL}" y2="{height - mB}" stroke="black"/>',
        f'<line x1="{mL}" y1="{height - mB}" x2="{width - mR}" y2="{height - mB}" stroke="black"/>',
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        f'<text x="{mL}" y="{mT - 5}" font-size="12">log10 KKT residual '
        f"[{lo:.2f}, {hi:.2f}], {len(logs)} iterations</text>",
        f'<text x="{width // 2}" y="{height - 10}" font-size="12">outer iteration</text>',
        "</svg>",
    ]
    bench.atomic_write(path, "\n".join(parts) + "\n")


def _blas_threads() -> int:
    """OpenBLAS's thread count: the first positive integer of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS, else (and at most) the usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    counts = (os.environ.get(v, "").strip() for v in names)
    return min(next((int(c) for c in counts if c.isdecimal() and int(c) > 0), cpus), cpus)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    P, X0, y0 = build_problem(cfg, args.seed)
    scfg = build_solver_config(cfg)
    out = _reader("output", cfg.get("output", {}))
    log_path, plot_path = args.log or out("log", str, None), out("plot", str, None)
    start = time.perf_counter()
    result = ralm.ralm_solve(P, scfg, X0, y0)
    wall_seconds = time.perf_counter() - start
    if log_path:
        bench.save_log(log_path, result.records)
    if plot_path:
        try:
            write_svg(plot_path, [rec.kkt_residual for rec in result.records])
        except OSError as exc:  # plotting must never change the exit code
            log.error("plot not written: %s", exc)
    final = result.records[-1]
    stats = result.inner_stats
    print(
        json.dumps(
            {
                "converged": result.converged,
                "outer_iterations": final.k,
                "kkt_residual": final.kkt_residual,
                "rho_final": final.rho,
                "newton_steps": sum(s.iterations for s in stats),
                "cg_iterations": sum(s.cg_iterations for s in stats),
                "line_search_failures": sum(s.line_search_failed for s in stats),
                "noise_floor_exits": sum(s.stop_reason == "noise_floor" for s in stats),
                "rounding_accepts": sum(s.rounding_accepts for s in stats),
                "wall_seconds": wall_seconds,
                "blas_threads": _blas_threads(),
            }
        )
    )
    return EXIT_OK if result.converged else EXIT_MAXITER


def _load_point(P, path: str):
    M = bench.load_dense(path)
    manifold = P.manifold
    if isinstance(manifold, geometry.FixedRank):
        return manifold.point_from_ambient(M)
    return manifold.point(M)


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    get = _reader("certify", cfg.get("certify", {}))
    rho, stat_tol = get("rho", float, 10.0), get("stationarity_tol", float, 1e-6)
    if not (rho > 0 and stat_tol >= 0):
        raise ConfigError(f"bad 'certify' block: need rho > 0 and stationarity_tol >= 0, "
                          f"got {rho}, {stat_tol}")
    P, _, _ = build_problem(cfg, args.seed)
    X = _load_point(P, args.point)
    y = bench.load_dense(args.multiplier)
    g = P.g_value(X.X)
    if y.shape != g.shape:
        raise certify.CertifyError(f"multiplier shape {y.shape} does not match g(X) {g.shape}")
    residual = lagrangian.kkt_residual(P, X, y)
    report = {
        "stationarity_residual": residual,
        "cone_dim": None,
        "mssosc_min_eig": None,
        "mssosc_verdict": None,
        "genhess_min_eig": None,
        "genhess_verdict": None,
        "genhess_operator_applications": None,
        "rho": rho,
    }
    if residual <= stat_tol:
        msc = certify.mssosc_certificate(P, X, y)
        gh = certify.genhess_min_eig(P, rho, X, y, enumerate_elements=True)
        report.update(
            {
                "cone_dim": msc.subspace_dim,
                "mssosc_min_eig": None if math.isinf(msc.min_eig) else msc.min_eig,
                "mssosc_verdict": msc.verdict + ("-degenerate" if msc.degenerate else ""),
                "genhess_min_eig": gh.min_eig,
                "genhess_verdict": gh.verdict,
                "genhess_operator_applications": gh.operator_applications,
            }
        )
    else:
        report["note"] = f"pair is not stationary to {stat_tol:g}; cone fields omitted"
    print(json.dumps(report))
    return EXIT_OK


def cmd_rate(args) -> int:
    records = bench.load_log(args.log)
    residuals = [rec.kkt_residual for rec in records]
    rate, quality = certify.fit_linear_rate(residuals, args.tail)
    print(json.dumps({"rate": rate, "fit_quality": quality, "points": len(residuals)}))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args.seed)
    P, X0, _ = build_problem(cfg, seed)
    gerr = oracles.gradient_check(P, samples=args.samples, seed=seed)
    herr = oracles.hessian_check(P, samples=args.samples, seed=seed)
    report = {"grad_max_rel_err": gerr, "hess_max_rel_err": herr}
    print(json.dumps({k: None if math.isinf(v) else v for k, v in report.items()}))
    return EXIT_OK if gerr <= 1e-5 and herr <= 1e-3 else EXIT_ERROR


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ralmkit",
        description="Augmented-Lagrangian solver and certificates for nonsmooth manifold problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver end to end")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--log", default=None, help="override the output log path")
    p_solve.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="second-order certificates at a given pair")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--point", required=True)
    p_cert.add_argument("--multiplier", required=True)
    p_cert.add_argument("--seed", type=int, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_rate = sub.add_parser("rate", help="fit a geometric rate to a residual log")
    p_rate.add_argument("--log", required=True)
    p_rate.add_argument("--tail", type=float, default=0.5)
    p_rate.set_defaults(func=cmd_rate)

    p_gc = sub.add_parser("gradcheck", help="finite-difference derivative checks")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--samples", type=int, default=5)
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, bench.BenchError, OSError, geometry.GeometryError,
            lagrangian.LagrangianError, certify.CertifyError, ralm.RalmError,
            newton.NewtonError, oracles.OracleError, convex.ConvexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
