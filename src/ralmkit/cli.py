"""Command-line front end: solve, certify, rate and gradcheck.

Runs are described by a single JSON config with four blocks, every one of
them read and checked before a command does any work::

    {
      "schema_version": 1,
      "problem": {"kind": "cm", "n": 4, "r": 2, "mu": 0.8, "len": 2.0},
      "solver":  {"rho0": 1.0, "gamma": 4.0, "criterion": "b", ...},
      "output":  {"log": "run.csv", "plot": "run.svg", "seed": 0},
      "certify": {"rho": 10.0, "stationarity_tol": 1e-6}
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
from dataclasses import fields
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
    """The config at ``path``, read and checked whole by :func:`_read_config`."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return _read_config(cfg)


def _expect(ok: bool, v, what: str):
    if isinstance(v, bool) or not ok:
        raise ValueError(f"expected {what}, got {v!r}")
    return v


# Conversion of a JSON value to the type of a config field: an int is an
# integer, a float a finite number, a str a string and a dict an object,
# never a bool.
_CONVERT = {
    int: lambda v: _expect(isinstance(v, int), v, "an integer"),
    float: lambda v: float(_expect(isinstance(v, (int, float)) and math.isfinite(v), v,
                                   "a finite number")),
    str: lambda v: _expect(isinstance(v, str), v, "a string"),
    dict: lambda v: _expect(isinstance(v, dict), v, "a JSON object"),
    Optional[float]: lambda v: None if v is None else _CONVERT[float](v),
}


def _dataclass_fields(cls) -> dict:
    return {f.name: (get_type_hints(cls)[f.name], None) for f in fields(cls)}


# Each block's fields as {key: (type[, default])}: a field without a default
# must be given, and one whose default is None is left out when absent.  The
# problem block takes the fields of its kind, an rmc problem those of its form
# (a data file, or the generator's draws); the solver block and its newton
# block take the fields of RalmConfig and NewtonConfig, which hold the defaults.
_FIELDS = {
    "config": {"schema_version": (int, 1), "problem": (dict,), "solver": (dict, {}),
               "output": (dict, {}), "certify": (dict, {})},
    "output": {"log": (str, None), "plot": (str, None), "seed": (int, 0)},
    "certify": {"rho": (float, 10.0), "stationarity_tol": (float, 1e-6)},
    "cm": {"kind": (str,), "n": (int,), "r": (int,), "mu": (float,), "len": (float,)},
    "rmc data": {"kind": (str,), "data": (str,), "r": (int,), "mu": (float, 1.0)},
    "rmc": {"kind": (str,), "m": (int,), "n": (int,), "r": (int,), "mu": (float, 1.0),
            "density": (float,), "magnitude": (float,)},
    "solver": {**_dataclass_fields(ralm.RalmConfig), "newton": (dict, {})},
    "newton": _dataclass_fields(newton.NewtonConfig),
}


def _read(name: str, block: dict, form: Optional[str] = None) -> dict:
    """The values of config block ``name`` by its fields ``_FIELDS[form or name]``."""
    table = _FIELDS[form or name]
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"bad '{name}' block: unknown field {unknown[0]!r}")
    values = {}
    for key, (kind, *default) in table.items():
        if key in block:
            try:
                values[key] = _CONVERT[kind](block[key])
            except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
                raise ConfigError(f"bad '{name}' block: field {key!r}: {exc}") from None
        elif not default:
            raise ConfigError(f"bad '{name}' block: missing field {key!r}")
        elif default[0] is not None:
            values[key] = default[0]
    return values


def _read_config(cfg) -> dict:
    """The values of every block of the config ``cfg``, range-checked and with
    their defaults; the solver block's as a :class:`ralm.RalmConfig`."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    values = _read("config", cfg)
    if values["schema_version"] != 1:
        raise ConfigError(f"unsupported schema_version {values['schema_version']}")
    kind = values["problem"].get("kind")
    if kind not in ("cm", "rmc"):
        raise ConfigError(f"bad 'problem' block: unknown kind {kind!r}")
    form = "rmc data" if kind == "rmc" and "data" in values["problem"] else kind
    p = values["problem"] = _read("problem", values["problem"], form)
    if form == "rmc" and not 1 <= p["r"] <= min(p["m"], p["n"]):  # before the draws
        raise ConfigError(f"bad 'problem' block: need 1 <= r <= min(m, n), "
                          f"got m={p['m']}, n={p['n']}, r={p['r']}")
    for name in ("solver", "output", "certify"):
        values[name] = _read(name, values[name])
    if values["output"]["seed"] < 0:  # refused even where --seed overrides it
        raise ConfigError(f"seed must be nonnegative, got {values['output']['seed']}")
    newton_values = _read("solver", values["solver"].pop("newton"), "newton")
    try:
        values["solver"] = ralm.RalmConfig(**values["solver"],
                                           newton=newton.NewtonConfig(**newton_values))
    except ValueError as exc:
        raise ConfigError(f"bad 'solver' block: {exc}") from None
    rho, stat_tol = values["certify"]["rho"], values["certify"]["stationarity_tol"]
    if not (rho > 0 and stat_tol >= 0):
        raise ConfigError(f"bad 'certify' block: need rho > 0 and stationarity_tol >= 0, "
                          f"got {rho}, {stat_tol}")
    return values


def _seed(cfg: dict, seed: Optional[int]) -> int:
    """``seed`` when given, else the read config's seed; never negative."""
    seed = cfg["output"]["seed"] if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def build_problem(cfg: dict, seed: Optional[int]):
    """Instantiate (problem, X0, y0) from the config ``cfg`` as :func:`load_config`
    returns it; ``seed`` overrides its seed."""
    p, seed = cfg["problem"], _seed(cfg, seed)
    if p["kind"] == "cm":
        n, r = p["n"], p["r"]
        P = bench.build_cm(n, r, p["mu"], p["len"])
        return P, bench.cm_initial_point(n, r, seed), np.zeros((n, r))
    path = p.get("data")
    if path is not None and path.endswith((".mtx", ".mm")):
        A, omega = bench.load_coordinate(path)
    else:
        A = bench.load_dense(path) if path is not None else bench.rmc_random_data(
            p["m"], p["n"], p["r"], p["density"], p["magnitude"], seed)[1]
        omega = np.ones_like(A, dtype=bool)
    P = bench.build_rmc(A, omega, p["r"], p["mu"])
    return P, P.manifold.point_from_ambient(A), np.zeros_like(A)


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


def _print_report(report: dict) -> None:
    """Print ``report`` as strict JSON, with a non-finite number as null."""
    print(json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                      for k, v in report.items()}, allow_nan=False))


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    P, X0, y0 = build_problem(cfg, args.seed)
    log_path, plot_path = args.log or cfg["output"].get("log"), cfg["output"].get("plot")
    start = time.perf_counter()
    result = ralm.ralm_solve(P, cfg["solver"], X0, y0)
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
    _print_report({
        "converged": result.converged,
        "outer_iterations": final.k,
        "kkt_residual": final.kkt_residual,
        "rho_final": final.rho,
        "newton_steps": sum(s.iterations for s in stats),
        "cg_iterations": sum(s.cg_iterations for s in stats),
        "line_search_failures": sum(s.line_search_failed for s in stats),
        "noise_floor_exits": sum(s.stop_reason == "noise_floor" for s in stats),
        "rounding_accepts": sum(s.rounding_accepts for s in stats),
        "dual_jumps": result.dual_jumps,
        "wall_seconds": wall_seconds,
        "blas_threads": _blas_threads(),
    })
    return EXIT_OK if result.converged else EXIT_MAXITER


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    rho, stat_tol = cfg["certify"]["rho"], cfg["certify"]["stationarity_tol"]
    P, _, _ = build_problem(cfg, args.seed)
    X = P.manifold.point(bench.load_dense(args.point))
    y = bench.load_dense(args.multiplier)
    residual = lagrangian.kkt_residual(P, X, y)
    cone = ("cone_dim", "mssosc_min_eig", "mssosc_verdict", "genhess_min_eig", "genhess_verdict",
            "genhess_operator_applications", "genhess_boundary_count",
            "genhess_elements_checked", "genhess_partial")  # null at a non-stationary pair
    report = {"stationarity_residual": residual, **dict.fromkeys(cone), "rho": rho}
    if residual <= stat_tol:
        msc = certify.mssosc_certificate(P, X, y)
        gh = certify.genhess_min_eig(P, rho, X, y, enumerate_elements=True)
        report.update({
            "cone_dim": msc.subspace_dim,
            "mssosc_min_eig": msc.min_eig,
            "mssosc_verdict": msc.verdict + ("-degenerate" if msc.degenerate else ""),
            "genhess_min_eig": gh.min_eig,
            "genhess_verdict": gh.verdict,
            "genhess_operator_applications": gh.operator_applications,
            "genhess_boundary_count": gh.boundary_count,
            "genhess_elements_checked": gh.elements_checked,
            "genhess_partial": gh.partial,
        })
    else:
        report["note"] = f"pair is not stationary to {stat_tol:g}; cone fields omitted"
    _print_report(report)
    return EXIT_OK


def cmd_rate(args) -> int:
    records = bench.load_log(args.log)
    residuals = [rec.kkt_residual for rec in records]
    rate, quality = certify.fit_linear_rate(residuals, args.tail)
    _print_report({"rate": rate, "fit_quality": quality, "points": len(residuals)})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args.seed)
    P, X0, _ = build_problem(cfg, seed)
    gerr = oracles.gradient_check(P, samples=args.samples, seed=seed)
    herr = oracles.hessian_check(P, samples=args.samples, seed=seed)
    _print_report({"grad_max_rel_err": gerr, "hess_max_rel_err": herr})
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
