"""ralmkit: augmented-Lagrangian solver for nonsmooth composite problems
on embedded matrix manifolds, with a globalized semismooth Newton inner
solver and second-order certificates."""

from .convex import L1Norm, ProxJacobian
from .geometry import (
    Euclidean,
    FixedRank,
    GeometryError,
    ManifoldPoint,
    RankDropError,
    Stiefel,
    random_tangent,
    retract,
)
from .lagrangian import ProblemSpec, kkt_residual
from .newton import NewtonConfig, NewtonStats, cg_solve, ssn_minimize
from .ralm import IterateRecord, RalmConfig, RalmResult, inner_threshold, ralm_solve
from .certify import (
    Certificate,
    critical_cone_basis,
    fit_linear_rate,
    genhess_min_eig,
    mssosc_certificate,
)
from .bench import build_cm, build_rmc, cm_analytic_pair, load_dense, rmc_toy_fixture, save_log

__version__ = "0.1.0"
