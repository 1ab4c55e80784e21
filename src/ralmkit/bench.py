"""Problem builders, analytic fixtures and file ingestion.

Two applications ship:

* sparse spectral modes: ``min tr(X^T H X) + mu |X|_1`` over orthonormal
  frames, with H a periodic second-difference Hamiltonian,
* robust low-rank completion: ``min |P_Omega(X - A)|_1`` over fixed-rank
  matrices.

Both come with small closed-form stationary pairs used by the test and
certification suites.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, get_type_hints

import numpy as np

from .convex import L1Norm
from .geometry import FixedRank, ManifoldPoint, Stiefel
from .lagrangian import ProblemSpec
from .ralm import IterateRecord


class BenchError(ValueError):
    pass


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Sparse spectral modes on the Stiefel manifold.

def _cm_coefficients(n: int, length: float) -> Tuple[float, float]:
    """Diagonal and off-diagonal of the periodic three-point stencil for
    -(1/2) d^2/dx^2 on n nodes of [0, length]."""
    if n < 3 or not 0 < length < math.inf:
        raise BenchError(f"need n >= 3 and finite length > 0, got n={n}, length={length}")
    h = length / n
    return 1.0 / h ** 2, -0.5 / h ** 2


def cm_hamiltonian(n: int, length: float) -> np.ndarray:
    """The periodic three-point stencil as a dense matrix: the reference
    for the matrix-free products of :func:`build_cm`."""
    diag, off = _cm_coefficients(n, length)
    H = np.zeros((n, n))
    np.fill_diagonal(H, diag)
    for i in range(n):
        H[i, (i + 1) % n] += off
        H[i, (i - 1) % n] += off
    return H


def _stencil_product(n: int, r: int, diag: float, off: float) -> Callable:
    """``X -> H X`` on n x r arrays in O(n r), for the periodic matrix with
    ``diag`` on its diagonal and ``off`` beside it.  Row i adds its three
    terms in ascending column order, as a sequential dense product does."""
    i = np.arange(n)
    cols = np.sort(np.stack([i - 1, i, i + 1]) % n, axis=0)  # (3, n): rows of X to gather
    coef = np.repeat(np.where(cols == i, diag, off)[:, :, None], r, axis=2)
    t = np.empty((3, n, r))

    def apply(X):
        # mode="clip" (the indices are in range) lets take write into t
        # directly; the reduction over the leading axis adds (t[0] + t[1]) + t[2].
        # The method and ufunc calls skip the np.take / ndarray.sum wrappers.
        X.take(cols, axis=0, out=t, mode="clip")
        np.multiply(t, coef, out=t)
        return np.add.reduce(t, axis=0)

    return apply


def build_cm(n: int, r: int, mu: float, length: float) -> ProblemSpec:
    """Problem spec for ``min tr(X^T H X) + mu |X|_1`` on St(n, r)."""
    if not 1 <= r <= n:
        raise BenchError(f"need 1 <= r <= n, got n={n}, r={r}")
    if not 0 < mu < math.inf:
        raise BenchError(f"need finite mu > 0, got {mu}")
    diag, off = _cm_coefficients(n, length)
    H = _stencil_product(n, r, diag, off)
    H2 = _stencil_product(n, r, 2.0 * diag, 2.0 * off)  # 2 H: scaling by 2 is exact
    manifold = Stiefel(n, r)
    return ProblemSpec(
        manifold=manifold,
        f_value=lambda X: float(np.sum(X * H(X))),
        f_egrad=H2,
        f_ehess=lambda X, xi: H2(xi),
        g_value=lambda X: X,
        g_jvp=None,  # Dg is the identity
        g_vjp=lambda X, w: w,
        gy_ehess=None,
        theta=L1Norm(mu),
    )


def cm_analytic_pair(mu: float = 0.8) -> Tuple[ProblemSpec, ManifoldPoint, np.ndarray]:
    """Closed-form stationary pair of the 4-node, 2-mode instance.

    Returns the problem (n=4, r=2, domain length 2), the stationary frame
    with two interleaved flat modes, and a certifying multiplier carried
    on the support of the frame.
    """
    P = build_cm(4, 2, mu, 2.0)
    a = math.sqrt(2.0) / 2.0
    X = np.array([[0.0, a], [0.0, a], [a, 0.0], [a, 0.0]])
    y = mu * np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    return P, P.manifold.point(X), y


def cm_initial_point(n: int, r: int, seed: int) -> ManifoldPoint:
    """Column-orthonormalized Gaussian start, deterministic per seed."""
    return Stiefel(n, r).random_point(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Robust low-rank completion on the fixed-rank manifold.

def build_rmc(A: np.ndarray, omega: np.ndarray, r: int, mu: float = 1.0) -> ProblemSpec:
    """Problem spec for ``min mu |P_Omega(X - A)|_1`` on Fr(m, n, r)."""
    A = np.asarray(A, dtype=float)
    omega = np.asarray(omega, dtype=bool)
    if A.shape != omega.shape:
        raise BenchError(f"mask shape {omega.shape} does not match data {A.shape}")
    if not omega.any():
        raise BenchError("observation set is empty")
    m, n = A.shape
    if not 1 <= r <= min(m, n):
        raise BenchError(f"need 1 <= r <= min(m, n), got r={r}")
    manifold = FixedRank(m, n, r)
    if omega.all():  # g(X) = X - A: multiplying by an all-ones mask is exact
        g_value, g_vjp = (lambda X: X - A), (lambda X, w: w)
    else:
        mask = omega.astype(float)
        g_value, g_vjp = (lambda X: mask * (X - A)), (lambda X, w: mask * w)
    return ProblemSpec(
        manifold=manifold,
        f_value=lambda X: 0.0,
        f_egrad=None,
        f_ehess=None,
        g_value=g_value,
        g_jvp=None,  # Dg is entrywise
        g_vjp=g_vjp,
        gy_ehess=None,
        theta=L1Norm(mu),
    )


@dataclass(frozen=True)
class RmcFixture:
    problem: ProblemSpec
    A: np.ndarray  # observed data: A_exact + E_out
    A_exact: np.ndarray
    E_out: np.ndarray
    X_bar: ManifoldPoint
    y_bar: np.ndarray


def rmc_toy_fixture() -> RmcFixture:
    """Fully observed 5x5 rank-3 completion instance with outliers.

    The ground truth has zero rows and columns in positions 4 and 5, so
    the lower-right 2x2 block spans the normal space at it; outliers are
    planted there with magnitudes in ``[0.1, 0.5]``, drawn from seed 7.
    The returned multiplier is the subgradient sign pattern of the
    residual at the ground truth, which certifies it as a KKT point.
    """
    s2 = math.sqrt(2.0) / 2.0
    U = np.array(
        [[1.0, 0.0, 0.0], [0.0, -s2, s2], [0.0, s2, s2], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )
    V = np.array(
        [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, -0.8, 0.6], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )
    S = np.diag([1.0, 2.0, 3.0])
    A_exact = U @ S @ V.T

    rng = np.random.default_rng(7)
    block = rng.uniform(0.1, 0.5, size=(2, 2)) * rng.choice([-1.0, 1.0], size=(2, 2))
    E_out = np.zeros((5, 5))
    E_out[3:, 3:] = block
    A = A_exact + E_out
    omega = np.ones((5, 5), dtype=bool)

    problem = build_rmc(A, omega, r=3)
    X_bar = problem.manifold.point_from_ambient(A_exact)
    # g(X_bar) = -E_out on the block, so the certifying sign is -sgn(E_out).
    y_bar = np.zeros((5, 5))
    y_bar[3:, 3:] = -np.sign(block)
    return RmcFixture(problem, A, A_exact, E_out, X_bar, y_bar)


def rmc_random_outliers(
    m: int, n: int, density: float, magnitude: float, seed: int
) -> np.ndarray:
    """Sparse +/-magnitude outlier matrix at the given density."""
    if not (0 < density <= 1 and 0 < magnitude < math.inf):
        raise BenchError("need density in (0, 1] and finite magnitude > 0")
    rng = np.random.default_rng(seed)
    E = np.zeros((m, n))
    hit = rng.uniform(size=(m, n)) < density
    E[hit] = magnitude * rng.choice([-1.0, 1.0], size=int(hit.sum()))
    return E


def rmc_random_data(m: int, n: int, r: int, density: float, magnitude: float,
                    seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """A rank-r truth L and the data L + rmc_random_outliers(..., seed + 1)."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    L = (U * np.sort(rng.uniform(1.0, 3.0, r))[::-1]) @ V.T
    return L, L + rmc_random_outliers(m, n, density, magnitude, seed + 1)


# ---------------------------------------------------------------------------
# File ingestion: CSV and Matrix Market coordinate format.

def _finite(text: str) -> float:
    """``float(text)``, raising ValueError for ``nan`` and ``inf``."""
    if not math.isfinite(v := float(text)):
        raise ValueError(f"non-finite value {text.strip()!r}")
    return v


def load_dense(path: str) -> np.ndarray:
    """Load a dense matrix from CSV."""
    rows: List[List[float]] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values = [_finite(v) for v in row]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if rows and len(values) != len(rows[0]):
                raise ParseError(
                    f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


def load_coordinate(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Read a Matrix Market coordinate file.

    Returns the dense matrix and the boolean mask of listed entries
    (which defines the observation set for completion problems).
    """
    with open(path) as fh:
        lines = fh.readlines()
    idx = 0
    if idx < len(lines) and lines[idx].startswith("%%MatrixMarket"):
        header = lines[idx].lower().split()  # keywords are case-insensitive
        # A symmetric file lists one triangle; reading it as general would
        # leave the mirrored entries unobserved.
        if len(header) < 5 or header[2] != "coordinate" or header[4] != "general":
            raise ParseError(f"{path}: line 1: only 'coordinate ... general' files are supported")
        idx += 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    if idx >= len(lines):
        raise ParseError(f"{path}: missing size line")
    try:
        m, n, nnz = (int(tok) for tok in lines[idx].split())
    except ValueError:
        raise ParseError(f"{path}: line {idx + 1}: malformed size line") from None
    if min(m, n) < 0:
        raise ParseError(f"{path}: line {idx + 1}: negative matrix size {m} x {n}")
    M = np.zeros((m, n))
    mask = np.zeros((m, n), dtype=bool)
    for lineno in range(idx + 1, len(lines)):
        line = lines[lineno].strip()
        if not line or line.startswith("%"):
            continue
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(f"{path}: line {lineno + 1}: expected 'i j value'")
        try:
            i, j, v = int(toks[0]), int(toks[1]), _finite(toks[2])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno + 1}: {exc}") from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(f"{path}: line {lineno + 1}: index ({i},{j}) out of range")
        if mask[i - 1, j - 1]:
            raise ParseError(f"{path}: line {lineno + 1}: entry ({i},{j}) listed twice")
        M[i - 1, j - 1] = v
        mask[i - 1, j - 1] = True
    if mask.sum() != nnz:
        raise ParseError(f"{path}: header promised {nnz} entries, found {mask.sum()}")
    return M, mask


# Cell type (int or float) of each log column, from IterateRecord's annotations.
_LOG_TYPES = [get_type_hints(IterateRecord)[name] for name in IterateRecord.FIELDS]


def save_log(path: str, records: Sequence[IterateRecord]) -> None:
    """Write iterate telemetry as CSV (atomically, stable schema)."""
    lines = [",".join(IterateRecord.FIELDS)]
    for rec in records:
        lines.append(",".join(
            str(int(v)) if kind is int else f"{float(v):.17g}"
            for kind, v in zip(_LOG_TYPES, rec.as_row())
        ))
    atomic_write(path, "\n".join(lines) + "\n")


def load_log(path: str) -> List[IterateRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != IterateRecord.FIELDS:
            raise ParseError(f"{path}: unexpected log header {header}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(IterateRecord.FIELDS):
                raise ParseError(f"{path}: line {lineno}: wrong number of columns")
            try:
                records.append(IterateRecord(*((_finite if kind is float else kind)(v)
                                               for kind, v in zip(_LOG_TYPES, row))))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return records


def atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
