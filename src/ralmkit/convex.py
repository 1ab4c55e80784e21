"""Prox toolkit for the outer convex term.

Ships the weighted l1 norm ``theta = mu * ||.||_1`` together with its
proximal map, Moreau envelope (in the ``rho``-parametrisation
``env(p) = min_u theta(u) + rho/2 ||p - u||^2``) with its gradient from one
prox, Clarke generalized Jacobians of the prox, and a subgradient membership
test.  It is the one convex term ``lagrangian.ProblemSpec.theta`` takes;
``mu`` is also the sup-norm radius of dom theta*, the box the multipliers
live in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

BOUNDARY_TOL = 1e-12
# Most boundary entries whose 2^b extreme Jacobians are enumerated.
ENUM_CAP = 12


class ConvexError(ValueError):
    """Invalid prox-toolkit arguments (nonpositive parameter, bad shape)."""


@dataclass(frozen=True)
class ProxJacobian:
    """A B-subdifferential element of ``p -> prox(t, p)``.

    For the l1 norm this is a diagonal 0/1 mask: 1 wherever
    ``|p_ij| > t*mu``, 0 wherever ``|p_ij| < t*mu``.  ``boundary`` marks
    the tie entries ``|p_ij| = t*mu`` (within ``BOUNDARY_TOL``).  The
    element :meth:`L1Norm.prox_jacobian` returns sets them to 0.
    """

    mask: np.ndarray
    boundary: np.ndarray

    @property
    def boundary_count(self) -> int:
        return int(np.count_nonzero(self.boundary))


class L1Norm:
    """theta(z) = mu * sum |z_ij| with mu > 0."""

    def __init__(self, mu: float = 1.0):
        if not 0 < mu < math.inf:
            raise ConvexError(f"weight must be positive and finite, got {mu}")
        self.mu = float(mu)

    def __repr__(self) -> str:
        return f"L1Norm(mu={self.mu})"

    def value(self, z: np.ndarray) -> float:
        return self.mu * float(np.sum(np.abs(z)))

    def prox(self, t: float, p: np.ndarray) -> np.ndarray:
        """Soft threshold at level ``t * mu``."""
        if t <= 0:
            raise ConvexError(f"prox parameter must be positive, got {t}")
        p = np.asarray(p, dtype=float)
        q = np.abs(p, out=np.empty(p.shape))  # every step written into q
        q -= t * self.mu
        return np.multiply(np.sign(p), np.maximum(q, 0.0, out=q), out=q)

    def prox_jacobian(self, t: float, p: np.ndarray) -> ProxJacobian:
        """The convention element: 0 on the boundary entries."""
        if t <= 0:
            raise ConvexError(f"prox parameter must be positive, got {t}")
        p = np.asarray(p, dtype=float)
        gap = np.abs(p, out=np.empty(p.shape))
        gap -= t * self.mu
        mask = np.greater(gap, BOUNDARY_TOL, out=np.empty(p.shape))  # gap > 0 off the boundary
        return ProxJacobian(mask=mask, boundary=np.abs(gap, out=gap) <= BOUNDARY_TOL)

    def extreme_prox_jacobians(self, base: ProxJacobian) -> Iterator[ProxJacobian]:
        """All extreme B-subdifferential elements of the prox whose convention
        element (:meth:`prox_jacobian`) is ``base``, made one at a time.

        One element per 0/1 assignment of the boundary entries, so the
        count is 2^b; refuses, when called, to enumerate past ``2**ENUM_CAP``
        elements.
        """
        idx = np.flatnonzero(base.boundary)
        b = len(idx)
        if b > ENUM_CAP:
            raise ConvexError(f"{b} boundary entries exceed the enumeration cap of {ENUM_CAP}")

        def element(bits):
            mask = base.mask.copy()
            mask.flat[idx] = bits
            return ProxJacobian(mask=mask, boundary=base.boundary)

        return map(element, itertools.product((0.0, 1.0), repeat=b))

    def envelope(self, rho: float, p: np.ndarray) -> Tuple[float, np.ndarray]:
        """The envelope at ``p`` and its gradient ``rho (p - q)`` from one prox
        ``q = prox(1/rho, p)``, with ``|q|`` and ``(p - q)^2`` written into q."""
        if rho <= 0:
            raise ConvexError(f"envelope parameter must be positive, got {rho}")
        p = np.asarray(p, dtype=float)
        q = self.prox(1.0 / rho, p)
        d = np.subtract(p, q, out=np.empty(p.shape))
        value = self.mu * float(np.sum(np.abs(q, out=q)))  # self.value(q)
        value += 0.5 * rho * float(np.sum(np.square(d, out=q)))
        return value, np.multiply(rho, d, out=d)

    def in_subdifferential(self, z: np.ndarray, y: np.ndarray, tol: float = 1e-10) -> bool:
        """Whether ``y`` lies in the subdifferential of theta at ``z``; a NaN fails."""
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        if z.shape != y.shape:
            raise ConvexError(f"shape mismatch: {z.shape} vs {y.shape}")
        if not np.all(np.abs(y) <= self.mu + tol):
            return False
        active = ~(np.abs(z) <= tol)
        return bool(np.all(np.abs(y[active] - self.mu * np.sign(z[active])) <= tol))

