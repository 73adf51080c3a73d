"""Feasible sets with Euclidean projections, weighted proximal maps, and
normal-cone distances.

All sets are closed, convex, and nonempty by construction. Entries are
float64 throughout; membership checks use MEMBERSHIP_TOL to absorb the
floating-point drift that accumulates over repeated projection steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEMBERSHIP_TOL = 1e-9

# Bisection for the weighted ball projection is run essentially to machine
# precision so that values built on top of it are finite-difference clean.
_BISECT_ITERS = 200


class FeasibleSet:
    """Base class for closed convex sets over a fixed number of coordinates.

    Concrete sets implement four primitives:

    - ``project(x)``: Euclidean projection onto the set.
    - ``prox_weighted(x, y, v)``: minimizer over the set of
      ``<y, z - x> + 0.5 * <v * (z - x), z - x>`` with weights ``v > 0``.
    - ``normal_cone_distance(x, v)``: distance of ``-v`` to the normal cone
      at a feasible point ``x``.
    - ``sample(rng)``: a random point of the set (used by property tests).

    ``project`` and ``prox_weighted`` take one point or a stack of rows along the
    leading axes and return the same shape, each row bitwise that row's value.
    """

    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prox_weighted(self, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal_cone_distance(self, x: np.ndarray, v: np.ndarray) -> float:
        raise NotImplementedError

    def contains(self, x: np.ndarray) -> bool:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Box(FeasibleSet):
    """Axis-aligned box, ``lower <= upper`` coordinatewise; a bound may be
    infinite (``lower = -inf``, ``upper = +inf``), so the nonnegative orthant
    and the whole space are boxes too."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        # NaN fails both comparisons
        if not ((lo < np.inf).all() and (hi > -np.inf).all()):
            raise ValueError("box bounds must not be NaN, lower = +inf or upper = -inf")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper coordinatewise")

    @property
    def dim(self):
        return self.lower.size

    # np.minimum(np.maximum(.)) gives np.clip's bits without its wrapper's cost
    def project(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def prox_weighted(self, x, y, v):
        return np.minimum(np.maximum(x - y / v, self.lower), self.upper)

    def normal_cone_distance(self, x, v):
        t = -np.asarray(v, dtype=np.float64)
        at_lower = x <= self.lower + MEMBERSHIP_TOL
        at_upper = x >= self.upper - MEMBERSHIP_TOL
        d = np.abs(t)
        # active faces absorb the matching sign of the target
        d = np.where(at_lower, np.maximum(t, 0.0), d)
        d = np.where(at_upper, np.maximum(-t, 0.0), d)
        d = np.where(at_lower & at_upper, 0.0, d)
        return float(np.linalg.norm(d))

    def contains(self, x):
        return bool(np.all(x >= self.lower - MEMBERSHIP_TOL)
                    and np.all(x <= self.upper + MEMBERSHIP_TOL))

    def sample(self, rng):
        lo, hi = self.lower, self.upper
        finite = np.isfinite(lo) & np.isfinite(hi)
        if finite.all():
            return rng.uniform(lo, hi)
        # an unbounded coordinate draws N(0, 1), folded away from its one
        # finite bound if it has one
        z = rng.standard_normal(self.dim)
        x = np.where(np.isfinite(lo), lo + np.abs(z), np.where(np.isfinite(hi), hi - np.abs(z), z))
        x[finite] = rng.uniform(lo[finite], hi[finite])
        return x


def NonnegativeOrthant(dim: int) -> Box:
    return Box(np.zeros(dim), np.full(dim, np.inf))


def WholeSpace(dim: int) -> Box:
    return Box(np.full(dim, -np.inf), np.full(dim, np.inf))


@dataclass(frozen=True)
class Ball(FeasibleSet):
    """Euclidean ball ``{x : ||x - center|| <= radius}`` with ``radius > 0``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        object.__setattr__(self, "center", c)
        if c.ndim != 1 or not np.isfinite(c).all():
            raise ValueError("ball center must be a finite 1-d array")
        if not (self.radius > 0):
            raise ValueError("ball radius must be positive")

    @property
    def dim(self):
        return self.center.size

    def project(self, x):
        # rescale until the recomputed norm is <= radius, so that projecting a
        # projected point returns it bitwise; each retry aims one float lower
        z = np.asarray(x, dtype=np.float64)
        if z.ndim > 1:  # the retries run per point, so a stack runs row by row
            rows = z.reshape(-1, z.shape[-1])
            return np.array([self.project(row) for row in rows]).reshape(z.shape)
        target = self.radius
        for _ in range(8):
            u = z - self.center
            nrm = float(np.linalg.norm(u))
            if nrm <= self.radius:
                return z
            z = self.center + u * (target / nrm)
            target = float(np.nextafter(target, 0.0))
        return z

    def prox_weighted(self, x, y, v):
        target = x - y / v
        if target.ndim > 1:  # and so does the bisection
            rows = zip(*(a.reshape(-1, a.shape[-1]) for a in np.broadcast_arrays(x, y, v)))
            return np.array([self.prox_weighted(*row) for row in rows]).reshape(target.shape)
        u = target - self.center
        if float(np.linalg.norm(u)) <= self.radius:
            return target
        # z(mu) = center + v*u/(v+mu); ||z(mu)-center|| decreases in mu >= 0
        def excess(mu):
            return float(np.linalg.norm(v * u / (v + mu))) - self.radius

        lo, hi = 0.0, 1.0
        while excess(hi) > 0.0:
            hi *= 2.0
            if hi > 1e300:
                raise ArithmeticError("weighted ball projection failed to bracket")
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if excess(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        mu = hi
        return self.center + v * u / (v + mu)

    def normal_cone_distance(self, x, v):
        u = x - self.center
        nrm = float(np.linalg.norm(u))
        if nrm < self.radius - MEMBERSHIP_TOL:
            return float(np.linalg.norm(v))
        # boundary: the cone is the outward ray along x - center
        ray = u / nrm
        s = float(np.dot(-np.asarray(v), ray))
        if s <= 0.0:
            return float(np.linalg.norm(v))
        return float(np.linalg.norm(-np.asarray(v) - s * ray))

    def contains(self, x):
        return float(np.linalg.norm(x - self.center)) <= self.radius + MEMBERSHIP_TOL

    def sample(self, rng):
        d = rng.standard_normal(self.dim)
        d /= max(np.linalg.norm(d), 1e-300)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + r * d


def _shaped(a, shape: tuple, name: str) -> np.ndarray:
    """``a`` as float64, checked for ``shape`` only: a diverging run's records are not finite."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def prox_preconditioned(fset: FeasibleSet, x, y, v) -> np.ndarray:
    """Minimize ``<y, z - x> + 0.5 * <v * (z - x), z - x>`` over ``z`` in the set.

    ``v`` must be positive coordinatewise. With ``v`` identically one this is
    the Euclidean projection of ``x - y``.
    """
    shape = (fset.dim,)
    x, y, v = _shaped(x, shape, "x"), _shaped(y, shape, "y"), _shaped(v, shape, "v")
    return _prox_positive(fset, x, y, v)


def _prox_positive(fset: FeasibleSet, x, y, v) -> np.ndarray:
    """``prox_preconditioned`` for ``x``, ``y`` and ``v`` whose shapes the
    caller has checked: only the weights are checked here."""
    if not (v > 0.0).all():
        raise ValueError("preconditioning weights must be positive")
    return fset.prox_weighted(x, y, v)


def normal_cone_distance(fset: FeasibleSet, x, v) -> float:
    """Distance of ``-v`` to the normal cone of ``fset`` at the feasible point ``x``."""
    x, v = _shaped(x, (fset.dim,), "x"), _shaped(v, (fset.dim,), "v")
    if not fset.contains(x):
        raise ValueError("x is not in the feasible set (beyond tolerance)")
    return fset.normal_cone_distance(x, v)

