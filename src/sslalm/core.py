"""Problem model: value/subgradient oracles, sampled-oracle problems, and
bounded zero-mean noise injection.

Oracles are plain callables collected in immutable dataclasses. A problem
never owns randomness; solvers pass their own ``numpy.random.Generator`` so
that runs are reproducible from a single seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .geometry import FeasibleSet

Array = np.ndarray


class OracleError(RuntimeError):
    """An oracle returned a non-finite or mis-shaped value."""


class NonFiniteError(OracleError):
    """An oracle output or an input vector holds a non-finite value."""


def as_vector(x, dim: int | None = None, name: str = "x", finite: bool = True) -> Array:
    """Validate and return ``x`` as a float64 vector, finite unless ``finite``
    is False (then only the shape is checked)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} has dimension {v.size}, expected {dim}")
    if finite and not _all_finite(v):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


def _norm(v: Array) -> float:
    """Euclidean norm of a 1-d float64 vector, bitwise equal to
    ``float(np.linalg.norm(v))``, which computes ``sqrt(v.dot(v))`` itself."""
    return math.sqrt(v.dot(v))


def _all_finite(v: Array) -> bool:
    """``np.isfinite(v).all()``: a finite sum of squares has only finite terms,
    so one dot product settles the common case; an overflow falls back."""
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


@dataclass(frozen=True)
class ProblemInstance:
    """Equality-constrained problem with deterministic selection oracles.

    ``objective_subgradient`` and ``constraint_jacobian`` return one fixed
    selection from the respective set-valued derivatives; at kinks the
    built-in problems pick the zero element so runs are reproducible.
    ``constraint_jacobian`` returns an ``(n, p)`` matrix whose columns are
    the selections for the individual constraint components.
    """

    dim_primal: int
    dim_constraint: int
    objective: Callable[[Array], float]
    objective_subgradient: Callable[[Array], Array]
    constraint: Callable[[Array], Array]
    constraint_jacobian: Callable[[Array], Array]
    feasible_set: FeasibleSet
    lipschitz_bound_f: float | None = None
    regularity_constant: float | None = None

    def __post_init__(self):
        if self.dim_primal < 1 or self.dim_constraint < 1:
            raise ValueError("dimensions must be >= 1")
        if self.feasible_set.dim != self.dim_primal:
            raise ValueError("feasible set dimension does not match dim_primal")
        if self.lipschitz_bound_f is not None and not self.lipschitz_bound_f > 0:
            raise ValueError("lipschitz_bound_f must be positive when given")
        if self.regularity_constant is not None and not self.regularity_constant > 0:
            raise ValueError("regularity_constant must be positive when given")


@dataclass(frozen=True)
class NoiseModel:
    """Uniformly bounded zero-mean noise: every draw satisfies
    ``max_i |xi_i| <= bound`` exactly."""

    kind: str = "none"  # none | uniform_box | truncated_gaussian
    bound: float = 0.0
    seed: int = 0  # not read yet: run() draws the noise from its own generator

    def __post_init__(self):
        if self.kind not in ("none", "uniform_box", "truncated_gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.bound < math.inf:
            raise ValueError("noise bound must be finite and >= 0")

    def draw(self, rng: np.random.Generator, n) -> Array:
        """A draw of shape ``n`` (an int or a shape tuple). numpy fills a
        ``(K, n)`` draw from the same stream as K successive draws of size n."""
        if self.kind == "none" or self.bound == 0.0:
            return np.zeros(n)
        if self.kind == "uniform_box":
            return rng.uniform(-self.bound, self.bound, n)
        # clipped gaussian stays symmetric, hence zero mean
        return np.clip(rng.normal(0.0, self.bound / 3.0, n), -self.bound, self.bound)


@dataclass(frozen=True)
class StochasticProblemInstance:
    """Problem whose oracles take a sample token drawn from seeded generators.

    ``mean`` carries the averaged problem (analytic where available, full-batch
    otherwise); solvers use it for metrics while the per-sample oracles drive
    the iteration. Token draws for the objective and the constraints come from
    independent ``draw_*`` calls so the two sample spaces stay separate.
    """

    mean: ProblemInstance
    draw_objective_sample: Callable[[np.random.Generator], Any]
    draw_constraint_sample: Callable[[np.random.Generator], Any]
    objective_sample: Callable[[Array, Any], float]
    objective_subgradient_sample: Callable[[Array, Any], Array]
    constraint_sample: Callable[[Array, Any], Array]
    constraint_jacobian_sample: Callable[[Array, Any], Array]

    @property
    def dim_primal(self) -> int:
        return self.mean.dim_primal

    @property
    def dim_constraint(self) -> int:
        return self.mean.dim_constraint

    @property
    def feasible_set(self) -> FeasibleSet:
        return self.mean.feasible_set


# The eval_* functions validate x; the _*_at helpers take an x their caller
# has validated and check only the oracle's output.


def _objective_at(prob: ProblemInstance, x: Array) -> float:
    val = float(prob.objective(x))
    if not math.isfinite(val):
        raise NonFiniteError("objective oracle returned a non-finite value")
    return val


def _constraints_at(prob: ProblemInstance, x: Array) -> Array:
    return as_vector(prob.constraint(x), prob.dim_constraint, "constraint value")


def _jacobian_at(prob: ProblemInstance, x: Array) -> Array:
    J = np.asarray(prob.constraint_jacobian(x), dtype=np.float64)
    if J.shape != (prob.dim_primal, prob.dim_constraint):
        raise OracleError(
            f"jacobian oracle returned shape {J.shape}, expected "
            f"({prob.dim_primal}, {prob.dim_constraint})"
        )
    if not _all_finite(J.ravel("K")):
        raise NonFiniteError("jacobian oracle returned non-finite entries")
    return J


def eval_objective(prob: ProblemInstance, x) -> float:
    """Objective value at ``x``; raises on dimension mismatch or non-finite output."""
    return _objective_at(prob, as_vector(x, prob.dim_primal))


def eval_constraints(prob: ProblemInstance, x) -> Array:
    """Constraint value ``c(x)`` in R^p."""
    return _constraints_at(prob, as_vector(x, prob.dim_primal))


def eval_constraint_jacobian(prob: ProblemInstance, x) -> Array:
    """One Jacobian selection at ``x``, shape ``(n, p)``."""
    return _jacobian_at(prob, as_vector(x, prob.dim_primal))


def as_stochastic(prob: ProblemInstance) -> StochasticProblemInstance:
    """Wrap a deterministic problem as a degenerate sampled one (tokens unused)."""
    return StochasticProblemInstance(
        mean=prob,
        draw_objective_sample=lambda rng: None,
        draw_constraint_sample=lambda rng: None,
        objective_sample=lambda x, tok: prob.objective(x),
        objective_subgradient_sample=lambda x, tok: prob.objective_subgradient(x),
        constraint_sample=lambda x, tok: prob.constraint(x),
        constraint_jacobian_sample=lambda x, tok: prob.constraint_jacobian(x),
    )


def perturbed_instance(
    prob: ProblemInstance, radius: float, seed: int = 0, decay: float = 1.0
) -> ProblemInstance:
    """Robustness wrapper: adds a perturbation of decaying radius
    ``radius / (1 + t)**decay`` to each successive subgradient selection.

    The wrapper keeps a call counter, so unlike the base oracles it is
    stateful; intended for stress tests only.
    """
    rng = np.random.default_rng(seed)
    count = [0]

    def sub(x):
        t = count[0]
        count[0] += 1
        r = radius / (1.0 + t) ** decay
        return prob.objective_subgradient(x) + rng.uniform(-r, r, prob.dim_primal)

    return replace(prob, objective_subgradient=sub)
