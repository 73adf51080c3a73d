"""Problem model: value/subgradient oracles, sampled-oracle problems, and
bounded zero-mean noise injection.

Oracles are plain callables collected in immutable dataclasses. A problem
never owns randomness; solvers pass their own ``numpy.random.Generator`` so
that runs are reproducible from a single seed.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from inspect import signature
from typing import Any, Callable, Sequence, get_type_hints

import numpy as np

from .geometry import FeasibleSet

Array = np.ndarray


class OracleError(RuntimeError):
    """An oracle returned a non-finite value (``NonFiniteError``), a Jacobian of
    the wrong shape, a stack of values of the wrong shape, or sample draws of the
    wrong count. A subgradient or a constraint value of the wrong shape at one
    point raises ``ValueError``, as every vector the shape check rejects does."""


class NonFiniteError(OracleError):
    """An oracle output or an input vector holds a non-finite value."""


def as_vector(x, dim: int, name: str = "x", finite: bool = True) -> Array:
    """Validate and return ``x`` as a float64 vector of ``dim`` entries, a 0-d
    value as one entry, finite unless ``finite`` is False (then only the shape
    is checked)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if v.size != dim:
        raise ValueError(f"{name} has dimension {v.size}, expected {dim}")
    if finite and not _all_finite(v):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


def as_stack(x, dim: int, name: str = "x") -> tuple[Array, bool]:
    """Validate ``x``, one vector or a stack of vectors along a leading axis, as a
    finite float64 ``(m, dim)`` array, and say whether it was one vector: a stack
    of one, with ``as_vector``'s dimension and finiteness messages."""
    v = np.asarray(x, dtype=np.float64)
    point = v.ndim < 2
    if point:
        v = v.reshape(1, -1)
    elif v.ndim != 2:
        raise ValueError(f"{name} must be 1-d, or 2-d for a stack, got shape {v.shape}")
    if v.shape[1] != dim:
        raise ValueError(f"{name} has dimension {v.shape[1]}, expected {dim}")
    if not _all_finite(v.ravel()):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v, point


def _all_finite(v: Array) -> bool:
    """``np.isfinite(v).all()``: a finite sum of squares has only finite terms,
    so one dot product settles the common case; an overflow falls back."""
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


# The config type rule: a float takes a finite real number but not a bool, an int
# an integral number (``5.0`` and ``np.int64(5)`` too), a str a string, and
# ``float | None`` also None. A check returns the value as its type or raises.


def _check_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value := float(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_value(name: str, hint, value):
    """``value`` under the rule for the annotation ``hint``; other types pass through."""
    if hint is float or hint == float | None and value is not None:
        return _check_number(name, value)
    if hint is int:
        return _check_integer(name, value)
    if hint is str and not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


@functools.cache
def _field_types(obj) -> dict:
    """Each field of the dataclass ``obj``, or parameter of the function ``obj``,
    with its resolved annotation (None where it has none)."""
    hints = get_type_hints(obj)
    names = [f.name for f in fields(obj)] if is_dataclass(obj) else signature(obj).parameters
    return {name: hints.get(name) for name in names}


def _check_fields(config) -> None:
    """Apply the type rule to each field of the frozen dataclass ``config`` and
    store each value as its type: the first step of every config's ``__post_init__``."""
    for name, hint in _field_types(type(config)).items():
        value = getattr(config, name)
        # a value of its declared type needs no check, unless a non-finite float
        if type(value) is not hint or hint is float and not math.isfinite(value):
            object.__setattr__(config, name, _check_value(name, hint, value))


@dataclass(frozen=True)
class ProblemInstance:
    """Equality-constrained problem with deterministic selection oracles.

    ``objective_subgradient`` and ``constraint_jacobian`` return one fixed
    selection from the respective set-valued derivatives; at kinks the
    built-in problems pick the zero element so runs are reproducible.
    ``constraint_jacobian`` returns an ``(n, p)`` matrix whose columns are
    the selections for the individual constraint components.

    ``stacks`` declares that each oracle also takes an ``(m, n)`` stack of
    points and returns the stack of its values, shaped ``(m,)``, ``(m, n)``,
    ``(m, p)`` or ``(m, n, p)``, each row bitwise the value of the call at that
    row's point. The records then call each oracle once per stack of points.
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
    stacks: bool = False

    def __post_init__(self):
        if self.dim_primal < 1 or self.dim_constraint < 1:
            raise ValueError("dimensions must be >= 1")
        if self.feasible_set.dim != self.dim_primal:
            raise ValueError("feasible set dimension does not match dim_primal")
        if self.lipschitz_bound_f is not None and not self.lipschitz_bound_f > 0:
            raise ValueError("lipschitz_bound_f must be positive when given")
        if self.regularity_constant is not None and not self.regularity_constant > 0:
            raise ValueError("regularity_constant must be positive when given")


# each noise kind with the NoiseModel fields it reads
NOISE_KINDS = {"none": (), "uniform_box": ("bound",), "truncated_gaussian": ("bound",)}


@dataclass(frozen=True)
class NoiseModel:
    """Uniformly bounded zero-mean noise: every draw satisfies
    ``max_i |xi_i| <= bound`` exactly."""

    kind: str = "none"
    bound: float = 0.0
    seed: int = 0  # read by no kind: run() draws the noise from its own generator

    def __post_init__(self):
        _check_fields(self)
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if "bound" in NOISE_KINDS[self.kind] and self.bound < 0.0:
            raise ValueError("noise bound must be >= 0")

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
    A token is the sample itself: every sampled oracle is a function of
    ``(x, token)`` alone, so calls that share a token share the sample.

    ``draw_*(gen, size)`` returns a sequence of ``size`` tokens. They equal,
    bit for bit, the tokens of ``size`` successive one-token draws
    ``draw_*(gen, 1)[0]``, and leave ``gen`` in the same state, so a solver
    may draw its tokens in blocks of any size.
    """

    mean: ProblemInstance
    draw_objective_sample: Callable[[np.random.Generator, int], Sequence]
    draw_constraint_sample: Callable[[np.random.Generator, int], Sequence]
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


# The eval_* functions validate x; the _*_at helpers take an x their caller
# has validated and check only the oracle's output, and the _*_stack helpers do
# so at each row of a validated (m, n) stack X, with the messages of the point.


def _objective_at(prob: ProblemInstance, x: Array) -> float:
    val = float(prob.objective(x))
    if not math.isfinite(val):
        raise NonFiniteError("objective oracle returned a non-finite value")
    return val


def _constraints_at(prob: ProblemInstance, x: Array) -> Array:
    return as_vector(prob.constraint(x), prob.dim_constraint, "constraint value")


def _jacobian_shape_error(J: Array, n: int, p: int) -> OracleError:
    return OracleError(f"jacobian oracle returned shape {J.shape}, expected ({n}, {p})")


def _jacobian_at(prob: ProblemInstance, x: Array) -> Array:
    J = np.asarray(prob.constraint_jacobian(x), dtype=np.float64)
    if J.shape != (prob.dim_primal, prob.dim_constraint):
        raise _jacobian_shape_error(J, prob.dim_primal, prob.dim_constraint)
    if not _all_finite(J.ravel("K")):
        raise NonFiniteError("jacobian oracle returned non-finite entries")
    return J


# The stack helpers are the one place that tells a problem that takes stacks
# from one that does not: the first gets one oracle call on the whole stack, the
# second one call per row, in row order.


def _stacked(oracle, X: Array, shape: tuple, name: str, nonfinite: str) -> Array:
    """``oracle(X)`` as a C-ordered float64 array of ``shape``, as the per-row
    stacks are, checked for its shape and then for finiteness, which raises
    ``NonFiniteError(nonfinite)``."""
    V = np.ascontiguousarray(oracle(X), dtype=np.float64)
    if V.shape != shape:
        raise OracleError(f"{name} oracle returned shape {V.shape} on a stack, expected {shape}")
    if not _all_finite(V.ravel()):
        raise NonFiniteError(nonfinite)
    return V


def _objective_stack(prob: ProblemInstance, X: Array) -> Array:
    if prob.stacks:
        return _stacked(prob.objective, X, (len(X),), "objective",
                        "objective oracle returned a non-finite value")
    return np.array([_objective_at(prob, x) for x in X], dtype=np.float64)


def _subgradient_stack(prob: ProblemInstance, X: Array) -> Array:
    if prob.stacks:
        return _stacked(prob.objective_subgradient, X, X.shape, "subgradient",
                        "subgradient contains non-finite entries")
    D = np.empty_like(X)
    for j, x in enumerate(X):
        D[j] = as_vector(prob.objective_subgradient(x), prob.dim_primal, "subgradient")
    return D


def _constraints_stack(prob: ProblemInstance, X: Array) -> Array:
    if prob.stacks:
        return _stacked(prob.constraint, X, (len(X), prob.dim_constraint), "constraint",
                        "constraint value contains non-finite entries")
    C = np.empty((len(X), prob.dim_constraint))
    for j, x in enumerate(X):
        C[j] = _constraints_at(prob, x)
    return C


def _jacobian_stack(prob: ProblemInstance, X: Array) -> Array:
    shape = (len(X), prob.dim_primal, prob.dim_constraint)
    if prob.stacks:
        return _stacked(prob.constraint_jacobian, X, shape, "jacobian",
                        "jacobian oracle returned non-finite entries")
    J = np.empty(shape)
    for j, x in enumerate(X):
        J[j] = _jacobian_at(prob, x)
    return J


def eval_constraints(prob: ProblemInstance, x) -> Array:
    """Constraint value ``c(x)`` in R^p."""
    return _constraints_at(prob, as_vector(x, prob.dim_primal))


def eval_constraint_jacobian(prob: ProblemInstance, x) -> Array:
    """One Jacobian selection at ``x``, shape ``(n, p)``."""
    return _jacobian_at(prob, as_vector(x, prob.dim_primal))


def as_stochastic(prob) -> StochasticProblemInstance:
    """A sampled problem unchanged; a deterministic one wrapped as a degenerate
    sampled one, whose tokens are None and whose draws take nothing from the
    generator. The one place the package tells the two problem types apart."""
    if isinstance(prob, StochasticProblemInstance):
        return prob
    # each wrapper binds its oracle once instead of looking it up on every call
    objective, subgradient = prob.objective, prob.objective_subgradient
    constraint, jacobian = prob.constraint, prob.constraint_jacobian
    return StochasticProblemInstance(
        mean=prob,
        draw_objective_sample=lambda rng, size: [None] * size,
        draw_constraint_sample=lambda rng, size: [None] * size,
        objective_sample=lambda x, tok: objective(x),
        objective_subgradient_sample=lambda x, tok: subgradient(x),
        constraint_sample=lambda x, tok: constraint(x),
        constraint_jacobian_sample=lambda x, tok: jacobian(x),
    )

