"""Computable diagnostics: the per-iteration metrics record (penalty and
merit values), projected stationarity residuals, auxiliary functions with
closed-form gradients, Lyapunov values, and an empirical estimator of the
constraint regularity constant.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemInstance,
    _constraints_at,
    _jacobian_at,
    _norm,
    _objective_at,
    as_vector,
    eval_constraint_jacobian,
    eval_constraints,
)
from .geometry import FeasibleSet, _prox_positive, normal_cone_distance


@dataclass
class MetricsRecord:
    """Per-iteration diagnostics; ``g_val`` is always assembled from
    ``f_val`` and ``feas`` through the exact penalty formula. Momentum and
    ADAM runs set ``lyapunov`` on the record ``assemble_record`` built."""

    k: int
    f_val: float
    feas: float
    g_val: float
    L_val: float
    H_val: float
    lambda_norm: float
    kkt_residual: float
    tracker_err: float
    lyapunov: float | None = None

    def to_json_line(self) -> str:
        # the fields are plain numbers, so no deep copy is needed
        return json.dumps(vars(self))

    @staticmethod
    def from_json_line(line: str) -> "MetricsRecord":
        return MetricsRecord(**json.loads(line))


def _quad(rho: float, feas: float) -> float:
    # written so rho = 0 yields exactly 0 even when feas**2 overflows
    return 0.5 * rho * feas * feas if rho != 0.0 else 0.0


def kkt_residual(prob: ProblemInstance, x, lam, eta_probe: float = 1e-3) -> float:
    """Projected-subgradient stationarity residual with the fixed selections.

    Returns ``||x - P(x - eta*(d + J lam))|| / eta``. Zero exactly when the
    fixed selection pair certifies stationarity; at smooth points it tends to
    the norm of the gradient of the Lagrangian as ``eta_probe`` shrinks.
    """
    if eta_probe <= 0:
        raise ValueError("eta_probe must be positive")
    x = as_vector(x, prob.dim_primal)
    lam = as_vector(lam, prob.dim_constraint, "lam")
    d = as_vector(prob.objective_subgradient(x), prob.dim_primal, "subgradient")
    J = _jacobian_at(prob, x)
    step = prob.feasible_set.project(x - eta_probe * (d + J @ lam))
    return _norm(x - step) / eta_probe


def u_momentum(fset: FeasibleSet, x, y, alpha: float) -> float:
    """Auxiliary value ``min_w <w - x, y> + (alpha/2)*||w - x||^2`` over the set.

    Nonpositive whenever ``x`` is feasible; zero only when the momentum has no
    feasible descent direction left.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    x = as_vector(x, fset.dim)
    y = as_vector(y, fset.dim, "y")
    w = fset.project(x - y / alpha)
    d = w - x
    return float(d @ y) + 0.5 * alpha * float(d @ d)


def _u_adam_parts(fset: FeasibleSet, x, y, v, alpha: float, eps: float):
    """Validate the inputs once; return ``(x, y, root, z, d, value)`` with
    ``root = sqrt(v + eps)``, the weighted prox point ``z`` and ``d = z - x``."""
    x = as_vector(x, fset.dim)
    y = as_vector(y, fset.dim, "y")
    v = as_vector(v, fset.dim, "v")
    if (v < 0).any():
        raise ValueError("second-moment entries must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}: prox weights must be positive")
    root = np.sqrt(v + eps)
    z = _prox_positive(fset, x, y, root / alpha)
    d = z - x
    value = float(d @ y) + float(root @ (d * d)) / (2.0 * alpha)
    return x, y, root, z, d, value


def u_adam(fset: FeasibleSet, x, y, v, alpha: float, eps: float):
    """Weighted auxiliary value and its closed-form gradients.

    Returns ``(value, grad_x, grad_y, grad_v)`` for
    ``u(x,y,v) = min_z <z - x, y> + (1/(2*alpha)) <sqrt(v+eps)*(z-x), z-x>``.
    """
    x, y, root, z, d, value = _u_adam_parts(fset, x, y, v, alpha, eps)
    grad_x = -y + root * (x - z) / alpha
    grad_y = d
    grad_v = (d * d) / (4.0 * alpha * root)
    return value, grad_x, grad_y, grad_v


def lyapunov_momentum(h_x: float, fset: FeasibleSet, x, y, tau: float, alpha: float) -> float:
    """Descent certificate ``h(x) - u_momentum(x, y)/tau`` for momentum runs,
    given the penalty value ``h_x = h(x)``."""
    return float(h_x) - u_momentum(fset, x, y, alpha) / tau


def lyapunov_adam(
    h_x: float,
    fset: FeasibleSet,
    x,
    y,
    v,
    tau1: float,
    alpha: float,
    eps: float,
) -> float:
    """Descent certificate ``h(x) - u_adam(x, y, v)/tau1`` for ADAM runs,
    given the penalty value ``h_x = h(x)``."""
    value = _u_adam_parts(fset, x, y, v, alpha, eps)[-1]
    return float(h_x) - value / tau1


def exact_penalty_margin(prob: ProblemInstance, beta: float) -> float | None:
    """Margin ``beta - M_f / nu`` when both constants are known, else None.

    A positive margin certifies that stationary points of the penalty are
    feasible, so the dual-ball radius ``beta`` is large enough for the
    instance.
    """
    if prob.lipschitz_bound_f is None or prob.regularity_constant is None:
        return None
    return beta - prob.lipschitz_bound_f / prob.regularity_constant


def estimate_regularity(prob: ProblemInstance, sample_points) -> float:
    """Smallest observed ratio ``dist(-J c(x), N(x)) / ||c(x)||`` over the
    sample, an upper bound on the best constant certifiable from these points.

    Feasible points carry no information and are skipped; raises if every
    sample is feasible.
    """
    ratios = []
    for x in sample_points:
        c = eval_constraints(prob, x)
        nrm = float(np.linalg.norm(c))
        if nrm <= 1e-12:
            continue
        J = eval_constraint_jacobian(prob, x)
        ratios.append(normal_cone_distance(prob.feasible_set, x, J @ c) / nrm)
    if not ratios:
        raise ValueError("all sample points are feasible; ratio undefined")
    return float(min(ratios))


def assemble_record(
    prob: ProblemInstance,
    k: int,
    x: np.ndarray,
    lam: np.ndarray,
    w: np.ndarray,
    beta: float,
    rho: float,
    kkt_probe: float | None,
    c: np.ndarray | None = None,
) -> MetricsRecord:
    """Build one metrics record, the one place where the penalty ``g``, the
    merits ``L`` and ``H`` are computed; ``g_val`` uses the same floats as
    ``f_val`` and ``feas`` so the penalty identity holds bitwise on re-parse.
    ``c`` is the constraint value ``c(x)`` when the caller already holds it.
    The Lyapunov value is left unset; momentum and ADAM runs fill it in from
    ``g_val``."""
    x = as_vector(x, prob.dim_primal)
    f_val = _objective_at(prob, x)
    if c is None:
        c = _constraints_at(prob, x)
    feas = _norm(c)
    quad = _quad(rho, feas)
    g_val = f_val + beta * feas + quad
    L_val = f_val + float(lam @ c) + quad
    H_val = L_val - feas * float(lam @ lam) / (2.0 * beta)
    kkt = kkt_residual(prob, x, lam, kkt_probe) if kkt_probe is not None else float("nan")
    return MetricsRecord(
        k=int(k),
        f_val=f_val,
        feas=feas,
        g_val=g_val,
        L_val=L_val,
        H_val=H_val,
        lambda_norm=_norm(lam),
        kkt_residual=kkt,
        tracker_err=_norm(w - c),
    )
