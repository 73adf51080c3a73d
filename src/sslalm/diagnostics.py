"""Computable diagnostics: the per-iteration metrics record (penalty and
merit values), projected stationarity residuals, auxiliary functions with
closed-form gradients, Lyapunov values, and an empirical estimator of the
constraint regularity constant. The record, the residual and the auxiliary
and Lyapunov values take one point or a stack of points.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemInstance,
    _constraints_stack,
    _jacobian_at,
    _jacobian_stack,
    _objective_stack,
    _subgradient_stack,
    as_stack,
    as_vector,
    eval_constraints,
)
from .geometry import FeasibleSet, _prox_positive, _shaped, normal_cone_distance


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
        # strict JSON has no NaN or infinity, so a non-finite value (a KKT probe
        # that did not run, an aborting record's overflow) is written null; the
        # fields are plain numbers, and a finite sum has only finite terms
        fields = vars(self)
        if not math.isfinite(self.f_val + self.feas + self.g_val + self.L_val + self.H_val
                             + self.lambda_norm + self.kkt_residual + self.tracker_err
                             + (self.lyapunov or 0.0)):
            fields = {k: v if v is None or math.isfinite(v) else None for k, v in fields.items()}
        return json.dumps(fields)

    @staticmethod
    def from_json_line(line: str) -> "MetricsRecord":
        # a null value is a non-finite one, except a null lyapunov, which is unset
        fields = json.loads(line).items()
        return MetricsRecord(**{k: math.nan if v is None and k != "lyapunov" else v
                                for k, v in fields})


def _matched(a, dim: int, name: str, X: np.ndarray) -> np.ndarray:
    """Validate ``a`` as a stack with one row per row of ``X``."""
    A = as_stack(a, dim, name)[0]
    if len(A) != len(X):
        raise ValueError(f"{name} holds {len(A)} points, x holds {len(X)}")
    return A


def _check_probe(eta_probe: float) -> None:
    """The KKT probe's rule, of ``kkt_residual``, ``assemble_record`` and
    ``run()``: a positive, finite step (an infinite one reads 0 at every point)."""
    if not eta_probe > 0:
        raise ValueError("eta_probe must be positive")
    if not math.isfinite(eta_probe):
        raise ValueError("eta_probe must be finite")


def _check_scale(name: str, value: float, why: str = "") -> None:
    """A rate or prox scale of the certificates is positive and finite: an
    infinite one makes u NaN, or the certificate's u/tau 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}{why}")


# The functions below take one point or a stack of points along a leading axis
# through one code path: a point is a stack of one and gives a float. They
# validate each input once; the oracles run through core's stack helpers, once
# per stack for a problem that takes stacks and else once per point, and every
# other formula, the set's maps included, runs once per stack in the float order
# of the one-point formula; np.vecdot gives each row ndarray.dot's bits, and
# np.matmul each item's (np.matvec would too, but came after numpy 2.0). The
# one-point formulas computed Python floats, which never warn, hence one errstate
# around each function's arrays, from the finiteness checks' v.dot(v) on.


def kkt_residual(prob: ProblemInstance, x, lam, eta_probe: float = 1e-3):
    """Projected-subgradient stationarity residual with the fixed selections.

    Returns ``||x - P(x - eta*(d + J lam))|| / eta``. Zero exactly when the
    fixed selection pair certifies stationarity; at smooth points it tends to
    the norm of the gradient of the Lagrangian as ``eta_probe`` shrinks.
    """
    _check_probe(eta_probe)
    with np.errstate(over="ignore", invalid="ignore"):
        X, point = as_stack(x, prob.dim_primal)
        LAM = _matched(lam, prob.dim_constraint, "lam", X)
        D = _subgradient_stack(prob, X)
        G = np.matmul(_jacobian_stack(prob, X), LAM[:, :, None])[:, :, 0]
        R = X - prob.feasible_set.project(X - eta_probe * (D + G))
        res = np.sqrt(np.vecdot(R, R)) / eta_probe
    return float(res[0]) if point else res


def u_momentum(fset: FeasibleSet, x, y, alpha: float):
    """Auxiliary value ``min_w <w - x, y> + (alpha/2)*||w - x||^2`` over the set.

    Nonpositive whenever ``x`` is feasible; zero only when the momentum has no
    feasible descent direction left.
    """
    _check_scale("alpha", alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        X, point = as_stack(x, fset.dim)
        Y = _matched(y, fset.dim, "y", X)
        D = fset.project(X - Y / alpha) - X
        U = np.vecdot(D, Y) + 0.5 * alpha * np.vecdot(D, D)
    return float(U[0]) if point else U


def u_adam(fset: FeasibleSet, x, y, v, alpha: float, eps: float):
    """Weighted auxiliary value and its closed-form gradients.

    Returns ``(value, grad_x, grad_y, grad_v)`` for
    ``u(x,y,v) = min_z <z - x, y> + (1/(2*alpha)) <sqrt(v+eps)*(z-x), z-x>``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X, point = as_stack(x, fset.dim)
        Y = _matched(y, fset.dim, "y", X)
        V = _matched(v, fset.dim, "v", X)
        if (V < 0).any():
            raise ValueError("second-moment entries must be nonnegative")
        if not eps > 0:
            raise ValueError("eps must be positive")
        if eps == math.inf:
            raise ValueError(f"eps must be finite, got {eps!r}")
        _check_scale("alpha", alpha, ": prox weights must be positive")
        R = np.sqrt(V + eps)
        Z = _prox_positive(fset, X, Y, R / alpha)
        D = Z - X
        value = np.vecdot(D, Y) + np.vecdot(R, D * D) / (2.0 * alpha)
        grad_x = -Y + R * (X - Z) / alpha
        grad_v = (D * D) / (4.0 * alpha * R)
    if point:
        return float(value[0]), grad_x[0], D[0], grad_v[0]
    return value, grad_x, D, grad_v


def _certificate(h_x, u, tau: float):
    """Descent certificate ``h(x) - u/tau`` from the penalty values ``h_x`` and the
    auxiliary values ``u``, one per point of x: a float for one point."""
    _check_scale("tau", tau)
    U = np.asarray(u)
    H = _shaped(h_x, U.shape, "h_x")
    with np.errstate(over="ignore", invalid="ignore"):
        out = H - U / tau
    return float(out) if H.ndim == 0 else out


def lyapunov_momentum(h_x, fset: FeasibleSet, x, y, tau: float, alpha: float):
    """Descent certificate ``h(x) - u_momentum(x, y, 1/alpha)/tau`` for momentum
    runs, given the penalty value ``h_x = h(x)``. ``alpha`` is the step's prox
    scale: the SGDM step moves toward ``P(x - alpha*y)``, the minimizer of
    ``u_momentum`` at scale ``1/alpha``."""
    _check_scale("alpha", alpha)
    # a subnormal alpha's 1/alpha overflows
    _check_scale("1/alpha", 1.0 / float(alpha))
    return _certificate(h_x, u_momentum(fset, x, y, 1.0 / alpha), tau)


def lyapunov_adam(
    h_x,
    fset: FeasibleSet,
    x,
    y,
    v,
    tau1: float,
    alpha: float,
    eps: float,
):
    """Descent certificate ``h(x) - u_adam(x, y, v)/tau1`` for ADAM runs,
    given the penalty value ``h_x = h(x)``."""
    return _certificate(h_x, u_adam(fset, x, y, v, alpha, eps)[0], tau1)


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

    Feasible points carry no information and are skipped; raises if the
    sample is empty or every sample point is feasible.
    """
    points = [as_vector(x, prob.dim_primal) for x in sample_points]
    if not points:
        raise ValueError("the sample is empty; ratio undefined")
    ratios = []
    for x in points:
        c = eval_constraints(prob, x)
        nrm = float(np.linalg.norm(c))
        if nrm <= 1e-12:
            continue
        J = _jacobian_at(prob, x)
        ratios.append(normal_cone_distance(prob.feasible_set, x, J @ c) / nrm)
    if not ratios:
        raise ValueError("all sample points are feasible; ratio undefined")
    return float(min(ratios))


def assemble_record(
    prob: ProblemInstance,
    k,
    x,
    lam,
    w,
    beta: float,
    rho: float,
    kkt_probe: float | None,
    c=None,
):
    """Build one metrics record, the one place where the penalty ``g``, the
    merits ``L`` and ``H`` are computed; ``g_val`` uses the same floats as
    ``f_val`` and ``feas`` so the penalty identity holds bitwise on re-parse.
    ``c`` is the constraint value ``c(x)`` when the caller already holds it.
    The Lyapunov value is left unset; momentum and ADAM runs fill it in from
    ``g_val``. Stacks of ``x``, ``lam``, ``w`` (and ``c``) with a sequence of
    iteration counts ``k`` give a list of records.

    The objective oracle runs on the stack, then the constraint oracle (unless
    ``c`` is given), then the KKT probe's ``kkt_residual``: each oracle once per
    stack for a problem that takes stacks, and else once per point. The first
    error they raise comes out of the whole stack."""
    if kkt_probe is not None:
        _check_probe(kkt_probe)
    with np.errstate(over="ignore", invalid="ignore"):
        X, point = as_stack(x, prob.dim_primal)
        m, p = len(X), prob.dim_constraint
        ks = [k] if point else list(k)
        # w, c and lam hold one p-vector per point
        shape = (p,) if point else (m, p)
        W = _shaped(w, shape, "w").reshape(m, p)
        # the KKT probe checks lam as kkt_residual does, before any oracle runs
        LAM = (_shaped(lam, shape, "lam").reshape(m, p) if kkt_probe is None
               else _matched(lam, p, "lam", X))
        F = _objective_stack(prob, X)
        C = _constraints_stack(prob, X) if c is None else _shaped(c, shape, "c").reshape(m, p)
        kkt = np.full(m, np.nan) if kkt_probe is None else kkt_residual(prob, X, LAM, kkt_probe)
        # the squared norms of c, lam and the tracker error, and then the norms,
        # each in one call over the three stacks
        Q = np.array((C, LAM, W - C))
        sq = np.vecdot(Q, Q)
        feas, lam_norm, track_err = np.sqrt(sq)
        lam_sq = sq[1]
        # rho = 0 yields exactly 0 even when feas**2 overflows
        quad = 0.5 * rho * feas * feas if rho != 0.0 else np.zeros(m)
        g_val = F + beta * feas + quad
        L_val = F + np.vecdot(LAM, C) + quad
        H_val = L_val - feas * lam_sq / (2.0 * beta)
        columns = (F, feas, g_val, L_val, H_val, lam_norm, kkt, track_err)
    records = [MetricsRecord(int(kj), *vals)
               for kj, *vals in zip(ks, *(col.tolist() for col in columns))]
    return records[0] if point else records
