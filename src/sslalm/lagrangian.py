"""Single-loop Lagrangian drivers for equality-constrained nonsmooth problems.

One iteration performs, in order: a primal step of the embedded subgradient
method on a noisy Lagrangian direction, a constraint-tracker update, and a
multiplier update that consumes the *new* tracker value. Two dual rules are
available: the normalized ascent step (which contracts the multiplier toward
the ball of radius ``beta``) and a safeguarded classical ascent baseline with
an optional inner-step budget between dual updates.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    NoiseModel,
    NonFiniteError,
    _all_finite,
    _check_fields,
    _check_integer,
    _jacobian_shape_error,
    _norm,
    as_stochastic,
    as_vector,
    eval_constraints,
)
from .diagnostics import MetricsRecord, assemble_record, lyapunov_adam, lyapunov_momentum
from .methods import PROX_ADAM, PROX_SGDM, MethodConfig, method_step, split_adam_state

REGU_ZERO_TOL = 1e-14

# run() draws the noise this many rows at a time
NOISE_CHUNK = 256

# each schedule kind with the StepSchedule fields it reads, and each tracker
# and dual kind with the SolverConfig fields it reads
SCHEDULE_KINDS = {"constant": ("c",), "inv_sqrt_epoch": ("c", "epoch_len"),
                  "power": ("c", "exponent")}
TRACKER_KINDS = {"exact": (), "correction": ("tau_tilde",)}
DUAL_KINDS = {"regu": (), "ialm": ("beta_tilde", "sigma", "theta_tilde", "inner_steps")}


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize sequence: ``constant`` emits ``c``; ``inv_sqrt_epoch`` emits
    ``c / sqrt(s + 1)`` with ``s = k // epoch_len``; ``power`` emits
    ``c / (k + 1)**exponent`` with exponent in (0.5, 1]."""

    kind: str = "constant"
    c: float = 0.1
    epoch_len: int = 1
    exponent: float = 1.0

    def __post_init__(self):
        _check_fields(self)
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.c < 0:
            raise ValueError("schedule scale must be nonnegative")
        if self.epoch_len < 1:
            raise ValueError("epoch_len must be >= 1")
        if self.kind == "power" and not (0.5 < self.exponent <= 1.0):
            raise ValueError("power schedule exponent must lie in (0.5, 1]")

    def __call__(self, k: int) -> float:
        if self.kind == "constant":
            return self.c
        if self.kind == "inv_sqrt_epoch":
            return self.c / math.sqrt(k // self.epoch_len + 1)
        return self.c / (k + 1) ** self.exponent

    @property
    def max_value(self) -> float:
        # all three kinds are nonincreasing in k
        return self.c


@dataclass(frozen=True)
class SolverConfig:
    """All scalar parameters of the single-loop drivers. ``theta`` must stay
    strictly below ``beta`` so the multiplier update contracts; the largest
    ``eta`` must pass ``MethodConfig.check_stepsize``."""

    method: MethodConfig = field(default_factory=MethodConfig)
    rho: float = 0.0
    beta: float = 1.0
    theta: StepSchedule = field(default_factory=lambda: StepSchedule("constant", 0.5))
    eta: StepSchedule = field(default_factory=lambda: StepSchedule("inv_sqrt_epoch", 0.1))
    tracker: str = "exact"
    tau_tilde: float = 1.0
    dual: str = "regu"
    beta_tilde: float = 1.0
    sigma: float = 2.0
    theta_tilde: float = 1.0
    inner_steps: int = 1
    noise: NoiseModel = field(default_factory=NoiseModel)
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.theta.max_value >= self.beta:
            raise ValueError("dual stepsizes require theta_max < beta")
        self.method.check_stepsize(self.eta.max_value)
        if self.tracker not in TRACKER_KINDS:
            raise ValueError(f"unknown tracker {self.tracker!r}")
        if self.tracker == "correction":
            if self.tau_tilde <= 0:
                raise ValueError("tau_tilde must be positive")
            if self.tau_tilde * self.eta.max_value > 1.0:
                raise ValueError("correction tracker requires tau_tilde * eta_max <= 1")
        if self.dual not in DUAL_KINDS:
            raise ValueError(f"unknown dual rule {self.dual!r}")
        if self.dual == "ialm":
            if self.beta_tilde <= 0 or self.sigma <= 1.0 or self.theta_tilde <= 0:
                raise ValueError("ialm dual requires beta_tilde > 0, sigma > 1, theta_tilde > 0")
            if self.inner_steps < 1:
                raise ValueError("inner_steps must be >= 1")
        elif self.inner_steps != 1:
            raise ValueError("inner_steps > 1 only applies to the ialm dual")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


class LagrangianState(NamedTuple):
    """One solver state: the primal point ``x``, the embedded method's auxiliary
    block ``y`` (of size ``method.aux_dim(n)``), the multipliers ``lam``, the
    tracker ``w`` and the iteration count ``k``. An immutable named tuple:
    every step builds one, and a tuple is the cheapest immutable record."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    w: np.ndarray
    k: int = 0


@dataclass
class RunResult:
    records: list
    state: LagrangianState
    abort_reason: str | None = None
    max_contraction_slack: float = float("nan")
    max_dual_excess: float = float("nan")
    wall_time_s: float = 0.0

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def regu(y) -> np.ndarray:
    """Normalize to the unit sphere; vectors with norm <= REGU_ZERO_TOL map to 0."""
    y = np.asarray(y, dtype=np.float64)
    nrm = _norm(y)
    if nrm <= REGU_ZERO_TOL:
        return np.zeros_like(y)
    return y / nrm


def dual_step_regu(lam, w_next, theta: float, beta: float) -> np.ndarray:
    """Normalized dual ascent ``lam + theta * (regu(w_next) - lam/beta)``.

    For ``theta < beta`` each step contracts ``||lam|| - beta`` by the factor
    ``1 - theta/beta``, so the multipliers stay in a ball of radius ``beta``
    once they enter it.
    """
    if not 0.0 <= theta < beta:
        raise ValueError("dual step requires 0 <= theta < beta")
    lam = np.asarray(lam, dtype=np.float64)
    return lam + theta * (regu(w_next) - lam / beta)


def dual_step_ialm(
    lam, c_next, theta_tilde: float, beta_tilde: float, sigma: float, k: int
) -> np.ndarray:
    """Safeguarded classical ascent ``lam + min(theta~/||c||, beta~*sigma^k) * c``."""
    if not (beta_tilde > 0 and sigma > 1.0):
        raise ValueError("ialm dual requires beta_tilde > 0 and sigma > 1")
    lam = np.asarray(lam, dtype=np.float64)
    c_next = np.asarray(c_next, dtype=np.float64)
    nrm = _norm(c_next)
    if nrm <= REGU_ZERO_TOL:
        return lam.copy()
    if k * math.log(sigma) > 700.0:
        cap = float("inf")
    else:
        cap = beta_tilde * sigma**k
    return lam + min(theta_tilde / nrm, cap) * c_next


def track_correction(w, c_at_x, c_at_xnext, tau_tilde: float, eta: float) -> np.ndarray:
    """Single-timescale tracker with a shared-sample correction term:
    ``w - tau~*eta*(w - C(x)) + C(x_next) - C(x)``."""
    if not tau_tilde * eta <= 1.0:
        raise ValueError("correction tracker requires tau_tilde * eta <= 1")
    w = np.asarray(w, dtype=np.float64)
    c_at_x = np.asarray(c_at_x, dtype=np.float64)
    c_at_xnext = np.asarray(c_at_xnext, dtype=np.float64)
    return w - tau_tilde * eta * (w - c_at_x) + c_at_xnext - c_at_x


class _Driver:
    """Resolved callables and per-run bookkeeping for one (problem, config) pair;
    a problem with exact oracles runs as a sampled one whose samples are exact."""

    def __init__(self, prob, config: SolverConfig):
        prob = as_stochastic(prob)
        self.config = config
        self.prob = prob
        self.mean = prob.mean
        self.fset = self.mean.feasible_set
        self.n = self.mean.dim_primal
        self.p = self.mean.dim_constraint
        self._d_shape, self._c_shape, self._jac_shape = (self.n,), (self.p,), (self.n, self.p)
        self.use_noise = config.noise.kind != "none" and config.noise.bound > 0.0
        self.max_contraction_slack = -math.inf
        self.max_dual_excess = -math.inf
        self._burned_in = False
        # the last regu multiplier and its norm, reused as the next step's ||lam||
        self._last_lam, self._last_norm = None, 0.0
        # the exact tracker holds c(x) itself, bit for bit, and draws no sample
        self._w_is_c = config.tracker == "exact"
        self._regu = config.dual == "regu"
        # the descent certificates of the methods that have one; any other
        # kind records no Lyapunov value
        mc = config.method
        self._lyapunov = {
            PROX_SGDM: lambda g, s: lyapunov_momentum(g, self.fset, s.x, s.y, mc.tau, mc.alpha),
            PROX_ADAM: lambda g, s: lyapunov_adam(
                g, self.fset, s.x, *split_adam_state(s.y), mc.tau1, mc.alpha, mc.eps
            ),
        }.get(mc.kind, lambda g, s: None)

    def initial_state(self, x0, rng) -> LagrangianState:
        if x0 is None:
            x0 = np.zeros(self.n)
        x0 = self.fset.project(as_vector(x0, self.n, "x0"))
        y0 = np.zeros(self.config.method.aux_dim(self.n))
        if self._w_is_c:
            w0 = eval_constraints(self.mean, x0)
        else:
            tok = self.prob.draw_constraint_sample(rng)
            w0 = as_vector(self.prob.constraint_sample(x0, tok), self.p, "C(x0)")
        return LagrangianState(x=x0, y=y0, lam=np.zeros(self.p), w=w0, k=0)

    def step(self, state: LagrangianState, rng, noise):
        """One iteration: ``rng`` draws the sample tokens (the tracker pair
        shares one constraint token, the Jacobian draws its own) and ``noise``
        is this step's noise row, None when the run injects no noise."""
        x, y, lam, w, k = state
        cfg = self.config
        prob = self.prob
        eta = cfg.eta(k)

        d = np.asarray(prob.objective_subgradient_sample(x, prob.draw_objective_sample(rng)),
                       dtype=np.float64)
        tok_c = None if self._w_is_c else prob.draw_constraint_sample(rng)
        J = np.asarray(prob.constraint_jacobian_sample(x, prob.draw_constraint_sample(rng)),
                       dtype=np.float64)
        # shapes only: the direction's finiteness check covers the values
        if d.shape != self._d_shape:
            d = as_vector(d, self.n, "subgradient", finite=False)
        if J.shape != self._jac_shape:
            raise _jacobian_shape_error(J, self.n, self.p)

        # ndarray.dot gives matmul's bits for a matrix times a vector, at half
        # its call cost; the adds go in place into the new product
        direction = J.dot(lam + cfg.rho * w)
        direction += d
        if self.use_noise:
            direction += noise
        if not _all_finite(direction):
            return state, "non-finite primal direction"

        x_next, y_next = method_step(self.fset, x, y, direction, eta, cfg.method)
        # each part of the new state is checked for finiteness once, before
        # anything is computed from it; the constraint values only for their
        # shape, as their finiteness is checked with w_next
        if not _all_finite(x_next):
            return state, "non-finite state"
        c_shape = self._c_shape
        if self._w_is_c:
            w_next = np.asarray(self.mean.constraint(x_next), dtype=np.float64)
            if w_next.shape != c_shape:
                w_next = as_vector(w_next, self.p, "constraint value", finite=False)
        else:
            c_x = np.asarray(prob.constraint_sample(x, tok_c), dtype=np.float64)
            if c_x.shape != c_shape:
                c_x = as_vector(c_x, self.p, "constraint value", finite=False)
            c_xn = np.asarray(prob.constraint_sample(x_next, tok_c), dtype=np.float64)
            if c_xn.shape != c_shape:
                c_xn = as_vector(c_xn, self.p, "constraint value", finite=False)
            w_next = track_correction(w, c_x, c_xn, cfg.tau_tilde, eta)
        if not _all_finite(w_next):
            return state, "non-finite state"

        if self._regu:
            # the step plus its contraction bookkeeping
            beta = cfg.beta
            theta = cfg.theta(k)
            lam_next = dual_step_regu(lam, w_next, theta, beta)
            pre = self._last_norm if self._last_lam is lam else _norm(lam)
            post = _norm(lam_next)
            self._last_lam, self._last_norm = lam_next, post
            slack = (post - beta) - (1.0 - theta / beta) * (pre - beta)
            if slack > self.max_contraction_slack:
                self.max_contraction_slack = slack
            if not self._burned_in and pre <= beta:
                self._burned_in = True
            if self._burned_in and post - beta > self.max_dual_excess:
                self.max_dual_excess = post - beta
            # a finite norm has only finite entries under it
            if not (math.isfinite(post) or bool(np.isfinite(lam_next).all())):
                return state, "non-finite state"
        elif (k + 1) % cfg.inner_steps == 0:
            # an ialm step every inner_steps iterations
            n_dual = (k + 1) // cfg.inner_steps - 1
            lam_next = dual_step_ialm(lam, w_next, cfg.theta_tilde, cfg.beta_tilde, cfg.sigma,
                                      n_dual)
            if not _all_finite(lam_next):
                return state, "non-finite state"
        else:
            lam_next = lam
        return LagrangianState(x_next, y_next, lam_next, w_next, k + 1), None

    def metrics(self, state: LagrangianState, kkt_probe: float | None) -> MetricsRecord:
        cfg = self.config
        rec = assemble_record(
            self.mean, state.k, state.x, state.lam, state.w, cfg.beta, cfg.rho, kkt_probe,
            c=state.w if self._w_is_c else None,
        )
        # the Lyapunov value reuses the record's penalty value g(x)
        rec.lyapunov = self._lyapunov(rec.g_val, state)
        return rec


def run(
    prob,
    config: SolverConfig,
    x0=None,
    record_every: int = 10,
    kkt_probe: float | None = 1e-3,
) -> RunResult:
    """Execute ``config.max_iters`` iterations from a fresh seeded generator.

    Metrics are recorded at iteration 0, every ``record_every`` iterations,
    and at the final state. On a non-finite state, or a non-finite value in
    a later record (its own numbers, or an oracle it evaluates), the run stops
    and the partial trajectory is returned with its ``abort_reason`` set.

    The noise is drawn from the run's generator ``NOISE_CHUNK`` rows at a
    time: the block for steps ``k`` to ``k + NOISE_CHUNK - 1`` at step ``k``,
    before that step's sample tokens.
    """
    record_every = _check_integer("record_every", record_every)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    t0 = time.perf_counter()
    # numpy's overflow and invalid-value warnings would only leak to stderr: the
    # finiteness checks' v.dot(v) overflows on finite entries above about 1e154, and
    # an overflowed auxiliary block gives inf - inf, then a NaN point, at the next
    # step; the run checks every point it computes and stops with a named reason
    with np.errstate(over="ignore", invalid="ignore"):
        driver = _Driver(prob, config)
        rng = np.random.default_rng(config.seed)
        state = driver.initial_state(x0, rng)
        records = [driver.metrics(state, kkt_probe)]
        reason = None
        noise = None
        for k in range(config.max_iters):
            if driver.use_noise:
                row = k % NOISE_CHUNK
                if row == 0:
                    rows = min(NOISE_CHUNK, config.max_iters - k)
                    block = config.noise.draw(rng, (rows, driver.n))
                noise = block[row]
            state_next, reason = driver.step(state, rng, noise)
            if reason is not None:
                break
            state = state_next
            if (k + 1) % record_every == 0 or k + 1 == config.max_iters:
                try:
                    rec = driver.metrics(state, kkt_probe)
                except NonFiniteError:
                    # an oracle turned non-finite at x; the records so far stand
                    reason = "non-finite metrics"
                    break
                records.append(rec)
                # a diverging run can overflow its diagnostics while the raw state
                # is still representable; keep the offending record and stop
                core_vals = (rec.f_val, rec.feas, rec.g_val, rec.L_val, rec.H_val,
                             rec.lambda_norm, rec.tracker_err)
                if not all(math.isfinite(v) for v in core_vals):
                    reason = "non-finite metrics"
                    break
    slack = driver.max_contraction_slack
    excess = driver.max_dual_excess
    return RunResult(
        records=records,
        state=state,
        abort_reason=reason,
        max_contraction_slack=float("nan") if slack == -math.inf else slack,
        max_dual_excess=float("nan") if excess == -math.inf else excess,
        wall_time_s=time.perf_counter() - t0,
    )
