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

import numpy as np

from .core import (
    NoiseModel,
    NonFiniteError,
    StochasticProblemInstance,
    _all_finite,
    _norm,
    as_vector,
    eval_constraints,
)
from .diagnostics import MetricsRecord, assemble_record, lyapunov_adam, lyapunov_momentum
from .methods import (
    PROX_ADAM,
    PROX_SGDM,
    EmbeddedMethodState,
    MethodConfig,
    init_method_state,
    method_step,
    split_adam_state,
)

REGU_ZERO_TOL = 1e-14

# run() draws the noise of deterministic problems this many rows at a time
NOISE_CHUNK = 256

TRACKER_KINDS = ("exact", "correction")
DUAL_KINDS = ("regu", "ialm")
SCHEDULE_KINDS = ("constant", "inv_sqrt_epoch", "power")


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
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.c < 0:
            raise ValueError("schedule scale must be nonnegative")
        if isinstance(self.epoch_len, float) and not self.epoch_len.is_integer():
            raise ValueError("epoch_len must be an integer")
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
    """All scalar parameters of the single-loop drivers.

    ``theta`` must stay strictly below ``beta`` so the multiplier update
    contracts; ``eta`` must be positive, and is additionally capped at 1 for
    the momentum and ADAM methods to preserve feasibility of the convex
    combination step.
    """

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
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.theta.max_value >= self.beta:
            raise ValueError("dual stepsizes require theta_max < beta")
        if self.eta.c <= 0:
            raise ValueError("eta schedule must be positive")
        if self.method.kind in (PROX_SGDM, PROX_ADAM) and self.eta.max_value > 1.0:
            raise ValueError("eta_max <= 1 required for momentum and ADAM steps")
        if self.method.kind == PROX_ADAM and self.eta.max_value * self.method.tau2 > 1.0:
            raise ValueError("eta_max * tau2 <= 1 required to keep the ADAM second moment nonnegative")
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


@dataclass(frozen=True)
class LagrangianState:
    method_state: EmbeddedMethodState
    lam: np.ndarray
    w: np.ndarray
    k: int = 0

    @property
    def x(self) -> np.ndarray:
        return self.method_state.x


@dataclass
class RunResult:
    records: list
    state: LagrangianState
    aborted: bool = False
    abort_reason: str | None = None
    max_contraction_slack: float = float("nan")
    max_dual_excess: float = float("nan")
    wall_time_s: float = 0.0

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def regu(y, zero_tol: float = REGU_ZERO_TOL) -> np.ndarray:
    """Normalize to the unit sphere; vectors with norm <= zero_tol map to 0."""
    y = np.asarray(y, dtype=np.float64)
    nrm = _norm(y)
    if nrm <= zero_tol:
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
    if beta_tilde <= 0 or sigma <= 1.0:
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
    if tau_tilde * eta > 1.0:
        raise ValueError("correction tracker requires tau_tilde * eta <= 1")
    w = np.asarray(w, dtype=np.float64)
    c_at_x = np.asarray(c_at_x, dtype=np.float64)
    c_at_xnext = np.asarray(c_at_xnext, dtype=np.float64)
    return w - tau_tilde * eta * (w - c_at_x) + c_at_xnext - c_at_x


class _Driver:
    """Resolved callables and per-run bookkeeping for one (problem, config) pair."""

    def __init__(self, prob, config: SolverConfig):
        self.config = config
        self.stochastic = isinstance(prob, StochasticProblemInstance)
        self.prob = prob
        self.mean = prob.mean if self.stochastic else prob
        self.fset = self.mean.feasible_set
        self.n = self.mean.dim_primal
        self.p = self.mean.dim_constraint
        self.use_noise = config.noise.kind != "none" and config.noise.bound > 0.0
        self.max_contraction_slack = -math.inf
        self.max_dual_excess = -math.inf
        self._burned_in = False
        # the last regu multiplier and its norm, reused as the next step's ||lam||
        self._lam_norm = (None, 0.0)

    def initial_state(self, x0, rng) -> LagrangianState:
        if x0 is None:
            x0 = np.zeros(self.n)
        x0 = self.fset.project(as_vector(x0, self.n, "x0"))
        ms = init_method_state(self.config.method, x0)
        lam0 = np.zeros(self.p)
        if self.stochastic and self.config.tracker == "correction":
            tok = self.prob.draw_constraint_sample(rng)
            w0 = as_vector(self.prob.constraint_sample(x0, tok), self.p, "C(x0)")
        else:
            w0 = eval_constraints(self.mean, x0)
        return LagrangianState(method_state=ms, lam=lam0, w=w0, k=0)

    def constraint(self, x) -> np.ndarray:
        """``c(x)`` at a finite iterate the driver made: the oracle's output is
        shape-checked here and checked for finiteness with the new state."""
        return as_vector(self.mean.constraint(x), self.p, "constraint value", finite=False)

    def step(self, state: LagrangianState, rng, noise=None):
        """One iteration; ``noise`` is this step's pre-drawn noise row, drawn
        from ``rng`` here when it is None."""
        cfg = self.config
        k = state.k
        eta = cfg.eta(k)
        x, lam, w = state.method_state.x, state.lam, state.w

        if self.stochastic:
            tok_f = self.prob.draw_objective_sample(rng)
            d = np.asarray(self.prob.objective_subgradient_sample(x, tok_f), dtype=np.float64)
            tok_c = self.prob.draw_constraint_sample(rng) if cfg.tracker == "correction" else None
            tok_jac = self.prob.draw_constraint_sample(rng)
            J = np.asarray(self.prob.constraint_jacobian_sample(x, tok_jac), dtype=np.float64)
        else:
            d = np.asarray(self.prob.objective_subgradient(x), dtype=np.float64)
            J = np.asarray(self.prob.constraint_jacobian(x), dtype=np.float64)

        direction = d + J @ (lam + cfg.rho * w)
        if self.use_noise:
            direction = direction + (cfg.noise.draw(rng, self.n) if noise is None else noise)
        if not np.isfinite(direction).all():
            return state, "non-finite primal direction"

        ms_next = method_step(self.fset, state.method_state, direction, eta, cfg.method)
        x_next = ms_next.x
        # each part of the new state is checked for finiteness once, before
        # anything is computed from it
        if not _all_finite(x_next):
            return state, "non-finite state"

        if cfg.tracker == "exact":
            w_next = self.constraint(x_next)
        else:
            if self.stochastic:
                c_x = np.asarray(self.prob.constraint_sample(x, tok_c), dtype=np.float64)
                c_xn = np.asarray(self.prob.constraint_sample(x_next, tok_c), dtype=np.float64)
            else:
                c_x = self.constraint(x)
                c_xn = self.constraint(x_next)
            w_next = track_correction(w, c_x, c_xn, cfg.tau_tilde, eta)
        if not _all_finite(w_next):
            return state, "non-finite state"

        if cfg.dual == "regu":
            theta = cfg.theta(k)
            lam_next = dual_step_regu(lam, w_next, theta, cfg.beta)
            last_lam, last_norm = self._lam_norm
            pre = last_norm if last_lam is lam else _norm(lam)
            post = _norm(lam_next)
            self._lam_norm = (lam_next, post)
            slack = (post - cfg.beta) - (1.0 - theta / cfg.beta) * (pre - cfg.beta)
            if slack > self.max_contraction_slack:
                self.max_contraction_slack = slack
            if not self._burned_in and pre <= cfg.beta:
                self._burned_in = True
            if self._burned_in and post - cfg.beta > self.max_dual_excess:
                self.max_dual_excess = post - cfg.beta
            # a finite norm has only finite entries under it
            lam_finite = math.isfinite(post) or bool(np.isfinite(lam_next).all())
        elif (k + 1) % cfg.inner_steps == 0:
            n_dual = (k + 1) // cfg.inner_steps - 1
            lam_next = dual_step_ialm(lam, w_next, cfg.theta_tilde, cfg.beta_tilde, cfg.sigma, n_dual)
            lam_finite = _all_finite(lam_next)
        else:
            lam_next = lam
            lam_finite = True
        if not lam_finite:
            return state, "non-finite state"

        return (
            LagrangianState(method_state=ms_next, lam=lam_next, w=w_next, k=k + 1),
            None,
        )

    def metrics(self, state: LagrangianState, kkt_probe: float | None) -> MetricsRecord:
        cfg = self.config
        ms = state.method_state
        # the exact tracker holds c(x) itself, bit for bit
        c = state.w if cfg.tracker == "exact" else None
        rec = assemble_record(
            self.mean, state.k, ms.x, state.lam, state.w, cfg.beta, cfg.rho, kkt_probe, c=c
        )
        # the Lyapunov value reuses the record's penalty value g(x)
        mc = cfg.method
        if mc.kind == PROX_SGDM:
            rec.lyapunov = lyapunov_momentum(rec.g_val, self.fset, ms.x, ms.y, mc.tau, mc.alpha)
        elif mc.kind == PROX_ADAM:
            m, v = split_adam_state(ms.y)
            rec.lyapunov = lyapunov_adam(
                rec.g_val, self.fset, ms.x, m, v, mc.tau1, mc.alpha, mc.eps
            )
        return rec


def init_state(prob, config: SolverConfig, x0=None, rng=None) -> LagrangianState:
    """Initial iterate: zero multipliers, tracker seeded at the constraint value."""
    driver = _Driver(prob, config)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return driver.initial_state(x0, rng)


def iterate(prob, state: LagrangianState, config: SolverConfig, rng, kkt_probe: float | None = 1e-3):
    """One full iteration (primal step, tracker, dual step) plus its metrics.

    Works for deterministic problems and for sampled-oracle problems; in the
    sampled case the tracker pair shares one constraint token while the
    Jacobian selection uses an independent fresh one.
    """
    driver = _Driver(prob, config)
    state_next, err = driver.step(state, rng)
    if err is not None:
        raise ArithmeticError(f"iteration aborted: {err}")
    return state_next, driver.metrics(state_next, kkt_probe)


def run(
    prob,
    config: SolverConfig,
    x0=None,
    record_every: int = 10,
    kkt_probe: float | None = 1e-3,
) -> RunResult:
    """Execute ``config.max_iters`` iterations from a fresh seeded generator.

    Metrics are recorded at iteration 0, every ``record_every`` iterations,
    and at the final iterate. On a non-finite state, or a non-finite value in
    a later record (its own numbers, or an oracle it evaluates), the run stops
    and the partial trajectory is returned with ``aborted=True``.

    On deterministic problems nothing but the noise draws from the generator,
    so the noise is drawn ``NOISE_CHUNK`` rows at a time; the values are those
    of one draw per step, as in ``iterate``.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    t0 = time.perf_counter()
    driver = _Driver(prob, config)
    rng = np.random.default_rng(config.seed)
    state = driver.initial_state(x0, rng)
    records = [driver.metrics(state, kkt_probe)]
    reason = None
    chunked = driver.use_noise and not driver.stochastic
    noise = None
    for k in range(config.max_iters):
        if chunked:
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
        aborted=reason is not None,
        abort_reason=reason,
        max_contraction_slack=float("nan") if slack == -math.inf else slack,
        max_dual_excess=float("nan") if excess == -math.inf else excess,
        wall_time_s=time.perf_counter() - t0,
    )
