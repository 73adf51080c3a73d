"""Single-loop Lagrangian drivers for equality-constrained nonsmooth problems.

One iteration performs, in order: a primal step of the embedded subgradient
method on a noisy Lagrangian direction, a constraint-tracker update, and a
multiplier update that consumes the *new* tracker value. Two dual rules are
available: the normalized ascent step (which contracts the multiplier toward
the ball of radius ``beta``) and a safeguarded classical ascent baseline with
an optional inner-step budget between dual updates.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
# sqrt(v.dot(v)) is np.linalg.norm(v) bit for bit: norm computes it so itself
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .core import (
    NoiseModel,
    NonFiniteError,
    OracleError,
    _check_fields,
    _check_integer,
    _jacobian_shape_error,
    as_stochastic,
    as_vector,
    eval_constraints,
)
from .diagnostics import MetricsRecord, assemble_record, lyapunov_adam, lyapunov_momentum
from .methods import PROX_ADAM, PROX_SGDM, MethodConfig, _check_positive_stepsize
from .methods import method_step, split_adam_state

REGU_ZERO_TOL = 1e-14

# run() draws the noise and each source's sample tokens this many steps at a time
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
        if "epoch_len" in SCHEDULE_KINDS[self.kind] and self.epoch_len < 1:
            raise ValueError("epoch_len must be >= 1")
        if self.kind == "power" and not (0.5 < self.exponent <= 1.0):
            raise ValueError("power schedule exponent must lie in (0.5, 1]")

    def __call__(self, k: int) -> float:
        return self.block(k, 1)[0]

    def block(self, k0: int, rows: int) -> list[float]:
        """The values at ``k0, ..., k0 + rows - 1`` as Python floats: each kind's
        formula, once. IEEE square root and division are correctly rounded, so
        numpy's give the bits of ``math.sqrt`` and ``/``; ``power`` stays scalar
        per step, since numpy's ``**`` is not held to ``pow``'s bits."""
        if self.kind == "constant":
            return [self.c] * rows
        if self.kind == "inv_sqrt_epoch":
            return (self.c / np.sqrt(np.arange(k0, k0 + rows) // self.epoch_len + 1)).tolist()
        return [self.c / (k + 1) ** self.exponent for k in range(k0, k0 + rows)]

    @property
    def max_value(self) -> float:
        # all three kinds are nonincreasing in k
        return self.c


def _check_tau_tilde(tau_tilde: float) -> None:
    """The correction tracker's rule, of ``SolverConfig`` and of each step."""
    if not tau_tilde > 0:
        raise ValueError("tau_tilde must be positive")


def _check_ialm(beta_tilde: float, sigma: float, theta_tilde: float) -> None:
    """The ialm dual's rule, of ``SolverConfig`` and of each step."""
    if not (beta_tilde > 0 and sigma > 1.0 and theta_tilde > 0):
        raise ValueError("ialm dual requires beta_tilde > 0, sigma > 1, theta_tilde > 0")


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
            _check_tau_tilde(self.tau_tilde)
            if self.tau_tilde * self.eta.max_value > 1.0:
                raise ValueError("correction tracker requires tau_tilde * eta_max <= 1")
        if self.dual not in DUAL_KINDS:
            raise ValueError(f"unknown dual rule {self.dual!r}")
        if self.dual == "ialm":
            _check_ialm(self.beta_tilde, self.sigma, self.theta_tilde)
            if self.inner_steps < 1:
                raise ValueError("inner_steps must be >= 1")
        elif self.inner_steps != 1:
            raise ValueError("inner_steps > 1 only applies to the ialm dual")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class LagrangianState(NamedTuple):
    """One solver state: the primal point ``x``, the embedded method's auxiliary
    block ``y`` (of size ``method.aux_dim(n)``), the multipliers ``lam``, the
    tracker ``w``, the iteration count ``k``, and the ``regu`` dual's running
    maxima, -inf while unset: the contraction ``slack`` and the ``excess`` of
    ``||lam||`` over ``beta``. An immutable named tuple: every step builds one,
    and a tuple is the cheapest immutable record."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    w: np.ndarray
    k: int = 0
    slack: float = -math.inf
    excess: float = -math.inf


# builds a LagrangianState from a tuple of all its fields, without the frame of
# the named tuple's own __new__
_new_state = tuple.__new__


def _unset_as_nan(value: float) -> float:
    return math.nan if value == -math.inf else value


@dataclass
class RunResult:
    records: list
    state: LagrangianState
    abort_reason: str | None = None
    wall_time_s: float = 0.0

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    # the final state's regu dual bookkeeping, NaN while unset
    max_contraction_slack = property(lambda self: _unset_as_nan(self.state.slack))
    max_dual_excess = property(lambda self: _unset_as_nan(self.state.excess))

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def dual_step_regu(lam, w_next, theta: float, beta: float) -> np.ndarray:
    """Normalized dual ascent ``lam + theta * (regu(w_next) - lam/beta)``.

    The direction ``regu(w) = w / ||w||`` is zero when ``||w|| <= REGU_ZERO_TOL``;
    a NaN norm fails that test, so a NaN ``w`` gives a NaN direction. For
    ``theta < beta`` each step contracts ``||lam|| - beta`` by the factor
    ``1 - theta/beta``, so the multipliers stay in a ball of radius ``beta``
    once they enter it.
    """
    if not 0.0 <= theta < beta:
        raise ValueError("dual step requires 0 <= theta < beta")
    lam = np.asarray(lam, dtype=np.float64)
    w_next = np.asarray(w_next, dtype=np.float64)
    if lam.ndim != 1 or w_next.shape != lam.shape:
        raise ValueError("dual step requires lam and w_next as 1-d arrays of one length, "
                         f"got shapes {lam.shape} and {w_next.shape}")
    nrm = sqrt(w_next.dot(w_next))
    # entry by entry on Python floats, in the formula's order: they round as
    # numpy's float64 ufuncs do (only a NaN's sign may differ, where an input NaN
    # meets one the formula makes), without a ufunc's call cost on each of the
    # few entries of a constraint vector (numpy is faster above about ten). The
    # scalars become floats, as numpy takes a float32 scalar into a float64
    # array's arithmetic.
    theta, beta = float(theta), float(beta)
    if nrm <= REGU_ZERO_TOL:
        return np.array([li + theta * (0.0 - li / beta) for li in lam.tolist()])
    return np.array([li + theta * (wi / nrm - li / beta)
                     for li, wi in zip(lam.tolist(), w_next.tolist())])


def dual_step_ialm(
    lam, c_next, theta_tilde: float, beta_tilde: float, sigma: float, k: int
) -> np.ndarray:
    """Safeguarded classical ascent ``lam + min(theta~/||c||, beta~*sigma^k) * c``."""
    _check_ialm(beta_tilde, sigma, theta_tilde)
    lam = np.asarray(lam, dtype=np.float64)
    c_next = np.asarray(c_next, dtype=np.float64)
    if lam.ndim != 1 or c_next.shape != lam.shape:
        raise ValueError("ialm dual step requires lam and c_next as 1-d arrays of one length, "
                         f"got shapes {lam.shape} and {c_next.shape}")
    nrm = sqrt(c_next.dot(c_next))
    if nrm <= REGU_ZERO_TOL:
        return lam.copy()
    if k * math.log(sigma) > 700.0:
        cap = float("inf")
    else:
        cap = beta_tilde * sigma**k
    # entry by entry on Python floats, as in dual_step_regu
    step = float(min(theta_tilde / nrm, cap))
    return np.array([li + step * ci for li, ci in zip(lam.tolist(), c_next.tolist())])


def track_correction(w, c_at_x, c_at_xnext, tau_tilde: float, eta: float) -> np.ndarray:
    """Single-timescale tracker with a shared-sample correction term:
    ``w - tau~*eta*(w - C(x)) + C(x_next) - C(x)``."""
    _check_tau_tilde(tau_tilde)
    _check_positive_stepsize(eta)
    if not tau_tilde * eta <= 1.0:
        raise ValueError("correction tracker requires tau_tilde * eta <= 1")
    w = np.asarray(w, dtype=np.float64)
    c_at_x = np.asarray(c_at_x, dtype=np.float64)
    c_at_xnext = np.asarray(c_at_xnext, dtype=np.float64)
    if w.ndim != 1 or not w.shape == c_at_x.shape == c_at_xnext.shape:
        raise ValueError("correction tracker requires w, c_at_x and c_at_xnext as 1-d arrays of "
                         f"one length, got shapes {w.shape}, {c_at_x.shape} and {c_at_xnext.shape}")
    # entry by entry on Python floats, as in dual_step_regu
    step = float(tau_tilde * eta)
    return np.array([wi - step * (wi - ci) + ni - ci
                     for wi, ci, ni in zip(w.tolist(), c_at_x.tolist(), c_at_xnext.tolist())])


def _draw(draw, gen, size: int, source: str):
    """``size`` tokens of the sample draw ``draw`` from ``gen``; a draw of another
    count would hand one token's numbers out as several steps' tokens."""
    tokens = draw(gen, size)
    if len(tokens) != size:
        raise OracleError(f"sample draws returned {len(tokens)} {source} tokens, expected {size}")
    return tokens


class _Driver:
    """Resolved settings for one (problem, config) pair; a problem with exact
    oracles runs as a sampled one whose samples are exact. The run's state is
    the LagrangianState and the step sizes come from ``run()``, one block of
    steps at a time; the driver keeps only a memo of the last regu
    multiplier's norm, keyed by the multiplier's identity. No closure of the
    driver refers to the driver, so a finished run frees its problem at once,
    without waiting for the cyclic garbage collector."""

    def __init__(self, prob, config: SolverConfig):
        prob = as_stochastic(prob)
        self.config = config
        self.prob = prob
        self.mean = prob.mean
        self.fset = fset = self.mean.feasible_set
        self.n = self.mean.dim_primal
        self.p = self.mean.dim_constraint
        self._d_shape, self._c_shape, self._jac_shape = (self.n,), (self.p,), (self.n, self.p)
        self.use_noise = config.noise.kind != "none" and config.noise.bound > 0.0
        # rho meets w as a vector: an array times an array gives a scalar's
        # product bits at less call cost
        self._rho = np.full(self.p, config.rho)
        # the last regu multiplier and its norm, reused as the next step's ||lam||
        self._last_lam, self._last_norm = None, 0.0
        # the exact tracker holds c(x) itself, bit for bit, and draws no sample
        self._w_is_c = config.tracker == "exact"
        self._regu = config.dual == "regu"
        # the descent certificates of the methods that have one, on stacks of
        # (g, x, y); any other kind records no Lyapunov value
        mc = config.method
        self._lyapunov = {
            PROX_SGDM: lambda g, x, y: lyapunov_momentum(g, fset, x, y, mc.tau, mc.alpha),
            PROX_ADAM: lambda g, x, y: lyapunov_adam(
                g, fset, x, *split_adam_state(y), mc.tau1, mc.alpha, mc.eps
            ),
        }.get(mc.kind)

    def initial_state(self, x0, con_gen) -> LagrangianState:
        """The state at ``x0``; the correction tracker starts from ``C(x0)`` on
        the first token of the constraint generator ``con_gen``."""
        if x0 is None:
            x0 = np.zeros(self.n)
        x0 = self.fset.project(as_vector(x0, self.n, "x0"))
        y0 = np.zeros(self.config.method.aux_dim(self.n))
        if self._w_is_c:
            w0 = eval_constraints(self.mean, x0)
        else:
            [tok] = _draw(self.prob.draw_constraint_sample, con_gen, 1, "constraint")
            w0 = as_vector(self.prob.constraint_sample(x0, tok), self.p, "C(x0)")
        return LagrangianState(x=x0, y=y0, lam=np.zeros(self.p), w=w0, k=0)

    def draw_tokens(self, obj_gen, con_gen, steps: int) -> list:
        """The sample tokens of ``steps`` successive steps, one block from each
        source's generator: per step ``(objective, tracker pair, Jacobian)``.
        Under the correction tracker a step takes two constraint tokens, the
        pair's first; under the exact tracker the pair's token is None."""
        n_con = steps if self._w_is_c else 2 * steps
        obj = _draw(self.prob.draw_objective_sample, obj_gen, steps, "objective")
        con = _draw(self.prob.draw_constraint_sample, con_gen, n_con, "constraint")
        if self._w_is_c:
            return list(zip(obj, itertools.repeat(None), con))
        return list(zip(obj, con[::2], con[1::2]))

    def step(self, state: LagrangianState, tokens, noise, eta: float, theta: float):
        """One iteration on this step's sample tokens ``(objective, tracker
        pair, Jacobian)``, the tracker pair sharing its token, its noise row
        ``noise`` (None when the run injects no noise) and its step sizes, the
        schedules' values ``eta`` and ``theta`` at the state's ``k``.

        Each finiteness check is ``core._all_finite`` written out on purpose, to
        save its frame on the hot path; the validators keep the helper. A finite
        sum of squares has only finite terms."""
        x, y, lam, w, k, slack, excess = state
        cfg = self.config
        prob = self.prob
        tok_f, tok_c, tok_j = tokens

        d = np.asarray(prob.objective_subgradient_sample(x, tok_f), dtype=np.float64)
        J = np.asarray(prob.constraint_jacobian_sample(x, tok_j), dtype=np.float64)
        # shapes only: the direction's finiteness check covers the values
        if d.shape != self._d_shape:
            d = as_vector(d, self.n, "subgradient", finite=False)
        if J.shape != self._jac_shape:
            raise _jacobian_shape_error(J, self.n, self.p)

        # ndarray.dot gives matmul's bits for a matrix times a vector, at half
        # its call cost; the adds go in place into the new product
        direction = J.dot(lam + self._rho * w)
        direction += d
        if self.use_noise:
            direction += noise
        if not (isfinite(direction.dot(direction)) or np.isfinite(direction).all()):
            return state, "non-finite primal direction"

        x_next, y_next = method_step(self.fset, x, y, direction, eta, cfg.method)
        # each part of the new state is checked for finiteness once: y_next unless
        # it is the block the method was given, the constraint values only for
        # their shape, and on the regu path w_next through lam_next, which a
        # non-finite w_next makes NaN
        if not (isfinite(x_next.dot(x_next)) or np.isfinite(x_next).all()) or (
            y_next is not y and not (isfinite(y_next.dot(y_next)) or np.isfinite(y_next).all())
        ):
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

        if self._regu:
            # the step plus its contraction bookkeeping
            beta = cfg.beta
            lam_next = dual_step_regu(lam, w_next, theta, beta)
            post = sqrt(lam_next.dot(lam_next))
            # a finite norm has only finite entries under it
            if not (isfinite(post) or np.isfinite(lam_next).all()):
                return state, "non-finite state"
            pre = self._last_norm if self._last_lam is lam else sqrt(lam.dot(lam))
            self._last_lam, self._last_norm = lam_next, post
            step_slack = (post - beta) - (1.0 - theta / beta) * (pre - beta)
            if step_slack > slack:
                slack = step_slack
            # the excess counts from the first step that starts inside the ball
            if (excess > -math.inf or pre <= beta) and post - beta > excess:
                excess = post - beta
        elif not (isfinite(w_next.dot(w_next)) or np.isfinite(w_next).all()):
            return state, "non-finite state"
        elif (k + 1) % cfg.inner_steps == 0:
            # an ialm step every inner_steps iterations
            n_dual = (k + 1) // cfg.inner_steps - 1
            lam_next = dual_step_ialm(lam, w_next, cfg.theta_tilde, cfg.beta_tilde, cfg.sigma,
                                      n_dual)
            if not (isfinite(lam_next.dot(lam_next)) or np.isfinite(lam_next).all()):
                return state, "non-finite state"
        else:
            lam_next = lam
        return _new_state(LagrangianState,
                          (x_next, y_next, lam_next, w_next, k + 1, slack, excess)), None

    def metrics(self, states, kkt_probe: float | None) -> list[MetricsRecord]:
        """The records of the list ``states``, assembled as one stack."""
        cfg = self.config
        X = np.array([s.x for s in states])
        W = np.array([s.w for s in states])
        records = assemble_record(
            self.mean, [s.k for s in states], X, np.array([s.lam for s in states]), W,
            cfg.beta, cfg.rho, kkt_probe, c=W if self._w_is_c else None,
        )
        if self._lyapunov is not None:
            # the Lyapunov value reuses the record's penalty value g(x)
            lyap = self._lyapunov(np.array([rec.g_val for rec in records]), X,
                                  np.array([s.y for s in states]))
            for rec, value in zip(records, lyap.tolist()):
                rec.lyapunov = value
        return records


def _record_block(driver: _Driver, points: list, kkt_probe: float | None, records: list):
    """Append the records of a block's record ``points``, states each, to
    ``records``; return the state where the run aborts, or None. The outcome is
    that of recording each state as the run reached it: a record with a
    non-finite core value is kept and aborts the run, an oracle's NonFiniteError
    aborts it before its record, and any other exception is raised. The block is
    assembled as one stack; a stack that raises is recorded again point by
    point, to find where it stops."""
    if not points:
        return None
    try:
        block = driver.metrics(points, kkt_probe)
    except Exception:
        block = None
    for j, point in enumerate(points):
        if block is not None:
            rec = block[j]
        else:
            try:
                [rec] = driver.metrics([point], kkt_probe)
            except NonFiniteError:
                return point
        records.append(rec)
        # a diverging run can overflow its diagnostics while the raw state is
        # still representable; a finite sum has only finite terms
        core_vals = (rec.f_val, rec.feas, rec.g_val, rec.L_val, rec.H_val,
                     rec.lambda_norm, rec.tracker_err)
        if not isfinite(sum(core_vals)) and not all(isfinite(v) for v in core_vals):
            return point
    return None


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

    The records after the first are assembled a block of ``NOISE_CHUNK`` steps
    at a time, as one stack of the block's record points: when the block ends,
    when a step aborts or raises, and after the last step. The run notices an
    aborting record only then, but its outcome is the one of recording each
    point as the run reached it: the records up to that point and that point's
    state, whose dual bookkeeping is the one of that step.

    Each source of randomness has its own generator. The noise comes from
    ``default_rng(config.seed)``; a sampled problem's objective tokens and
    constraint tokens come from the two generators of
    ``SeedSequence(config.seed).spawn(2)``, in that order (a deterministic
    problem's draws take nothing from them). Each source is
    drawn in blocks of ``NOISE_CHUNK`` steps, the block for steps ``k`` to
    ``k + NOISE_CHUNK - 1`` at step ``k`` (see ``_Driver.draw_tokens``). The
    step sizes of a block's steps are resolved with it, by
    ``StepSchedule.block``, bitwise the schedules' values step by step.
    """
    record_every = _check_integer("record_every", record_every)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    t0 = time.perf_counter()
    # numpy's overflow and invalid-value warnings would only leak to stderr: the
    # finiteness checks' v.dot(v) overflows on finite entries above about 1e154, and
    # a non-finite tracker value gives inf / inf in the regu dual step; the run checks
    # every point it computes and stops with a named reason
    with np.errstate(over="ignore", invalid="ignore"):
        driver = _Driver(prob, config)
        rng = np.random.default_rng(config.seed)
        obj_gen, con_gen = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
        state = driver.initial_state(x0, con_gen)
        # the first record, a stack of one: there is no trajectory to keep yet,
        # so an oracle's NonFiniteError propagates
        records = driver.metrics([state], kkt_probe)
        reason = None
        step, max_iters = driver.step, config.max_iters
        for start in range(0, max_iters, NOISE_CHUNK):
            rows = min(NOISE_CHUNK, max_iters - start)
            points, error = [], None  # the block's record points, recorded as one stack
            try:
                tokens = driver.draw_tokens(obj_gen, con_gen, rows)
                noise = (config.noise.draw(rng, (rows, driver.n)) if driver.use_noise
                         else [None] * rows)
                # each step with the iteration count it reaches and its step sizes
                steps = zip(range(start + 1, start + rows + 1), tokens, noise,
                            config.eta.block(start, rows), config.theta.block(start, rows))
                for k, tok, noise_row, eta, theta in steps:
                    state_next, reason = step(state, tok, noise_row, eta, theta)
                    if reason is not None:
                        break
                    state = state_next
                    if k % record_every == 0 or k == max_iters:
                        points.append(state)
            except Exception as exc:
                error = exc
            # the block's records come first, as they would one at a time
            stop = _record_block(driver, points, kkt_probe, records)
            if stop is not None:
                state, reason = stop, "non-finite metrics"  # the aborting record's state
            elif error is not None:
                raise error
            if reason is not None:
                break
    return RunResult(records=records, state=state, abort_reason=reason,
                     wall_time_s=time.perf_counter() - t0)
