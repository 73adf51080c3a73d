"""Embeddable stochastic subgradient steps: proximal SGD, proximal SGD with
heavy-ball momentum, and proximal ADAM.

Each method is a stateless single-step update ``(x, y) -> (x', y')`` driven by
a direction vector ``g`` and a stepsize ``eta``; the auxiliary block ``y`` is
empty for SGD, the momentum for SGDM, and the packed (momentum, second moment)
pair for ADAM. All steps keep ``x`` inside the feasible set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FeasibleSet

PROX_SGD = "prox_sgd"
PROX_SGDM = "prox_sgdm"
PROX_ADAM = "prox_adam"
METHOD_KINDS = (PROX_SGD, PROX_SGDM, PROX_ADAM)


@dataclass(frozen=True)
class MethodConfig:
    kind: str = PROX_SGD
    tau: float = 1.0        # momentum rate (SGDM)
    alpha: float = 1.0      # prox scale (SGDM, ADAM)
    tau1: float = 1.0       # first-moment rate (ADAM)
    tau2: float = 0.1       # second-moment rate (ADAM)
    eps: float = 1e-8       # ADAM regularizer

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.tau <= 0 or self.alpha <= 0 or self.eps <= 0:
            raise ValueError("tau, alpha, and eps must be positive")
        if not (0.0 < self.tau2 <= 4.0 * self.tau1):
            raise ValueError("ADAM moment rates must satisfy 0 < tau2 <= 4*tau1")

    def aux_dim(self, n: int) -> int:
        if self.kind == PROX_SGD:
            return 0
        if self.kind == PROX_SGDM:
            return n
        return 2 * n


@dataclass(frozen=True)
class EmbeddedMethodState:
    """Primal point plus the method's auxiliary block (dimension ``aux_dim``)."""

    x: np.ndarray
    y: np.ndarray


def init_method_state(cfg: MethodConfig, x0: np.ndarray) -> EmbeddedMethodState:
    x0 = np.asarray(x0, dtype=np.float64)
    return EmbeddedMethodState(x=x0, y=np.zeros(cfg.aux_dim(x0.size)))


def split_adam_state(y: np.ndarray):
    n = y.size // 2
    return y[:n], y[n:]


def step_prox_sgd(fset: FeasibleSet, g, x, eta: float) -> np.ndarray:
    if eta <= 0:
        raise ValueError("stepsize must be positive")
    return fset.project(x - eta * np.asarray(g))


def step_prox_sgdm(fset: FeasibleSet, g, x, y, eta: float, cfg: MethodConfig):
    """Momentum update followed by a convex combination with the prox point.

    Requires ``0 < eta <= 1`` so the combination keeps ``x`` feasible.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("SGDM stepsize must satisfy 0 < eta <= 1")
    y_next = y - cfg.tau * eta * (y - np.asarray(g))
    x_next = (1.0 - eta) * x + eta * fset.project(x - cfg.alpha * y_next)
    return x_next, y_next


def step_prox_adam(fset: FeasibleSet, g, x, y, v, eta: float, cfg: MethodConfig, out=None):
    """First/second moment updates, then a weighted prox step.

    ``eta * tau2 <= 1`` keeps the second moment nonnegative. The new moments
    are written into the two halves of ``out`` when it is given.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("ADAM stepsize must satisfy 0 < eta <= 1")
    if eta * cfg.tau2 > 1.0:
        raise ValueError("ADAM requires eta * tau2 <= 1 to keep v >= 0")
    g = np.asarray(g)
    y_out, v_out = (None, None) if out is None else split_adam_state(out)
    y_next = np.subtract(y, cfg.tau1 * eta * (y - g), out=y_out)
    v_next = np.subtract(v, cfg.tau2 * eta * (v - g * g), out=v_out)
    weights = np.sqrt(v_next + cfg.eps) / cfg.alpha
    z = fset.prox_weighted(x, y_next, weights)
    x_next = (1.0 - eta) * x + eta * z
    return x_next, y_next, v_next


def method_step(
    fset: FeasibleSet, state: EmbeddedMethodState, g, eta: float, cfg: MethodConfig
) -> EmbeddedMethodState:
    """Dispatch one step of the configured method on a packed state."""
    if cfg.kind == PROX_SGD:
        return EmbeddedMethodState(x=step_prox_sgd(fset, g, state.x, eta), y=state.y)
    if cfg.kind == PROX_SGDM:
        x_next, y_next = step_prox_sgdm(fset, g, state.x, state.y, eta, cfg)
        return EmbeddedMethodState(x=x_next, y=y_next)
    m, v = split_adam_state(state.y)
    y_next = np.empty_like(state.y)
    x_next, _, _ = step_prox_adam(fset, g, state.x, m, v, eta, cfg, out=y_next)
    return EmbeddedMethodState(x=x_next, y=y_next)


def method_displacement_bound(
    cfg: MethodConfig, fset: FeasibleSet, g, x, y
) -> float:
    """A computable bound T with dist((x', y'), (x, y)) <= eta * T.

    Valid for any admissible stepsize (eta <= 1 for SGDM/ADAM, eta*tau2 <= 1
    for ADAM); the tests check it against every step of a run.
    """
    g = np.asarray(g, dtype=np.float64)
    if cfg.kind == PROX_SGD:
        return float(np.linalg.norm(g))
    if cfg.kind == PROX_SGDM:
        t_y = cfg.tau * float(np.linalg.norm(y - g))
        t_x = float(np.linalg.norm(x - fset.project(x - cfg.alpha * y))) + cfg.alpha * t_y
        return float(np.hypot(t_x, t_y))
    m, v = split_adam_state(np.asarray(y))
    t_m = cfg.tau1 * float(np.linalg.norm(m - g))
    t_v = cfg.tau2 * float(np.linalg.norm(v - g * g))
    # weighted prox displacement: ||z - x|| <= 2*||y'|| / w_min with
    # w_min = sqrt(eps)/alpha, and ||y'|| <= ||m|| + tau1*||m - g||
    t_x = 2.0 * cfg.alpha * (float(np.linalg.norm(m)) + t_m) / np.sqrt(cfg.eps)
    return float(np.sqrt(t_x * t_x + t_m * t_m + t_v * t_v))


def state_distance(a: EmbeddedMethodState, b: EmbeddedMethodState) -> float:
    return float(np.hypot(np.linalg.norm(a.x - b.x), np.linalg.norm(a.y - b.y)))
