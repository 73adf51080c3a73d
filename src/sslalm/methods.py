"""Embeddable stochastic subgradient steps: proximal SGD, proximal SGD with
heavy-ball momentum, and proximal ADAM.

Each method is a stateless single-step update
``step_prox_*(fset, x, y, g, eta, cfg) -> (x_next, y_next)`` driven by a
direction vector ``g`` and a stepsize ``eta``; the auxiliary block ``y`` is
empty for SGD, the momentum for SGDM, and the packed (momentum, second moment)
pair for ADAM. All steps keep ``x`` inside the feasible set.

``METHODS`` holds one ``EmbeddedMethod`` record per kind, which
``MethodConfig``, ``method_step`` and the CLI read when called: a method is
embedded by adding one entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _check_fields
from .geometry import FeasibleSet

PROX_SGD = "prox_sgd"
PROX_SGDM = "prox_sgdm"
PROX_ADAM = "prox_adam"


@dataclass(frozen=True)
class MethodConfig:
    kind: str = PROX_SGD
    tau: float = 1.0        # momentum rate
    alpha: float = 1.0      # prox scale
    tau1: float = 1.0       # first-moment rate
    tau2: float = 0.1       # second-moment rate
    eps: float = 1e-8       # second-moment regularizer

    def __post_init__(self):
        _check_fields(self)
        if self.kind not in METHODS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        reads = METHODS[self.kind].fields  # a value rule binds only a field the kind reads
        if any(getattr(self, name) <= 0 for name in ("tau", "alpha", "eps") if name in reads):
            raise ValueError("tau, alpha, and eps must be positive")
        if "tau2" in reads and not (0.0 < self.tau2 <= 4.0 * self.tau1):
            raise ValueError("ADAM moment rates must satisfy 0 < tau2 <= 4*tau1")

    def check_stepsize(self, eta: float) -> None:
        """The stepsize rule of every step, and of ``SolverConfig`` at the largest
        ``eta``: ``eta > 0``, then the stepsize rule of the kind's ``METHODS`` record."""
        _check_positive_stepsize(eta)
        METHODS[self.kind].stepsize_rule(eta, self)

    def aux_dim(self, n: int) -> int:
        return METHODS[self.kind].aux_blocks * n


@dataclass(frozen=True)
class EmbeddedMethod:
    """One embedded method: the ``MethodConfig`` fields its step reads, the
    number of size-``n`` vectors in its auxiliary block, its stepsize rule
    beyond ``eta > 0`` (``stepsize_rule(eta, cfg)`` raises ``ValueError``) and
    its step ``step(fset, x, y, g, eta, cfg) -> (x_next, y_next)``."""

    fields: tuple[str, ...]
    aux_blocks: int
    stepsize_rule: Callable[[float, MethodConfig], None]
    step: Callable


def _check_positive_stepsize(eta: float) -> None:
    """``eta > 0``: the first stepsize rule of every step and of the tracker."""
    if not eta > 0.0:
        raise ValueError(f"stepsize must be positive, got {eta!r}")


def _stepsize_at_most_one(eta: float, cfg: MethodConfig) -> None:
    """``eta <= 1`` keeps the convex combination with the prox point feasible."""
    if eta > 1.0:
        raise ValueError("eta <= 1 required for momentum and ADAM steps")


def _adam_stepsize(eta: float, cfg: MethodConfig) -> None:
    """``eta <= 1``, and ``eta * tau2 <= 1`` so the second moment stays >= 0."""
    _stepsize_at_most_one(eta, cfg)
    if eta * cfg.tau2 > 1.0:
        raise ValueError("eta * tau2 <= 1 required to keep the ADAM second moment nonnegative")


def split_adam_state(y: np.ndarray):
    """The (momentum, second moment) halves of ``y``, or of each row of a stack."""
    n = y.shape[-1] // 2
    return y[..., :n], y[..., n:]


def step_prox_sgd(fset: FeasibleSet, x, y, g, eta: float, cfg: MethodConfig):
    """Projected subgradient step; the empty auxiliary block passes through."""
    cfg.check_stepsize(eta)
    return fset.project(x - eta * np.asarray(g)), y


def step_prox_sgdm(fset: FeasibleSet, x, y, g, eta: float, cfg: MethodConfig):
    """Momentum update followed by a convex combination with the prox point."""
    cfg.check_stepsize(eta)
    y_next = y - cfg.tau * eta * (y - np.asarray(g))
    x_next = (1.0 - eta) * x + eta * fset.project(x - cfg.alpha * y_next)
    return x_next, y_next


def step_prox_adam(fset: FeasibleSet, x, y, g, eta: float, cfg: MethodConfig):
    """First/second moment updates of the packed block ``y = (m, v)``, then a
    weighted prox step."""
    cfg.check_stepsize(eta)
    g = np.asarray(g)
    m, v = split_adam_state(y)
    m_next = m - cfg.tau1 * eta * (m - g)
    v_next = v - cfg.tau2 * eta * (v - g * g)
    weights = np.sqrt(v_next + cfg.eps) / cfg.alpha
    z = fset.prox_weighted(x, m_next, weights)
    x_next = (1.0 - eta) * x + eta * z
    return x_next, np.concatenate((m_next, v_next), axis=-1)


METHODS = {
    # a projected step stays feasible for every eta > 0
    PROX_SGD: EmbeddedMethod((), 0, lambda eta, cfg: None, step_prox_sgd),
    PROX_SGDM: EmbeddedMethod(("tau", "alpha"), 1, _stepsize_at_most_one, step_prox_sgdm),
    PROX_ADAM: EmbeddedMethod(("tau1", "tau2", "alpha", "eps"), 2, _adam_stepsize, step_prox_adam),
}


def method_step(fset: FeasibleSet, x, y, g, eta: float, cfg: MethodConfig):
    """One step of the configured method: ``(x, y) -> (x_next, y_next)``."""
    return METHODS[cfg.kind].step(fset, x, y, g, eta, cfg)
