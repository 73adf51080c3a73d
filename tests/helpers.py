"""Test-only helpers: a stateful perturbed-oracle wrapper for stress runs, the
embedded methods' per-step displacement bound, sample tokens as comparable
bytes, a step's step sizes, a loader for the repo's scripts and criterion 1's
affine instances. Nothing in the package calls them."""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from sslalm.core import ProblemInstance
from sslalm.geometry import FeasibleSet
from sslalm.methods import PROX_SGD, PROX_SGDM, MethodConfig, split_adam_state

ROOT = Path(__file__).resolve().parents[1]


def load_module(path: Path):
    """The Python file at ``path`` as a module, loaded without writing bytecode
    next to it and without entering ``sys.modules``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def step_sizes(cfg, k: int) -> tuple[float, float]:
    """The ``(eta, theta)`` that ``run()`` passes to the step from iteration ``k``."""
    return cfg.eta(k), cfg.theta(k)


def load_script(name: str):
    """``scripts/<name>.py`` as a module."""
    return load_module(ROOT / "scripts" / f"{name}.py")


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


def state_distance(x_a, y_a, x_b, y_b) -> float:
    """Euclidean distance between the method states ``(x_a, y_a)`` and ``(x_b, y_b)``."""
    return float(np.hypot(np.linalg.norm(x_a - x_b), np.linalg.norm(y_a - y_b)))


def token_bytes(tok):
    """A sample token as comparable bytes: None, or the shape, dtype and bytes
    of each array it holds."""
    if tok is None:
        return None
    if isinstance(tok, tuple):
        return tuple(token_bytes(part) for part in tok)
    tok = np.asarray(tok)
    return tok.shape, tok.dtype.str, tok.tobytes()


def affine_instances() -> list[tuple[int, int, int]]:
    """Criterion 1's ten ``affine_l1`` instances as ``(n, p, seed)``."""
    rng = np.random.default_rng(20260808)
    out = []
    for i in range(10):
        n = int(rng.integers(4, 11))
        p = int(rng.integers(1, min(4, n)))
        out.append((n, p, i))
    return out
