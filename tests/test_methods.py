import inspect

import numpy as np
import pytest

from sslalm.geometry import Ball, Box, WholeSpace
from sslalm.lagrangian import SolverConfig, StepSchedule
from sslalm.methods import (
    METHODS,
    MethodConfig,
    method_step,
    split_adam_state,
    step_prox_adam,
    step_prox_sgd,
    step_prox_sgdm,
)
from helpers import method_displacement_bound, state_distance


def unit_box(n):
    return Box(np.full(n, -1.0), np.full(n, 1.0))


SGD = MethodConfig(kind="prox_sgd")


def adam_block(m, v):
    return np.concatenate([m, v])


SETS = {
    "free": lambda n: WholeSpace(n),
    "box": unit_box,
    "ball": lambda n: Ball(np.zeros(n), 1.5),
}


class TestProxSgd:
    def test_basic_step(self):
        x, y = step_prox_sgd(WholeSpace(1), np.array([0.0]), np.zeros(0), [1.0], 0.1, SGD)
        assert x == pytest.approx([-0.1])
        assert y.size == 0

    def test_zero_direction_is_fixed_point(self):
        x0 = np.array([0.3, -0.4])
        x, _ = step_prox_sgd(unit_box(2), x0, np.zeros(0), np.zeros(2), 0.5, SGD)
        assert np.array_equal(x, x0)

    def test_clamp_at_boundary(self):
        x, _ = step_prox_sgd(unit_box(1), np.array([0.95]), np.zeros(0), [-1.0], 0.1, SGD)
        assert x == pytest.approx([1.0])


class TestProxSgdm:
    def test_hand_computed_step(self):
        cfg = MethodConfig(kind="prox_sgdm", tau=1.0, alpha=1.0)
        x, y = step_prox_sgdm(WholeSpace(1), np.zeros(1), np.zeros(1), [1.0], 0.5, cfg)
        assert y == pytest.approx([0.5])
        assert x == pytest.approx([-0.25])

    def test_momentum_fixed_point_when_g_equals_y(self):
        cfg = MethodConfig(kind="prox_sgdm", tau=2.0, alpha=1.0)
        y0 = np.array([0.7, -0.2])
        _, y = step_prox_sgdm(unit_box(2), np.zeros(2), y0, y0.copy(), 0.3, cfg)
        assert y == pytest.approx(y0)

    def test_stationary_prox_point_is_fixed(self):
        # x = prox(x - alpha*y) keeps x in place under the convex combination
        cfg = MethodConfig(kind="prox_sgdm", tau=1.0, alpha=1.0)
        fset = unit_box(1)
        x0 = np.array([1.0])
        y0 = np.array([-2.0])  # prox(1 + 2) clamps back to 1
        x, _ = step_prox_sgdm(fset, x0, y0, y0, 0.5, cfg)
        assert x == pytest.approx([1.0])

    def test_rejects_large_stepsize(self):
        cfg = MethodConfig(kind="prox_sgdm")
        with pytest.raises(ValueError):
            step_prox_sgdm(unit_box(1), np.zeros(1), np.zeros(1), [0.0], 1.5, cfg)


class TestProxAdam:
    def test_hand_computed_step(self):
        cfg = MethodConfig(kind="prox_adam", tau1=1.0, tau2=1.0, alpha=1.0, eps=0.5)
        x, y = step_prox_adam(WholeSpace(1), np.zeros(1), np.zeros(2), [1.0], 0.5, cfg)
        y, v = split_adam_state(y)
        assert y == pytest.approx([0.5])
        assert v == pytest.approx([0.5])
        assert x == pytest.approx([-0.25])

    def test_zero_state_is_stationary(self):
        cfg = MethodConfig(kind="prox_adam", tau1=1.0, tau2=1.0, alpha=1.0, eps=0.5)
        x0 = np.array([0.2])
        x, y = step_prox_adam(unit_box(1), x0, np.zeros(2), np.zeros(1), 0.5, cfg)
        y, v = split_adam_state(y)
        assert x == pytest.approx(x0)
        assert np.array_equal(y, np.zeros(1))
        assert np.array_equal(v, np.zeros(1))

    def test_unconstrained_matches_plain_recursion(self):
        # trajectory over 100 steps against an independently coded recursion
        n = 4
        fset = WholeSpace(n)
        cfg = MethodConfig(kind="prox_adam", tau1=1.0, tau2=0.5, alpha=0.7, eps=1e-3)
        rng = np.random.default_rng(7)
        gs = rng.standard_normal((100, n))
        x = rng.standard_normal(n)
        y = np.zeros(n)
        v = np.zeros(n)
        x2, y2, v2 = x.copy(), y.copy(), v.copy()
        for k in range(100):
            eta = 0.5 / np.sqrt(k + 1)
            x, y_next = step_prox_adam(fset, x, adam_block(y, v), gs[k], eta, cfg)
            y, v = split_adam_state(y_next)
            y2 = y2 - cfg.tau1 * eta * (y2 - gs[k])
            v2 = v2 - cfg.tau2 * eta * (v2 - gs[k] * gs[k])
            x2 = (1 - eta) * x2 + eta * (x2 - cfg.alpha * y2 / np.sqrt(v2 + cfg.eps))
            dev = max(
                np.max(np.abs(x - x2)), np.max(np.abs(y - y2)), np.max(np.abs(v - v2))
            )
            assert dev <= 1e-12

    def test_second_moment_stays_nonnegative(self):
        cfg = MethodConfig(kind="prox_adam", tau1=1.0, tau2=1.0, alpha=1.0, eps=1e-8)
        rng = np.random.default_rng(0)
        x = np.zeros(3)
        y = np.zeros(3)
        v = np.zeros(3)
        for k in range(2000):
            g = rng.standard_normal(3)
            x, y_next = step_prox_adam(unit_box(3), x, adam_block(y, v), g, 0.9, cfg)
            y, v = split_adam_state(y_next)
            assert np.all(v >= 0.0)

    def test_rejects_eta_tau2_above_one(self):
        cfg = MethodConfig(kind="prox_adam", tau1=1.0, tau2=4.0)
        with pytest.raises(ValueError):
            step_prox_adam(unit_box(1), np.zeros(1), np.zeros(2), [0.0], 0.5, cfg)

    def test_parameter_constraint_enforced(self):
        with pytest.raises(ValueError):
            MethodConfig(kind="prox_adam", tau1=0.1, tau2=0.5)


def test_steps_share_one_signature():
    # the embedded methods are black boxes: (x, y) -> (x_next, y_next)
    steps = [method.step for method in METHODS.values()]
    assert steps == [step_prox_sgd, step_prox_sgdm, step_prox_adam]
    params = [list(inspect.signature(f).parameters) for f in steps]
    assert params == [["fset", "x", "y", "g", "eta", "cfg"]] * 3


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "bogus"}, "unknown method kind"),
        ({"kind": "prox_sgdm", "tau": 0.0}, "tau, alpha, and eps must be positive"),
        ({"kind": "prox_sgdm", "alpha": -1.0}, "tau, alpha, and eps must be positive"),
        ({"kind": "prox_adam", "tau2": 0.0}, "0 < tau2 <= 4[*]tau1"),
    ],
)
def test_invalid_method_config_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MethodConfig(**kwargs)


@pytest.mark.parametrize(
    "cfg, eta",
    [
        (MethodConfig(kind="prox_sgd"), 0.0),
        (MethodConfig(kind="prox_sgd"), -0.1),
        (MethodConfig(kind="prox_sgd"), float("nan")),
        (MethodConfig(kind="prox_sgdm"), 1.5),
        (MethodConfig(kind="prox_sgdm"), float("nan")),
        (MethodConfig(kind="prox_adam"), 1.5),
        (MethodConfig(kind="prox_adam", tau1=1.0, tau2=4.0), 0.5),
        (MethodConfig(kind="prox_adam"), float("nan")),
    ],
    ids=lambda v: getattr(v, "kind", v),
)
def test_one_stepsize_rule_for_steps_and_configs(cfg, eta):
    # the step refuses every stepsize that the config refuses as its largest
    fset = unit_box(1)
    with pytest.raises(ValueError):
        cfg.check_stepsize(eta)
    with pytest.raises(ValueError):
        method_step(fset, np.zeros(1), np.zeros(cfg.aux_dim(1)), np.ones(1), eta, cfg)
    with pytest.raises(ValueError):
        SolverConfig(method=cfg, eta=StepSchedule("constant", eta))


def random_state(cfg, fset, rng):
    x = fset.project(2.0 * rng.standard_normal(fset.dim))
    y = rng.standard_normal(cfg.aux_dim(fset.dim)) if cfg.aux_dim(fset.dim) else np.zeros(0)
    if cfg.kind == "prox_adam":
        m, v = split_adam_state(y)
        y = np.concatenate([m, np.abs(v)])
    return x, y


@pytest.mark.parametrize("kind", ["prox_sgd", "prox_sgdm", "prox_adam"])
@pytest.mark.parametrize("set_name", ["free", "box", "ball"])
def test_feasibility_and_displacement_contract(kind, set_name):
    # 10^4 random steps per method: x stays feasible and the step length obeys
    # the computable bound eta * T
    cfg = MethodConfig(kind=kind, tau=1.3, alpha=0.8, tau1=1.1, tau2=0.6, eps=0.05)
    rng = np.random.default_rng(12)
    n = 3
    fset = SETS[set_name](n)
    trials = 10000 // 3 + 1
    for _ in range(trials):
        x, y = random_state(cfg, fset, rng)
        g = 3.0 * rng.standard_normal(n)
        eta = float(rng.uniform(0.01, 1.0))
        if kind == "prox_adam":
            eta = min(eta, 1.0 / cfg.tau2)
        x_next, y_next = method_step(fset, x, y, g, eta, cfg)
        assert fset.contains(x_next)
        bound = method_displacement_bound(cfg, fset, g, x, y)
        assert state_distance(x_next, y_next, x, y) <= eta * bound + 1e-9


def test_sgd_displacement_bound_is_gradient_norm():
    rng = np.random.default_rng(3)
    cfg = MethodConfig(kind="prox_sgd")
    fset = unit_box(4)
    for _ in range(100):
        g = rng.standard_normal(4)
        x = fset.project(rng.standard_normal(4))
        assert method_displacement_bound(cfg, fset, g, x, np.zeros(0)) == pytest.approx(
            np.linalg.norm(g)
        )


def test_zero_input_zero_displacement():
    for kind in ["prox_sgd", "prox_sgdm", "prox_adam"]:
        cfg = MethodConfig(kind=kind)
        fset = unit_box(2)
        x, y = np.zeros(2), np.zeros(cfg.aux_dim(2))
        x_next, y_next = method_step(fset, x, y, np.zeros(2), 0.5, cfg)
        assert state_distance(x_next, y_next, x, y) == 0.0
        assert method_displacement_bound(cfg, fset, np.zeros(2), x, y) == 0.0


@pytest.mark.parametrize("kind", ["prox_sgdm", "prox_adam"])
def test_displacement_linear_in_eta(kind):
    # one step from a fixed state: dist/eta approaches a limit as eta -> 0
    cfg = MethodConfig(kind=kind, tau=1.0, alpha=0.5, tau1=1.0, tau2=0.5, eps=0.1)
    fset = unit_box(3)
    rng = np.random.default_rng(5)
    x, y = random_state(cfg, fset, rng)
    g = rng.standard_normal(3)
    ratios = []
    for eta in [1e-1, 1e-2, 1e-3, 1e-4]:
        x_next, y_next = method_step(fset, x, y, g, eta, cfg)
        ratios.append(state_distance(x_next, y_next, x, y) / eta)
    assert ratios[-1] > 0.0
    assert ratios[-2] / ratios[-1] == pytest.approx(1.0, abs=0.1)
    assert max(ratios) / min(ratios) <= 2.0


@pytest.mark.parametrize("kind", ["prox_sgd", "prox_sgdm", "prox_adam"])
def test_converges_on_abs_value_toy(kind):
    # noiseless run on min |x| drives the objective below 1e-3 within 1e4 steps
    cfg = MethodConfig(kind=kind, tau=1.0, alpha=1.0, tau1=1.0, tau2=0.5, eps=1e-8)
    fset = WholeSpace(1)
    x, y = np.array([1.7]), np.zeros(cfg.aux_dim(1))
    best = abs(x[0])
    for k in range(10000):
        g = np.sign(x)
        eta = 0.5 / np.sqrt(k + 1)
        x, y = method_step(fset, x, y, g, eta, cfg)
        best = min(best, abs(x[0]))
        if best <= 1e-3:
            break
    assert best <= 1e-3
