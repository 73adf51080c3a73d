"""``run()`` against the restated iteration of ``reference.py``: bitwise on the
final ``(x, lam, w)``, ``max_contraction_slack`` and ``max_dual_excess``, over
every recipe, method, tracker, dual rule, stepsize schedule and noise kind."""
import functools
import itertools

import numpy as np
import pytest

from sslalm import MethodConfig, NoiseModel, SolverConfig, StepSchedule, make_recipe, run
from sslalm.lagrangian import NOISE_CHUNK
from reference import reference_run

RECIPE_PARAMS = {
    "affine_l1": {"n": 6, "p": 2, "seed": 4},
    "stochastic_affine": {"n": 5, "p": 2, "noise_scale": 0.3, "seed": 4},
    "exactness_1d": {},
    "slack_l1_net": {"layer_widths": (2, 4, 2), "n_train": 16, "n_test": 8, "batch_size": 4},
}
METHODS = ["prox_sgd", "prox_sgdm", "prox_adam"]
TRACKERS = ["exact", "correction"]
DUALS = ["regu", "ialm"]
ETAS = {
    "constant": StepSchedule("constant", 0.3),
    "inv_sqrt_epoch": StepSchedule("inv_sqrt_epoch", 0.6, epoch_len=5),
    "power": StepSchedule("power", 0.8, exponent=0.75),
}
NOISES = {
    "none": NoiseModel(),
    "uniform_box": NoiseModel("uniform_box", 0.1),
    "truncated_gaussian": NoiseModel("truncated_gaussian", 0.2),
}
# more than two noise blocks, the last one partial
LONG_ITERS = 2 * NOISE_CHUNK + 77


@functools.lru_cache(maxsize=None)
def recipe(kind):
    return make_recipe(kind, **RECIPE_PARAMS[kind])


def config(method, tracker, dual, eta, noise, iters):
    return SolverConfig(
        method=MethodConfig(kind=method, tau=1.2, alpha=0.3, tau1=0.9, tau2=0.5, eps=1e-6),
        rho=0.7, beta=2.0,
        theta=StepSchedule("inv_sqrt_epoch", 0.9, epoch_len=3),
        eta=ETAS[eta], tracker=tracker, tau_tilde=1.0,
        dual=dual, beta_tilde=0.5, sigma=1.5, theta_tilde=0.8,
        inner_steps=7 if dual == "ialm" else 1,
        noise=NOISES[noise], max_iters=iters, seed=11,
    )


def mismatches(kind, cfg):
    """The names of the outputs on which ``run()`` and the reference differ."""
    rec = recipe(kind)
    res = run(rec.instance, cfg, x0=rec.start, record_every=cfg.max_iters + 1, kkt_probe=None)
    assert not res.aborted, res.abort_reason
    got = (res.state.x, res.state.lam, res.state.w, res.max_contraction_slack, res.max_dual_excess)
    want = reference_run(rec.instance, cfg, rec.start)
    names = ("x", "lam", "w", "max_contraction_slack", "max_dual_excess")
    return [
        name for name, a, b in zip(names, got, want)
        if np.asarray(a, dtype=np.float64).tobytes() != np.asarray(b, dtype=np.float64).tobytes()
    ]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", list(RECIPE_PARAMS))
def test_run_matches_reference_bitwise(kind, method):
    failed = {}
    for tracker, dual, eta, noise in itertools.product(TRACKERS, DUALS, ETAS, NOISES):
        bad = mismatches(kind, config(method, tracker, dual, eta, noise, 50))
        if bad:
            failed[(tracker, dual, eta, noise)] = bad
    assert failed == {}


@pytest.mark.parametrize(
    "kind, method, tracker, dual, eta, noise",
    [
        ("stochastic_affine", "prox_adam", "correction", "regu", "inv_sqrt_epoch", "uniform_box"),
        ("stochastic_affine", "prox_sgd", "exact", "ialm", "constant", "truncated_gaussian"),
        ("slack_l1_net", "prox_sgdm", "exact", "regu", "power", "uniform_box"),
        ("affine_l1", "prox_adam", "correction", "regu", "inv_sqrt_epoch", "truncated_gaussian"),
    ],
)
def test_long_run_matches_reference_bitwise(kind, method, tracker, dual, eta, noise):
    # sampled problems with noise: each block is drawn before its first step's tokens
    assert mismatches(kind, config(method, tracker, dual, eta, noise, LONG_ITERS)) == []
