"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by name. Each name it wraps must still exist, and the driver must still call
through it, or a refactor silently zeroes a per-layer metric."""
from functools import partial

import numpy as np
import pytest

import sslalm
from sslalm import cli
from sslalm.lagrangian import SolverConfig, StepSchedule, run
from sslalm.methods import MethodConfig
from sslalm.problems import make_slack_l1_net, make_stochastic_affine
from helpers import ROOT, load_module

TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    """The tracer module, loaded from its file without writing bytecode."""
    return load_module(TRACING)


def test_every_entry_point_owner_has_its_attribute(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing._entry_points()
        if attr not in vars(owner)
    ]
    missing += [f"{mod.__name__}.make_recipe" for mod in (sslalm, cli) if "make_recipe" not in vars(mod)]
    assert missing == []


AFFINE = partial(make_stochastic_affine, n=3, p=1, noise_scale=0.1, seed=0)
NET = partial(make_slack_l1_net, layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)


@pytest.mark.parametrize(
    "make, method, dual, spans",
    [
        (AFFINE, "prox_sgdm", "regu", ["lagrangian.dual_step", "diagnostics.lyapunov", "geometry.project"]),
        (AFFINE, "prox_adam", "ialm",
         ["lagrangian.dual_step_ialm", "diagnostics.lyapunov", "geometry.prox_weighted"]),
        (NET, "prox_adam", "regu",
         ["lagrangian.dual_step", "diagnostics.lyapunov", "geometry.project", "geometry.prox_weighted"]),
    ],
    ids=["affine-sgdm-regu", "affine-adam-ialm", "net-adam-regu"],
)
def test_driver_calls_through_the_traced_names(tracing, make, method, dual, spans):
    rec = make()
    cfg = SolverConfig(
        method=MethodConfig(kind=method, alpha=0.2),
        eta=StepSchedule("inv_sqrt_epoch", 0.1), tracker="correction", dual=dual, max_iters=4,
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as missing:
        res = run(rec.instance, cfg, x0=rec.start, record_every=2)
    assert missing == []
    assert not res.aborted and np.isfinite(res.state.x).all()
    spans = ["methods.step", "lagrangian.tracker", "core.as_vector", "diagnostics.record"] + spans
    assert {name: tracer.stats[name].calls > 0 for name in spans} == dict.fromkeys(spans, True)
