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
    "make, method, dual, inner_steps, spans",
    [
        (AFFINE, "prox_sgdm", "regu", 1, ["geometry.project"]),
        (AFFINE, "prox_adam", "ialm", 2, ["geometry.prox_weighted"]),
        (NET, "prox_adam", "regu", 1, ["geometry.project", "geometry.prox_weighted"]),
    ],
    ids=["affine-sgdm-regu", "affine-adam-ialm", "net-adam-regu"],
)
def test_driver_calls_through_the_traced_names(tracing, make, method, dual, inner_steps, spans):
    rec = make()
    steps = 4
    cfg = SolverConfig(
        method=MethodConfig(kind=method, alpha=0.2), eta=StepSchedule("inv_sqrt_epoch", 0.1),
        tracker="correction", dual=dual, inner_steps=inner_steps, max_iters=steps,
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as missing:
        res = run(rec.instance, cfg, x0=rec.start, record_every=2)
    assert missing == []
    assert not res.aborted and np.isfinite(res.state.x).all()
    spans = ["core.as_vector"] + spans
    assert {name: tracer.stats[name].calls > 0 for name in spans} == dict.fromkeys(spans, True)
    # each step calls the method, the tracker and the regu dual step once, and
    # each dual update the ialm step; each record stack (the first record, then
    # one per block) calls the record, its KKT probe and the Lyapunov value once
    dual_span = "lagrangian.dual_step" if dual == "regu" else "lagrangian.dual_step_ialm"
    counted = {"methods.step": steps, "lagrangian.tracker": steps,
               dual_span: steps // inner_steps, "diagnostics.record": 2, "diagnostics.kkt": 2,
               "diagnostics.lyapunov": 2}
    assert {name: tracer.stats[name].calls for name in counted} == counted
