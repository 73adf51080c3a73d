"""A fourth embedded method added as one ``METHODS`` entry, over existing
``MethodConfig`` fields, runs through ``run()`` and ``sslalm run`` with no
other change: projected heavy ball, ``y' = y - tau*eta*(y - g)`` and
``x' = P(x - eta*alpha*y')``, with one auxiliary block and ``eta <= 1``."""
import json

import numpy as np
import pytest

from sslalm import MethodConfig, SolverConfig, StepSchedule, make_recipe, run
from sslalm.cli import config_from_dict, main, serialize_config
from sslalm.methods import METHODS, EmbeddedMethod
from reference import UPDATES, reference_run

KIND = "prox_heavy_ball"


def heavy_ball_stepsize(eta, cfg):
    if eta > 1.0:
        raise ValueError("eta <= 1 required for heavy-ball steps")


def step_heavy_ball(fset, x, y, g, eta, cfg):
    cfg.check_stepsize(eta)
    y_next = y - cfg.tau * eta * (y - np.asarray(g))
    return fset.project(x - eta * cfg.alpha * y_next), y_next


def reference_heavy_ball(fset, x, y, g, eta, mc):
    y = y - mc.tau * eta * (y - g)
    return fset.project(x - eta * mc.alpha * y), y


@pytest.fixture(autouse=True)
def heavy_ball(monkeypatch):
    monkeypatch.setitem(
        METHODS, KIND, EmbeddedMethod(("tau", "alpha"), 1, heavy_ball_stepsize, step_heavy_ball)
    )


def solver(**overrides):
    return SolverConfig(
        method=MethodConfig(kind=KIND, tau=1.2, alpha=0.3), rho=0.7, beta=2.0,
        eta=StepSchedule("inv_sqrt_epoch", 0.6, epoch_len=5), max_iters=200, seed=11,
        **overrides,
    )


def table(tmp_path, method):
    return {
        "problem": {"kind": "affine_l1", "n": 6, "p": 2, "seed": 4},
        "solver": {"method": method, "max_iters": 50},
        "output_path": str(tmp_path / "out"),
    }


def test_state_size_and_stepsize_rule_come_from_the_entry():
    cfg = MethodConfig(kind=KIND)
    assert cfg.aux_dim(6) == 6
    with pytest.raises(ValueError, match="eta <= 1 required for heavy-ball steps"):
        SolverConfig(method=cfg, eta=StepSchedule("constant", 1.5))


@pytest.mark.parametrize("kind", ["affine_l1", "stochastic_affine"])
@pytest.mark.parametrize("tracker", ["exact", "correction"])
def test_run_matches_reference_bitwise(kind, tracker):
    rec = make_recipe(kind, n=6, p=2, seed=4)
    cfg = solver(tracker=tracker)
    res = run(rec.instance, cfg, x0=rec.start, record_every=50, kkt_probe=None)
    assert not res.aborted, res.abort_reason
    # no descent certificate for this method
    assert all(r.lyapunov is None for r in res.records)
    updates = {**UPDATES, KIND: (1, reference_heavy_ball)}
    want = reference_run(rec.instance, cfg, rec.start, updates)[:3]
    for got, ref in zip((res.state.x, res.state.lam, res.state.w), want):
        assert got.tobytes() == np.asarray(ref, dtype=np.float64).tobytes()


def test_sslalm_run_from_a_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(table(tmp_path, {"kind": KIND, "tau": 1.2, "alpha": 0.3})))
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    lines = (tmp_path / "out" / "metrics_rep000.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    assert last["k"] == 50 and last["lyapunov"] is None


def test_key_the_entry_does_not_name_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(table(tmp_path, {"kind": KIND, "eps": 1e-6})))
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    assert f"solver.method: unknown keys ['eps'] for kind {KIND!r}" in capsys.readouterr().err


def test_serialize_writes_only_the_fields_the_entry_names(tmp_path):
    cfg = config_from_dict(table(tmp_path, {"kind": KIND}))
    method = serialize_config(cfg)["solver"]["method"]
    assert method == {"kind": KIND, "tau": 1.0, "alpha": 1.0}
    assert config_from_dict(serialize_config(cfg)) == cfg
