"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The solver runs of criteria 1, 3, 4 and 8 are made once, in a module-scoped
ledger, so the multiplier-contraction and determinism criteria can quantify
over every acceptance run, also when they are selected alone. Criteria 1, 4
and 8 run the shipped experiments: the solver table of
``configs/affine_l1_sgd.json`` with the methods of
``scripts/affine_l1_convergence.py``, ``configs/tracker_correction.json``,
and the configs of ``scripts/net_training_protocol.py``.
"""
from typing import NamedTuple

import numpy as np
import pytest

import sslalm as m
from sslalm.cli import build_recipe, cmd_compare, parse_config
from sslalm.diagnostics import lyapunov_adam, lyapunov_momentum, u_adam
from helpers import ROOT, affine_instances, load_script

convergence = load_script("affine_l1_convergence")
protocol = load_script("net_training_protocol")
# the protocol's default budget: 100 epochs of 2 steps
PROTOCOL_EPOCHS = 100


class LedgerRun(NamedTuple):
    result: m.RunResult
    blob: bytes  # the records as JSON lines
    prob: object
    cfg: m.SolverConfig
    kw: dict


def records_blob(res) -> bytes:
    return "\n".join(r.to_json_line() for r in res.records).encode()


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def criterion_1_runs(add):
    for kind in convergence.METHODS:
        for n, p, seed in affine_instances():
            rec = m.make_affine_l1(n=n, p=p, seed=seed)
            cfg = convergence.solver_config(kind, 100 + seed)
            add(f"c1/{kind}/{n}/{p}/{seed}", rec.instance, cfg,
                x0=rec.start, record_every=cfg.max_iters, kkt_probe=None)


def criterion_3_runs(add):
    rec = m.make_exactness_1d(slope=2.0)
    cfg = m.SolverConfig(
        method=m.MethodConfig(kind="prox_sgdm", tau=1.0, alpha=0.05),
        rho=1.0,
        beta=3.0,
        theta=m.StepSchedule("constant", 0.5),
        eta=m.StepSchedule("inv_sqrt_epoch", 0.5, 1),
        max_iters=20000,
        seed=0,
    )
    add("c3/sgdm_exactness", rec.instance, cfg, x0=rec.start,
        record_every=20000, kkt_probe=None)


def criterion_4_runs(add):
    cfg = parse_config(ROOT / "configs" / "tracker_correction.json")
    rec = build_recipe(cfg)
    # every iteration recorded, for the mean over the last 10%
    add("c4/tracker_affine", rec.instance, cfg.solver, x0=rec.start,
        record_every=1, kkt_probe=cfg.kkt_probe)


def protocol_configs():
    return {
        (method_kind, dual): protocol.build_config(method_kind, dual, PROTOCOL_EPOCHS)
        for method_kind in ["sgdm", "adam"]
        for dual in ["regu", "ialm"]
    }


def criterion_8_runs(add):
    configs = protocol_configs()
    # the four configs share one problem
    rec = build_recipe(next(iter(configs.values())))
    for (method_kind, dual), cfg in configs.items():
        add(f"c8/{method_kind}_{dual}", rec.instance, cfg.solver,
            x0=rec.start, record_every=cfg.record_every, kkt_probe=cfg.kkt_probe)


@pytest.fixture(scope="module")
def ledger():
    """Every solver run of criteria 1, 3, 4 and 8, made once per module."""
    runs = {}

    def add(key, prob, cfg, **kw):
        res = m.run(prob, cfg, **kw)
        runs[key] = LedgerRun(res, records_blob(res), prob, cfg, kw)

    for make_runs in (criterion_1_runs, criterion_3_runs, criterion_4_runs, criterion_8_runs):
        make_runs(add)
    return runs


def test_criterion_1_oracle_convergence(ledger):
    # three embedded methods on ten random affine-L1 instances against the
    # brute-force oracle: feasibility <= 1e-2 and relative objective gap
    # <= 1e-2 within 5e4 iterations, each run within the 30 s budget
    failures = []
    max_wall = 0.0
    for kind in convergence.METHODS:
        for n, p, seed in affine_instances():
            rec = m.make_affine_l1(n=n, p=p, seed=seed)
            res = ledger[f"c1/{kind}/{n}/{p}/{seed}"].result
            fstar = rec.oracle_solution.f
            final = res.final
            gap_tol = 1e-2 * (1.0 + abs(fstar))
            max_wall = max(max_wall, res.wall_time_s)
            if res.aborted or final.feas > 1e-2 or final.f_val > fstar + gap_tol:
                failures.append((kind, n, p, seed, final.feas, final.f_val - fstar))
            if res.wall_time_s > 30.0:
                failures.append((kind, n, p, seed, "wall", res.wall_time_s))
    ok = not failures
    report(1, ok, f"30/30 runs converged to the oracle (max wall {max_wall:.1f}s)"
           if ok else f"failures: {failures}")
    assert ok


def test_criterion_3_exact_penalty_threshold(ledger):
    # dense-grid penalty minimizer flips from infeasible to feasible at the
    # threshold weight, and the momentum solver drives the iterate to zero
    grid = np.linspace(-1.0, 1.0, 200001)
    step = grid[1] - grid[0]
    grid_ok = True
    for beta in [1.5, 1.9]:
        xmin = grid[int(np.argmin(-2.0 * grid + beta * np.abs(grid) + 0.5 * grid**2))]
        grid_ok &= abs(xmin - (2.0 - beta)) <= step and abs(xmin) > 1e-2
    for beta in [2.1, 2.5]:
        xmin = grid[int(np.argmin(-2.0 * grid + beta * np.abs(grid) + 0.5 * grid**2))]
        grid_ok &= abs(xmin) <= step
    res = ledger["c3/sgdm_exactness"].result
    run_ok = not res.aborted and abs(res.state.x[0]) <= 1e-2
    ok = grid_ok and run_ok
    report(3, ok, f"grid switch at the threshold, final |x| = {abs(res.state.x[0]):.2e}")
    assert ok


def test_criterion_4_tracker_convergence(ledger):
    # correction tracker on the sampled affine instance: mean error over the
    # last 10% of 1e5 iterations at most 0.05
    res = ledger["c4/tracker_affine"].result
    tail = [r.tracker_err for r in res.records[-10000:]]
    mean_err = float(np.mean(tail))
    ok = not res.aborted and mean_err <= 0.05
    report(4, ok, f"tail tracker error {mean_err:.4f} <= 0.05")
    assert ok


def test_criterion_5_weighted_aux_gradients():
    # closed-form gradients of the weighted auxiliary value against central
    # finite differences at 100 random points on box and ball sets
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 5))
        if trial % 2 == 0:
            fset = m.Box(-np.ones(n), np.ones(n))
        else:
            fset = m.Ball(rng.uniform(-0.3, 0.3, n), float(rng.uniform(0.5, 2.0)))
        x = fset.sample(rng)
        y = rng.uniform(-2, 2, n)
        v = rng.uniform(0.0, 2.0, n)
        alpha = float(rng.uniform(0.3, 1.5))
        eps = float(rng.uniform(0.3, 1.0))
        _, gx, gy, gv = u_adam(fset, x, y, v, alpha, eps)
        h = 1e-6
        for which, grad in [("x", gx), ("y", gy), ("v", gv)]:
            fd = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                hi = {"x": (x + e, y, v), "y": (x, y + e, v), "v": (x, y, v + e)}[which]
                lo = {"x": (x - e, y, v), "y": (x, y - e, v), "v": (x, y, v - e)}[which]
                fd[i] = (u_adam(fset, *hi, alpha, eps)[0] - u_adam(fset, *lo, alpha, eps)[0]) / (2 * h)
            worst = max(worst, np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)))
    ok = worst <= 1e-5
    report(5, ok, f"worst relative gradient error {worst:.2e} <= 1e-5")
    assert ok


def _adam_equivalence_deviation():
    n = 4
    fset = m.WholeSpace(n)
    cfg = m.MethodConfig(kind="prox_adam", tau1=1.0, tau2=0.5, alpha=0.7, eps=1e-3)
    rng = np.random.default_rng(7)
    gs = rng.standard_normal((100, n))
    x = rng.standard_normal(n)
    y = np.zeros(n)
    v = np.zeros(n)
    x2, y2, v2 = x.copy(), y.copy(), v.copy()
    dev = 0.0
    for k in range(100):
        eta = 0.5 / np.sqrt(k + 1)
        x, yv = m.step_prox_adam(fset, x, np.concatenate([y, v]), gs[k], eta, cfg)
        y, v = yv[:n], yv[n:]
        y2 = y2 - cfg.tau1 * eta * (y2 - gs[k])
        v2 = v2 - cfg.tau2 * eta * (v2 - gs[k] * gs[k])
        x2 = (1 - eta) * x2 + eta * (x2 - cfg.alpha * y2 / np.sqrt(v2 + cfg.eps))
        dev = max(dev, np.max(np.abs(x - x2)), np.max(np.abs(y - y2)), np.max(np.abs(v - v2)))
    return dev, x


def test_criterion_6_unconstrained_adam_equivalence():
    # on the whole space the weighted-prox step must replicate the plain
    # recursion to floating-point accuracy over a 100-step trajectory
    dev, _ = _adam_equivalence_deviation()
    ok = dev <= 1e-12
    report(6, ok, f"max trajectory deviation {dev:.2e} <= 1e-12")
    assert ok


def _lyapunov_ratio(kind, alpha=1.0):
    fset = m.Box(np.array([-1.0]), np.array([1.0]))
    h = lambda z: abs(float(z[0]) - 0.3)
    x = np.array([-0.8])
    eta = 1e-3
    if kind == "sgdm":
        cfg = m.MethodConfig(kind="prox_sgdm", tau=0.4, alpha=alpha)
        y = np.zeros(1)
        vals = [lyapunov_momentum(h(x), fset, x, y, cfg.tau, cfg.alpha)]
        for _ in range(10000):
            x, y = m.step_prox_sgdm(fset, x, y, np.sign(x - 0.3), eta, cfg)
            vals.append(lyapunov_momentum(h(x), fset, x, y, cfg.tau, cfg.alpha))
    else:
        cfg = m.MethodConfig(kind="prox_adam", tau1=0.4, tau2=0.1, alpha=alpha, eps=1e-8)
        yv = np.zeros(2)
        vals = [lyapunov_adam(h(x), fset, x, yv[:1], yv[1:], cfg.tau1, cfg.alpha, cfg.eps)]
        for _ in range(10000):
            x, yv = m.step_prox_adam(fset, x, yv, np.sign(x - 0.3), eta, cfg)
            vals.append(lyapunov_adam(h(x), fset, x, yv[:1], yv[1:], cfg.tau1, cfg.alpha, cfg.eps))
    diffs = np.diff(np.array(vals))
    increase = float(diffs[diffs > 0].sum())
    decrease = float(-diffs[diffs < 0].sum())
    return increase, decrease, vals


def test_criterion_7_lyapunov_descent():
    # noiseless momentum and ADAM runs at the prox scales of the configs:
    # cumulative increase of the descent certificate at most 1e-3 of its
    # total decrease
    details = []
    ok = True
    for kind in ["sgdm", "adam"]:
        for alpha in [1.0, 0.2, 0.05]:
            inc, dec, vals = _lyapunov_ratio(kind, alpha)
            ratio = inc / dec
            ok &= ratio <= 1e-3 and vals[-1] < vals[0]
            details.append(f"{kind} alpha {alpha} ratio {ratio:.2e}")
    report(7, ok, ", ".join(details) + " (budget 1e-3)")
    assert ok


def test_criterion_8_training_protocol_analog(ledger, tmp_path):
    # epoch-schedule training on the slack-reformulated network: the
    # single-loop runs halve the constraint violation and reduce the loss;
    # the classical-ascent baselines complete, their multipliers move off zero,
    # and the comparison table lands
    results = {
        (method_kind, dual): ledger[f"c8/{method_kind}_{dual}"].result
        for method_kind in ["sgdm", "adam"]
        for dual in ["regu", "ialm"]
    }
    ok = True
    details = []
    for method_kind in ["sgdm", "adam"]:
        res = results[(method_kind, "regu")]
        first, last = res.records[0], res.final
        halved = last.feas <= 0.5 * first.feas
        reduced = last.f_val < first.f_val
        ok &= (not res.aborted) and halved and reduced
        details.append(f"{method_kind}: feas {first.feas:.2f}->{last.feas:.2f} loss "
                       f"{first.f_val:.2f}->{last.f_val:.2f}")
        ialm = results[(method_kind, "ialm")]
        moved = max(r.lambda_norm for r in ialm.records)
        ok &= not ialm.aborted and moved > 0
        details.append(f"{method_kind} ialm: max ||lam|| {moved:.2f}, feas "
                       f"{ialm.records[0].feas:.2f}->{ialm.final.feas:.2f}")
    code = cmd_compare(list(protocol_configs().values()), out=str(tmp_path), quiet=True)
    table = (tmp_path / "compare.csv").read_text().splitlines()
    ok &= code == 0 and len(table) > 10 and table[0].count("_loss") == 4
    report(8, ok, "; ".join(details) + "; 4-column compare table emitted")
    assert ok


def test_criterion_2_dual_boundedness(ledger):
    # per-step contraction of the multiplier norm toward the dual ball held
    # exactly (within 1e-12) on every normalized-dual acceptance run above
    slacks = [
        (key, run.result.max_contraction_slack, run.result.max_dual_excess)
        for key, run in ledger.items()
        if run.cfg.dual == "regu"
    ]
    worst_slack = max(s for _, s, _ in slacks)
    worst_excess = max(e for _, _, e in slacks)
    ok = worst_slack <= 1e-12 and worst_excess <= 1e-9
    report(2, ok, f"max contraction slack {worst_slack:.1e} over {len(slacks)} runs; "
           f"max norm excess after burn-in {worst_excess:.1e}")
    assert ok


def test_criterion_9_determinism(ledger):
    # representative runs from every family above rerun byte-identically,
    # and the pure computations of criteria 5-7 are reproducible exactly
    keys = [
        "c1/prox_sgd/10/1/0",
        "c1/prox_sgdm/10/1/0",
        "c1/prox_adam/10/1/0",
        "c3/sgdm_exactness",
        "c4/tracker_affine",
        "c8/sgdm_regu",
        "c8/adam_ialm",
    ]
    ok = True
    for key in keys:
        run = ledger[key]
        if records_blob(m.run(run.prob, run.cfg, **run.kw)) != run.blob:
            ok = False
    dev1, x1 = _adam_equivalence_deviation()
    dev2, x2 = _adam_equivalence_deviation()
    ok &= dev1 == dev2 and np.array_equal(x1, x2)
    inc1, dec1, _ = _lyapunov_ratio("sgdm")
    inc2, dec2, _ = _lyapunov_ratio("sgdm")
    ok &= inc1 == inc2 and dec1 == dec2
    report(9, ok, f"{len(keys)} solver reruns byte-identical; pure checks reproduce exactly")
    assert ok
