#!/usr/bin/env python3
"""Run the three embedded methods on one affine-L1 instance, with the solver
settings of configs/affine_l1_sgd.json, and compare the final iterates against
the brute-force oracle."""
import argparse
import json
from pathlib import Path

import sslalm as m
from sslalm.cli import config_from_dict

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "affine_l1_sgd.json"

# the method table of each run; every other solver setting comes from CONFIG
METHODS = {
    "prox_sgd": {"kind": "prox_sgd"},
    "prox_sgdm": {"kind": "prox_sgdm", "tau": 1.0, "alpha": 0.05},
    "prox_adam": {"kind": "prox_adam", "tau1": 1.0, "tau2": 0.1, "alpha": 0.05},
}


def solver_config(method, seed, max_iters=None):
    """The solver table of CONFIG with the method table ``METHODS[method]``,
    the run seed ``seed`` and, when given, the iteration budget ``max_iters``."""
    raw = json.loads(CONFIG.read_text())
    raw["solver"].update(method=METHODS[method], seed=seed)
    if max_iters is not None:
        raw["solver"]["max_iters"] = max_iters
    return config_from_dict(raw).solver


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iters", type=int, default=None, help="default: the config's max_iters")
    args = parser.parse_args()

    rec = m.make_affine_l1(n=args.n, p=args.p, seed=args.seed)
    fstar = rec.oracle_solution.f
    print(f"instance n={args.n} p={args.p} seed={args.seed}: oracle value {fstar:.6f}")
    print(f"{'method':<12} {'f':>10} {'gap':>10} {'||c||':>10} {'kkt':>10} {'time':>8}")
    for name in METHODS:
        cfg = solver_config(name, args.seed, args.iters)
        res = m.run(rec.instance, cfg, x0=rec.start, record_every=max(1, cfg.max_iters // 10))
        f = res.final
        print(
            f"{name:<12} {f.f_val:>10.5f} {f.f_val - fstar:>10.2e} "
            f"{f.feas:>10.2e} {f.kkt_residual:>10.2e} {res.wall_time_s:>7.2f}s"
        )


if __name__ == "__main__":
    main()
