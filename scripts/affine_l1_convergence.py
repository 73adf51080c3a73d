#!/usr/bin/env python3
"""Run the three embedded methods on one affine-L1 instance and compare the
final iterates against the brute-force oracle."""
import argparse

import sslalm as m


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iters", type=int, default=50000)
    args = parser.parse_args()

    rec = m.make_affine_l1(n=args.n, p=args.p, seed=args.seed)
    fstar = rec.oracle_solution.f
    print(f"instance n={args.n} p={args.p} seed={args.seed}: oracle value {fstar:.6f}")
    print(f"{'method':<12} {'f':>10} {'gap':>10} {'||c||':>10} {'kkt':>10} {'time':>8}")
    methods = {
        "prox_sgd": m.MethodConfig(kind="prox_sgd"),
        "prox_sgdm": m.MethodConfig(kind="prox_sgdm", tau=1.0, alpha=0.05),
        "prox_adam": m.MethodConfig(kind="prox_adam", tau1=1.0, tau2=0.1, alpha=0.05),
    }
    for name, method in methods.items():
        cfg = m.SolverConfig(
            method=method,
            rho=1.0,
            beta=5.0,
            theta=m.StepSchedule("constant", 0.5),
            eta=m.StepSchedule("inv_sqrt_epoch", 0.5, 1),
            noise=m.NoiseModel("uniform_box", 0.1),
            max_iters=args.iters,
            seed=args.seed,
        )
        res = m.run(rec.instance, cfg, x0=rec.start, record_every=max(1, args.iters // 10))
        f = res.final
        print(
            f"{name:<12} {f.f_val:>10.5f} {f.f_val - fstar:>10.2e} "
            f"{f.feas:>10.2e} {f.kkt_residual:>10.2e} {res.wall_time_s:>7.2f}s"
        )


if __name__ == "__main__":
    main()
