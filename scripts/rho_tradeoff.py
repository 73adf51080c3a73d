#!/usr/bin/env python3
"""Quadratic-penalty weight sweep on the constrained network, with the
settings of configs/net_sgdm.json at prox scale 0.1: larger weights buy
feasibility at the price of a slower loss decrease."""
import argparse
import json
from pathlib import Path

from sslalm.cli import cmd_sweep, config_from_dict

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "net_sgdm.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/rho_tradeoff")
    parser.add_argument(
        "--values", default="1e-2,1e-3,1e-4,1e-5", help="comma-separated penalty weights"
    )
    args = parser.parse_args()
    raw = json.loads(CONFIG.read_text())
    raw["solver"]["method"]["alpha"] = 0.1
    values = [float(v) for v in args.values.split(",")]
    cmd_sweep(config_from_dict(raw), "solver.rho", values, out=args.out)


if __name__ == "__main__":
    main()
