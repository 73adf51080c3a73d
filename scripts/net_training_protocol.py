#!/usr/bin/env python3
"""Constrained network training on the synthetic dataset: single-loop runs
(normalized dual) against the classical-ascent baselines with a fixed inner
budget, 100 epochs each, with the settings of configs/net_sgdm.json. Writes
the comparison table to --out."""
import argparse
import json
from pathlib import Path

from sslalm.cli import cmd_compare, config_from_dict

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "net_sgdm.json"

# the tables that replace CONFIG's method and dual for the ADAM and ialm runs;
# the ialm runs update their multipliers every 20 steps (10 epochs), well inside
# the default 200-step budget
ADAM = {"kind": "prox_adam", "tau1": 1.0, "tau2": 0.1, "alpha": 0.1, "eps": 1e-8}
IALM = {"kind": "ialm", "theta_tilde": 1.0, "beta_tilde": 1.0, "sigma": 2.0, "inner_steps": 20}


def build_config(method_kind, dual, epochs):
    """CONFIG with ``2*epochs`` iterations, the ADAM method table for
    ``method_kind == "adam"`` and the ialm dual table for ``dual == "ialm"``."""
    raw = json.loads(CONFIG.read_text())
    raw["solver"]["max_iters"] = 2 * epochs
    if method_kind == "adam":
        raw["solver"]["method"] = ADAM
    if dual == "ialm":
        raw["solver"]["dual"] = IALM
    return config_from_dict(raw)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--out", default="out/net_protocol")
    args = parser.parse_args()
    configs = [
        build_config(mk, d, args.epochs) for mk in ["sgdm", "adam"] for d in ["regu", "ialm"]
    ]
    cmd_compare(configs, out=args.out)


if __name__ == "__main__":
    main()
