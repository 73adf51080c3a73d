"""Golden SHA-256 hashes of the CLI's deterministic output files.

Every config under ``configs/`` runs with each embedded method (iterations
capped), the affine config also with three repetitions, the network problem
runs through ``compare`` with both dual rules, two affine configs with
different ``record_every`` through ``compare`` (blank cells), and one config
is swept over ``solver.rho`` and over ``solver.dual.kind``.
The wall-clock column of ``summary.csv`` is dropped before hashing; every
other byte must stay the same across refactors. When an output change is
intended, regenerate the hashes and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_outputs.py --regenerate
"""
import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sslalm.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_outputs.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden_outputs.py --regenerate"

METHODS = {
    "prox_sgd": {"kind": "prox_sgd"},
    "prox_sgdm": {"kind": "prox_sgdm", "tau": 1.0, "alpha": 0.2},
    "prox_adam": {"kind": "prox_adam", "tau1": 1.0, "tau2": 0.1, "alpha": 0.1, "eps": 1e-8},
}
NET_CAP = 200
AFFINE_CAP = 3000


def _load(name):
    return json.loads((ROOT / "configs" / name).read_text())


def _capped(table, method=None, record_every=7):
    table = copy.deepcopy(table)
    cap = NET_CAP if table["problem"]["kind"] == "slack_l1_net" else AFFINE_CAP
    table["solver"]["max_iters"] = min(table["solver"]["max_iters"], cap)
    if method is not None:
        table["solver"]["method"] = METHODS[method]
    table["record_every"] = record_every
    return table


def _cases():
    """name -> (subcommand, config tables, extra arguments)"""
    cases = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        for method in METHODS:
            cases[f"run/{path.stem}/{method}"] = ("run", [_capped(_load(path.name), method)], [])
    gaussian = _capped(_load("affine_l1_sgd.json"))
    gaussian["solver"]["noise"]["kind"] = "truncated_gaussian"
    cases["run/affine_l1_sgd/truncated_gaussian"] = ("run", [gaussian], [])
    # several metrics files and summary rows
    repeated = _capped(_load("affine_l1_sgd.json"))
    repeated["repetitions"] = 3
    cases["run/affine_l1_sgd/repetitions"] = ("run", [repeated], [])
    for method in ("prox_sgdm", "prox_adam"):
        # every record with the KKT probe and the Lyapunov value
        table = _capped(_load("net_sgdm.json"), method, record_every=1)
        table["kkt_probe"] = 1e-3
        cases[f"run/net_sgdm/{method}/every_record"] = ("run", [table], [])
    net = []
    for method in ("prox_sgdm", "prox_adam"):
        for dual in ("regu", "ialm"):
            table = _capped(_load("net_sgdm.json"), method, record_every=1)
            if dual == "ialm":
                table["solver"]["dual"] = {"kind": "ialm", "inner_steps": 20}
            net.append(table)
    cases["compare/net"] = ("compare", net, [])
    # different record_every values leave blank cells at the steps one
    # config records and the other does not
    cases["compare/affine_record_every"] = (
        "compare",
        [_capped(_load("affine_l1_sgd.json"), "prox_sgd", record_every=7),
         _capped(_load("affine_l1_sgd.json"), "prox_sgdm", record_every=5)],
        [],
    )
    affine = _capped(_load("affine_l1_sgd.json"))
    cases["sweep/rho"] = ("sweep", [affine], ["--param", "solver.rho", "--values", "0,0.5,2"])
    cases["sweep/dual"] = (
        "sweep", [affine], ["--param", "solver.dual.kind", "--values", "regu,ialm"]
    )
    return cases


CASES = _cases()


def _without_wall_time(data: bytes) -> bytes:
    rows = [line.split(",") for line in data.decode().splitlines()]
    if "wall_time_s" not in rows[0]:
        return data
    col = rows[0].index("wall_time_s")
    return "".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows).encode()


def run_case(name, workdir: Path) -> dict:
    """Run one case in ``workdir``; return its exit code and per-file hashes."""
    command, tables, extra = CASES[name]
    argv = [command]
    for i, table in enumerate(tables):
        path = workdir / f"config{i}.json"
        path.write_text(json.dumps(table))
        argv += ["--config", str(path)]
    out = workdir / "out"
    code = main(argv + extra + ["--out", str(out), "--quiet"])
    hashes = {
        f.name: hashlib.sha256(_without_wall_time(f.read_bytes())).hexdigest()
        for f in sorted(out.iterdir())
    }
    return {"exit": code, "files": hashes}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_hashes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_case(name, tmp_path)
    assert got == golden["cases"].get(name), (
        f"{name}: outputs differ from {GOLDEN.name} (hashed with numpy "
        f"{golden['numpy']}, running numpy {np.__version__}). If the change is "
        f"intended, regenerate with `{REGENERATE}` and say why in CHANGES.md."
    )


def regenerate():
    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = run_case(name, Path(tmp))
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=2) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {REGENERATE}")
    regenerate()
