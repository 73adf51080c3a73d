"""The experiment scripts under ``scripts/`` run end to end on a tiny budget,
and write only where they are told to."""
import json
import sys

import pytest

from helpers import ROOT, load_script


def listing():
    return {path: sorted(p.name for p in path.iterdir()) for path in (ROOT, ROOT / "scripts")}


@pytest.mark.parametrize(
    "name, args, outputs",
    [
        ("affine_l1_convergence", ["--iters", "200"], []),
        ("net_training_protocol", ["--epochs", "2"], ["compare.csv"]),
        ("rho_tradeoff", ["--values", "1e-2,1e-3"], ["sweep.csv"]),
    ],
)
def test_script_runs_and_writes_only_its_outputs(tmp_path, monkeypatch, capsys, name, args, outputs):
    before = listing()
    script = load_script(name)
    out = tmp_path / "out"
    if outputs:
        args = args + ["--out", str(out)]
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + args)
    script.main()
    printed = capsys.readouterr().out
    if outputs:
        assert sorted(p.name for p in out.iterdir()) == outputs
    else:
        # one table row per embedded method
        rows = [line.split()[0] for line in printed.splitlines()[2:]]
        assert rows == list(script.METHODS)
    assert listing() == before


@pytest.mark.parametrize("bench", ["BENCH_10.json", "BENCH_11.json"])
def test_bench_ab_summary_matches_the_committed_bench_files(bench):
    # BENCH_10.json predates the script; both files share one layout
    data = json.loads((ROOT / bench).read_text())
    script = load_script("bench_ab")
    assert data["metrics"].keys() == data["summary"].keys()
    for name, m in data["metrics"].items():
        assert script.summary(m["parent"], m["change"]) == pytest.approx(data["summary"][name])
