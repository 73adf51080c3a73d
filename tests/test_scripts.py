"""The experiment scripts under ``scripts/`` run end to end on a tiny budget,
and write only where they are told to."""
import json
import subprocess
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


# every committed A/B file with a summary, whether or not the script wrote it
AB_BENCH_FILES = sorted(p.name for p in ROOT.glob("BENCH_*.json")
                        if "summary" in json.loads(p.read_text()))


@pytest.mark.parametrize("bench", AB_BENCH_FILES)
def test_bench_ab_summary_matches_the_committed_bench_files(bench):
    data = json.loads((ROOT / bench).read_text())
    script = load_script("bench_ab")
    assert data["metrics"].keys() == data["summary"].keys()
    for name, m in data["metrics"].items():
        assert script.summary(m["parent"], m["change"]) == pytest.approx(data["summary"][name])


@pytest.mark.parametrize(
    "bad, errors",
    [
        (None, []),
        (("change", 2, "correct", False), ["error: pair 2 change: correct False, failed 0"]),
        (("parent", 1, "failed", 1), ["error: pair 1 parent: correct True, failed 1"]),
    ],
    ids=["clean", "change-incorrect", "parent-failed"],
)
def test_bench_ab_exits_1_on_a_faulty_run(tmp_path, monkeypatch, capsys, bad, errors):
    # a run that is incorrect or fails a check still goes into the file, but
    # the script names it on stderr and exits 1
    script = load_script("bench_ab")
    calls = []

    def bench(tree, seconds, seed):
        # both sides run from fresh trees side by side, neither from the checkout
        side = {work / "parent": "parent", work / "change": "change"}[tree]
        calls.append(side)
        pair = seed - script.SEED_BASE
        result = {"correct": True, "failed": 0, "attempted": 3,
                  "metrics": {"w.chain_iter_us": {"unit": "us", "value": float(len(calls))}}}
        if bad is not None and (side, pair) == bad[:2]:
            result[bad[2]] = bad[3]
        return result, {}

    work = tmp_path / "work"
    monkeypatch.setattr(script, "archive", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(script, "snapshot", lambda dest: None)
    monkeypatch.setattr(script, "bench", bench)
    out = tmp_path / "bench.json"
    code = script.main(["--pairs", "2", "--seconds", "1", "--out", str(out),
                        "--workdir", str(work)])
    err = capsys.readouterr().err.splitlines()
    assert calls == ["parent", "change", "change", "parent"]
    assert json.loads(out.read_text())["summary"].keys() == {"w.chain_iter_us"}
    assert [line for line in err if line.startswith("error:")] == errors
    assert code == (1 if errors else 0)


def test_bench_ab_snapshot_copies_the_files_git_does_not_ignore(tmp_path):
    # the change side runs from a copy of the working tree: tracked and
    # untracked files, but neither ignored ones nor a tracked file since deleted
    script = load_script("bench_ab")
    root, dest = tmp_path / "root", tmp_path / "copy"
    (root / "pkg").mkdir(parents=True)
    files = {".gitignore": "out/\n", "pkg/a.py": "a = 1\n", "gone.py": "", "out/x": "x"}
    for name, text in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", ".gitignore", "pkg/a.py", "gone.py"], cwd=root, check=True)
    (root / "gone.py").unlink()
    (root / "new.txt").write_text("new\n")
    script.snapshot(dest, root)
    copied = sorted(str(f.relative_to(dest)) for f in dest.rglob("*") if f.is_file())
    assert copied == [".gitignore", "new.txt", "pkg/a.py"]
    assert (dest / "pkg/a.py").read_text() == "a = 1\n"
