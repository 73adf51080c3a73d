#!/usr/bin/env python3
"""A/B benchmark of the working tree against a parent revision.

Each pair runs ``python3 perfbench/run.py --workload all --seconds S --seed
<20260807 + pair>`` twice: once in a ``git archive`` of the parent revision and
once in a copy of the working tree's files that git does not ignore. Both
trees are made fresh, side by side in one work directory, so that only their
files differ; the parent runs first in odd pairs and the change first in even
ones, so that a drift of the machine's speed falls on both sides alike. The
end-to-end metrics that ``BENCHMARK.json`` lists, of every run, go into one
JSON file, with per metric the two medians, the change over the parent, the
interquartile range of the parent's runs and the number of pairs in which the
change is lower:

    python3 scripts/bench_ab.py --parent HEAD --pairs 10 --seconds 5 --out BENCH_11.json

Run it from a checkout with nothing else running: the runs take one CPU each,
one after the other. The script exits 1, after writing the file, when any run
reports ``correct: false`` or a failed check, and names each such run on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED_BASE = 20260807
ORDER = "odd pairs (1, 3, ...) parent first, even pairs change first"


def archive(rev: str, dest: Path) -> str:
    """Unpack the tree of ``rev`` into ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def snapshot(dest: Path, root: Path = ROOT) -> None:
    """Copy the files of the working tree at ``root`` that git does not ignore,
    tracked or not, into ``dest``; a tracked file deleted from it is left out."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=root, check=True, capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def bench(tree: Path, seconds: float, seed: int) -> tuple[dict, dict]:
    """One ``--workload all`` run in ``tree``: its final JSON line and the
    environment of its first workload report."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited with code "
                         f"{proc.returncode} and no result:\n{proc.stderr}")
    env = next((json.loads(line[len("report "):])["environment"]
                for line in lines if line.startswith("report ")), {})
    return result, env


def summary(parent: list, change: list) -> dict:
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_over_parent": (c_med - p_med) / p_med,
        "parent_iqr": q3 - q1,
        "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision (default: HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--note", default=None, help="a note on the machine")
    parser.add_argument("--workdir", default=None,
                        help="where to unpack both trees (default: a temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be >= 2 and --seconds positive")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_ab-"))
    trees = {side: workdir / side for side in ("parent", "change")}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
    runs = {"parent": [], "change": []}
    env = {}
    try:
        commit = archive(args.parent, trees["parent"])
        snapshot(trees["change"])
        for pair in range(1, args.pairs + 1):
            sides = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in sides:
                result, env = bench(trees[side], args.seconds, SEED_BASE + pair)
                runs[side].append(result)
                print(f"pair {pair} {side}: correct {result['correct']}, "
                      f"failed {result['failed']}", file=sys.stderr)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    names = sorted(name for name in runs["change"][0]["metrics"]
                   if name.rsplit(".", 1)[-1] in end_to_end)
    metrics = {
        name: {"unit": runs["change"][0]["metrics"][name]["unit"],
               **{side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}}
        for name in names
    }
    report = {
        "what": (f"perfbench end-to-end metrics, parent commit vs this change: {args.pairs} "
                 f"alternating pairs of `--workload all --seconds {args.seconds:g}`, one per "
                 f"seed {SEED_BASE + 1}..{SEED_BASE + args.pairs}"),
        "parent_commit": commit,
        "environment": {
            **{key: env.get(key) for key in ("python", "numpy", "cpu", "nproc")},
            "blas_threads": 1,
            **({"note": args.note} if args.note else {}),
        },
        "command": f"python3 perfbench/run.py --workload all --seconds {args.seconds:g} "
                   f"--seed <{SEED_BASE} + pair>",
        "order": ORDER,
        **{key: {side: [r[key] for r in runs[side]] for side in runs}
           for key in ("correct", "failed", "attempted")},
        "metrics": metrics,
        "summary": {name: summary(m["parent"], m["change"]) for name, m in metrics.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for name, s in report["summary"].items():
        print(f"{name:32s} {s['parent_median']:12.6g} -> {s['change_median']:12.6g}  "
              f"{100 * s['change_over_parent']:+6.2f} %  lower in {s['change_lower_pairs']} pairs")
    # medians of incorrect or failing runs are no evidence: the file is kept for
    # inspection, and the exit code says it is not clean
    faults = [f"pair {pair} {side}: correct {r['correct']}, failed {r['failed']}"
              for side in runs for pair, r in enumerate(runs[side], 1)
              if r["correct"] is not True or r["failed"] > 0]
    for fault in faults:
        print(f"error: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
