#!/usr/bin/env python3
"""Solver benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload chain_affine --seed 20260808 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from its
``src/`` directory. One process runs one workload on one thread with BLAS
pinned to one thread, repeating the workload's units back to back until
``--seconds`` have passed. Metrics are printed one per line with their unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in turn, each in its own process.

See ``perfbench/README.md`` for the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("chain_affine", "replicas_cli", "net_record")
# after each unit, set-ups are repeated until they have taken this share of
# the run's CPU time, so that their samples spread over the whole run
SETUP_SHARE = 0.05
CHILD_TIMEOUT_S = 900


def summarize(samples) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s) if s else float("nan")}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(s) * (100.0 - q) / 100.0 >= 10:
            out[f"p{q:g}"] = s[math.ceil(q / 100.0 * len(s)) - 1]
            break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(wl, inputs, seconds: float, start: float, units=None, after_unit=None):
    """Run units back to back until ``seconds`` have passed since ``start``;
    at least one unit always runs. Appends to ``units``; ``after_unit`` is
    called after each unit."""
    units = [] if units is None else units
    while not units or perf_counter() - start < seconds:
        units.append(wl.run_unit(inputs))
        if after_unit is not None:
            after_unit()
    return units


def check_units(units):
    """Every chain's checks, each unit's own checks, and equal outputs for
    every unit, since each repeats the same work. Returns the failures and
    the number of failed operations (a chain, or a unit-level check)."""
    failures, failed = [], 0
    for i, u in enumerate(units):
        for chain in u.chains:
            found = chain.failures
            failures += found
            failed += bool(found)
        found = list(u.failures)
        if u.digest != units[0].digest:
            found.append(f"unit {i}: outputs differ from unit 0's, on the same inputs")
        failures += found
        failed += len(found)
    return failures, failed


def end_to_end(setup_ref, units) -> dict:
    """The metrics of ``BENCHMARK.json``: process CPU times at the reference
    speed of the calibration loop (see ``workloads.Stopwatch``)."""
    return {
        "setup_s": (summarize(setup_ref), "s"),
        "unit_s": (summarize([u.ref_s for u in units]), "s"),
        "chain_iter_us": (summarize([u.solve_ref_s / u.iters * 1e6 for u in units]), "us"),
        "peak_rss_mb": ({"n": 1, "median": peak_rss_mb()}, "MB"),
    }


def as_measured(setup_cpu, units) -> dict:
    """The unscaled counterparts, reported but not bounded: process CPU time
    and wall-clock time, ``cpu_share`` (CPU over wall time; below 1 when the
    process waited for a CPU) and the calibration loop's CPU time, which
    shows the machine's speed."""
    from workloads import calibrations

    return {
        "setup_cpu_s": (statistics.median(setup_cpu), "s"),
        "unit_cpu_s": (statistics.median(u.cpu_s for u in units), "s"),
        "chain_iter_cpu_us": (
            statistics.median(u.solve_cpu_s / u.iters * 1e6 for u in units), "us"),
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "chain_iter_wall_us": (
            statistics.median(u.solve_wall_s / u.iters * 1e6 for u in units), "us"),
        "cpu_share": (sum(u.cpu_s for u in units) / sum(u.wall_s for u in units), "1"),
        "calibration_ms": (statistics.median(calibrations) * 1e3, "ms"),
        "calibration_max_over_min": (max(calibrations) / min(calibrations), "1"),
    }


def per_layer(tracer, counts: dict, units, overhead_s: float) -> dict:
    """Per-layer metrics from the traced units.

    ``.calls`` and the other counts come from the first traced unit (the
    same work on every run with one seed, so they repeat exactly); the
    ``.us`` times are self times per
    chain iteration over every traced unit, except the set-up ones, which
    are inclusive times per call.
    """
    from tracing import SpanStats

    iters = sum(u.iters for u in units)

    def stat(*names, source=None):
        source = tracer.stats if source is None else source
        return sum((source.get(name, SpanStats()) for name in names), SpanStats())

    def per_iter_us(*names):
        return stat(*names).self_s / max(iters, 1) * 1e6

    def per_call_us(name):
        s = stat(name)
        return s.outer_s / s.outer_calls * 1e6 if s.outer_calls else 0.0

    m = {}
    layers = {
        "core.as_vector": ("core.as_vector",),
        "core.eval_constraints": ("core.eval_constraints",),
        "core.noise_draw": ("core.noise_draw",),
        "problems.objective": ("problems.objective",),
        "problems.subgradient": ("problems.subgradient",),
        "problems.constraint": ("problems.constraint",),
        "problems.jacobian": ("problems.jacobian",),
        "problems.sample_draw": ("problems.sample_draw",),
        "geometry.project": ("geometry.project",),
        "geometry.prox_weighted": ("geometry.prox_weighted",),
        "methods.step": ("methods.step",),
        "lagrangian.dual_step": ("lagrangian.dual_step", "lagrangian.dual_step_ialm"),
        "lagrangian.tracker": ("lagrangian.tracker",),
    }
    for metric, names in layers.items():
        m[f"{metric}.calls"] = (stat(*names, source=counts).outer_calls, "count")
        m[f"{metric}.us"] = (per_iter_us(*names), "us/iter")

    first_chains = units[0].chains
    first_iters = units[0].iters
    m["problems.constraint.calls_per_iter"] = (
        stat("problems.constraint", source=counts).outer_calls / max(first_iters, 1), "1/iter")
    m["problems.oracle_build.us"] = (per_call_us("problems.oracle_build"), "us/call")
    m["lagrangian.self_us"] = (per_iter_us("lagrangian.run"), "us/iter")
    m["lagrangian.iters"] = (first_iters, "count")
    m["lagrangian.chains"] = (len(first_chains), "count")
    m["lagrangian.aborts"] = (sum(c.aborted for c in first_chains), "count")
    m["lagrangian.dual_updates"] = (stat("lagrangian.dual_step_ialm", source=counts).calls, "count")
    to_tol = [c.iters_to_tol for c in first_chains if c.iters_to_tol is not None]
    m["lagrangian.iters_to_tol"] = (statistics.median(to_tol) if to_tol else 0, "iter")

    records = stat("diagnostics.record")
    lyap = stat("diagnostics.lyapunov")
    run = stat("lagrangian.run")
    record_s = records.outer_s + lyap.outer_s
    n_rec = max(records.calls, 1)
    m["diagnostics.records"] = (stat("diagnostics.record", source=counts).calls, "count")
    m["diagnostics.record.us"] = (record_s / n_rec * 1e6, "us/record")
    m["diagnostics.kkt.us"] = (stat("diagnostics.kkt").outer_s / n_rec * 1e6, "us/record")
    m["diagnostics.lyapunov.us"] = (lyap.outer_s / n_rec * 1e6, "us/record")
    m["diagnostics.record_share"] = (record_s / run.outer_s if run.outer_s else 0.0, "1")

    cmd = stat("cli.cmd")
    m["cli.parse.us"] = (per_call_us("cli.parse"), "us/call")
    m["cli.build_recipe.us"] = (per_call_us("cli.build_recipe"), "us/call")
    m["cli.write.us"] = (cmd.self_s / cmd.calls * 1e6 if cmd.calls else 0.0, "us/call")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def measure(wl, seconds):
    """Untraced run: the end-to-end metrics. Set-ups are timed at the start
    and between units, where they take ``SETUP_SHARE`` of the CPU time."""
    from workloads import Stopwatch

    start, cpu0 = perf_counter(), process_time()
    setup_cpu, setup_ref = [], []

    def set_up():
        """Set-ups, at least one, until they have had their share of the CPU
        time so far; one Stopwatch around them all, since a calibration
        takes longer than many a set-up."""
        if setup_cpu and sum(setup_cpu) >= SETUP_SHARE * (process_time() - cpu0):
            return None
        burst = []
        with Stopwatch() as sw:
            while not burst or sum(setup_cpu) + sum(burst) < SETUP_SHARE * (process_time() - cpu0):
                t0 = process_time()
                inputs = wl.setup()
                burst.append(process_time() - t0)
        setup_cpu.extend(burst)
        setup_ref.extend(s * sw.scale for s in burst)
        return inputs

    units = run_units(wl, set_up(), seconds, start, after_unit=set_up)
    return units, end_to_end(setup_ref, units), as_measured(setup_cpu, units), []


def measure_traced(wl, seconds):
    """Traced run: the first unit untraced as the reference, then a traced
    set-up, the traced first unit (for the counts) and more traced units."""
    import tracing

    start = perf_counter()
    reference = wl.run_unit(wl.setup())
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as missing:
        traced_inputs = wl.setup()
        before = tracer.snapshot()
        units = [wl.run_unit(traced_inputs)]
        counts = {k: s - before.get(k, tracing.SpanStats()) for k, s in tracer.stats.items()}
        run_units(wl, traced_inputs, seconds, start, units=units)
    overhead = units[0].ref_s - reference.ref_s
    metrics = {
        k: ({"n": 1, "median": v}, unit)
        for k, (v, unit) in per_layer(tracer, counts, units, overhead).items()
    }
    notes = [f"traced outputs identical to untraced: {units[0].digest == reference.digest}"]
    if missing:
        notes.append(f"entry points not found, not traced: {', '.join(missing)}")
    # the reference and the first traced unit are the same unit, so the
    # checks also require their outputs to be identical
    return [reference] + units, metrics, {}, notes


def run_workload(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sslalm" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import CRITERION_1_SEED, WORKLOADS

    if args.seed is None:
        args.seed = CRITERION_1_SEED
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            units, metrics, extra, notes = measure_traced(wl, args.seconds)
        else:
            units, metrics, extra, notes = measure(wl, args.seconds)
        results = {**extra, **wl.quality(units)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass
    failures, failed = check_units(units)
    attempted = sum(len(u.chains) for u in units)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  units {len(units)}  chains {attempted}")
    for name, (summary, unit) in metrics.items():
        tail = "".join(f"  {k}={v:.6g}" for k, v in summary.items() if k not in ("n", "median"))
        print(f"  {name:<40} {summary['median']:.6g} {unit}  (n={summary['n']}{tail})")
    for name, (value, unit) in results.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for failure in failures:
        print(f"  FAIL {failure}")
    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "metrics": {k: dict(s, unit=u) for k, (s, u) in metrics.items()},
        "chain_iter_us_per_chain": summarize([c.iter_us for u in units for c in u.chains]),
        "results": {k: {"value": v, "unit": u} for k, (v, u) in results.items()},
        "failures": failures,
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": u} for k, (s, u) in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited with code {proc.returncode} and no result",
                  file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: acceptance criterion 1's 20260808)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
