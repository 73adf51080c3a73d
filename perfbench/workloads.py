"""The benchmark's workloads, their inputs and their correctness checks.

Each workload builds its inputs from the workload seed and runs in units: a
unit is a piece of work whose outputs can be checked on their own (library
``run()`` of one affine instance's three method chains, one ``run`` plus one
``sweep`` through the CLI, one ``compare`` through the CLI). The runner
repeats the workload's unit back to back, each one starting when the
previous one has finished, so every unit of a run does the same work.

The package is driven only through its public API: ``sslalm.run``,
``sslalm.make_recipe`` and ``sslalm.cli.main`` (plus ``parse_config`` and
``build_recipe`` to time the set-up on its own).
"""
from __future__ import annotations

import hashlib
import json
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import sslalm
from sslalm import MetricsRecord, cli

# acceptance criterion 1's instance generator seed, the default workload seed
CRITERION_1_SEED = 20260808
# acceptance criterion 1: final ||c|| <= 1e-2 and f - f* <= 1e-2 * (1 + |f*|)
FEAS_TOL = 1e-2
GAP_TOL = 1e-2
# acceptance criterion 2: the per-step contraction of ||lam|| toward the dual
# ball holds to within roundoff on every normalized-dual run
SLACK_TOL = 1e-12
KKT_PROBE = 1e-3

METHODS = ("prox_sgd", "prox_sgdm", "prox_adam")
AFFINE_ITERS = 50_000
AFFINE_RECORD_EVERY = 1000

# ROADMAP item 2 states its batched-replica target at B = 100 chains of one
# problem, as repetitions of ``cli run`` and as the values of a ``cli sweep``;
# both parts use that B. The iteration counts of the two configs copied
# (50 000 and 100 000) are cut so that one unit of both parts takes about
# five seconds and a 30-second run holds about six units.
REPLICAS = 100
REPLICA_ITERS = 300
REPLICA_RECORD_EVERY = 50
# rho on a geometric grid around the config's 0.1
SWEEP_RHO = ",".join(f"{v:.6g}" for v in np.geomspace(0.05, 0.4, REPLICAS))
SWEEP_ITERS = 200

NET_EPOCHS = 100


# one calibration loop takes this many CPU seconds at the reference speed
CAL_REF_S = 0.025
CAL_ITERS = 1000
CAL_WARMUP = 100
# CPU seconds of every calibration loop of the process, for the report
calibrations = []


def calibrate() -> float:
    """CPU seconds of a fixed loop of small numpy operations like the
    solver's (matrix-vector products, clipping, a norm, a uniform draw on
    length-8 vectors), which uses nothing of the package."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 8))
    b = rng.standard_normal(2)
    x, lam = np.zeros(8), np.zeros(2)
    # the first iterations are not timed, so that the caches the block
    # before left cold do not count
    for i in range(CAL_WARMUP + CAL_ITERS):
        if i == CAL_WARMUP:
            t0 = process_time()
        c = a @ x - b
        g = np.sign(x) + a.T @ (lam + c)
        x = np.clip(x - 0.01 * g + rng.uniform(-0.1, 0.1, 8), -1.0, 1.0)
        lam = lam + 0.5 * c / max(1.0, float(np.linalg.norm(c)))
    cal = process_time() - t0
    calibrations.append(cal)
    return cal


class Stopwatch:
    """Wall-clock and process CPU time of a block, and ``scale``, the factor
    that turns its CPU time into CPU time at the reference speed.

    The CPU time leaves out the time the process was not running (on a
    shared virtual machine, the time the hypervisor gave the CPU to another
    guest). It does not leave out the machine running the same code slower
    at times: on the 2-vCPU machine the benchmark was written on, the same
    work took 1.8 times as long in phases that last seconds, and runs
    differed by how much of their time fell in slow phases. So the block is
    bracketed by two calibration loops, and its CPU time is scaled by the
    reference time of the loop over their mean: the same work then reads the
    same in fast and slow phases, and a change to the package, which the
    loop does not use, shows in full.
    """

    def __enter__(self):
        self._cal0 = calibrate()
        self._wall0 = perf_counter()
        self._cpu0 = process_time()
        return self

    def __exit__(self, *exc):
        self.wall_s = perf_counter() - self._wall0
        self.cpu_s = process_time() - self._cpu0
        self.scale = 2.0 * CAL_REF_S / (self._cal0 + calibrate())


@dataclass
class Chain:
    """What the benchmark keeps of one solver run. The records are dropped
    once checked and hashed, so memory does not grow with the units run."""

    label: str
    method: str
    iters: int
    wall_s: float  # RunResult.wall_time_s
    cpu_s: float  # process CPU time of the run() call
    scale: float  # of the Stopwatch the run() call ran in
    aborted: bool
    final: MetricsRecord
    failures: list
    iters_to_tol: int | None = None
    gap: float | None = None  # (f - f*) / (1 + |f*|) at the final iterate
    accuracy: float | None = None

    @property
    def ref_s(self) -> float:
        """CPU time at the reference speed."""
        return self.cpu_s * self.scale

    @property
    def iter_us(self) -> float:
        """CPU time per iteration at the reference speed."""
        return self.ref_s / max(self.iters, 1) * 1e6


def checked_chain(label, config, result, sw, cpu_s, lines, oracle_f=None, accuracy=None) -> Chain:
    """Check one run and its records as written (JSON lines); ``cpu_s`` is
    the run's CPU time, measured inside the Stopwatch ``sw``."""
    records = [MetricsRecord.from_json_line(line) for line in lines]
    failures = []
    if result.aborted:
        failures.append(f"{label}: aborted ({result.abort_reason})")
    if config.dual == "regu" and not result.max_contraction_slack <= SLACK_TOL:
        failures.append(f"{label}: dual contraction slack above roundoff")
    for rec in records:
        quad = 0.5 * config.rho * rec.feas * rec.feas if config.rho != 0.0 else 0.0
        if rec.g_val != rec.f_val + config.beta * rec.feas + quad:
            failures.append(f"{label}: penalty identity broken at k={rec.k}")
            break
    iters_to_tol = gap = None
    if oracle_f is not None:
        gap_tol = GAP_TOL * (1.0 + abs(oracle_f))
        met = [r.k for r in records if r.feas <= FEAS_TOL and r.f_val <= oracle_f + gap_tol]
        iters_to_tol = met[0] if met else None
        final = result.final
        gap = (final.f_val - oracle_f) / (1.0 + abs(oracle_f))
        if final.feas > FEAS_TOL or final.f_val > oracle_f + gap_tol:
            failures.append(f"{label}: final iterate misses the brute-force oracle tolerance")
    return Chain(
        label=label,
        method=config.method.kind,
        iters=result.state.k,
        wall_s=result.wall_time_s,
        cpu_s=cpu_s,
        scale=sw.scale,
        aborted=result.aborted,
        final=result.final,
        failures=failures,
        iters_to_tol=iters_to_tol,
        gap=gap,
        accuracy=accuracy,
    )


@dataclass
class Unit:
    wall_s: float
    cpu_s: float
    ref_s: float  # CPU time at the reference speed
    chains: list
    digest: str
    failures: list = field(default_factory=list)

    @property
    def solve_cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.chains)

    @property
    def solve_ref_s(self) -> float:
        return sum(c.ref_s for c in self.chains)

    @property
    def solve_wall_s(self) -> float:
        return sum(c.wall_s for c in self.chains)

    @property
    def iters(self) -> int:
        return sum(c.iters for c in self.chains)


def _digest(runs, files=()) -> str:
    """Hash of every deterministic output of a unit: each run's records as
    written, final iterate and abort reason, and the files written."""
    h = hashlib.sha256()
    for result, lines in runs:
        h.update("\n".join(lines).encode())
        h.update(result.state.x.tobytes())
        h.update(str(result.abort_reason).encode())
    for name, text in files:
        h.update(name.encode())
        h.update(text.encode())
    return h.hexdigest()


def _deterministic_files(out_dir: Path):
    """Written outputs, without the wall-time column of ``summary.csv``."""
    files = []
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name == "summary.csv":
            rows = [line.split(",") for line in text.splitlines()]
            drop = rows[0].index("wall_time_s")
            text = "\n".join(",".join(c for j, c in enumerate(r) if j != drop) for r in rows)
        files.append((path.name, text))
    return files


@contextmanager
def _captured_runs():
    """Collect the (config, result, CPU seconds) of every ``run`` the CLI makes."""
    original = cli.run
    runs = []

    def capturing(prob, config, *args, **kwargs):
        cpu0 = process_time()
        result = original(prob, config, *args, **kwargs)
        runs.append((config, result, process_time() - cpu0))
        return result

    cli.run = capturing
    try:
        yield runs
    finally:
        cli.run = original


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _record_lines(result) -> list:
    return [rec.to_json_line() for rec in result.records]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Parse and build the inputs, up to the first iteration."""
        raise NotImplementedError

    def run_unit(self, inputs) -> Unit:
        raise NotImplementedError

    def quality(self, units) -> dict:
        """Workload-specific results as ``name -> (value, unit)``."""
        raise NotImplementedError


def affine_instances():
    """Acceptance criterion 1's ten ``(n, p, instance seed)`` triples."""
    rng = np.random.default_rng(CRITERION_1_SEED)
    out = []
    for i in range(10):
        n = int(rng.integers(4, 11))
        p = int(rng.integers(1, min(4, n)))
        out.append((n, p, i))
    return out


def affine_solver_config(kind: str, seed: int) -> sslalm.SolverConfig:
    if kind == "prox_sgd":
        method = sslalm.MethodConfig(kind=kind)
    elif kind == "prox_sgdm":
        method = sslalm.MethodConfig(kind=kind, tau=1.0, alpha=0.05)
    else:
        method = sslalm.MethodConfig(kind=kind, tau1=1.0, tau2=0.1, alpha=0.05, eps=1e-8)
    return sslalm.SolverConfig(
        method=method,
        rho=1.0,
        beta=5.0,
        theta=sslalm.StepSchedule("constant", 0.5),
        eta=sslalm.StepSchedule("inv_sqrt_epoch", 0.5, 1),
        noise=sslalm.NoiseModel("uniform_box", 0.1, 0),
        max_iters=AFFINE_ITERS,
        seed=seed,
    )


def _median(values):
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else float("nan")


def _abort_ratio(units) -> float:
    chains = [c for u in units for c in u.chains]
    return sum(c.aborted for c in chains) / max(len(chains), 1)


class ChainAffine(Workload):
    """Library ``run()``: a unit is the three method chains on one of
    criterion 1's instances.

    The chains are exactly criterion 1's (instance seeds 0-9, solver seeds
    100-109), the ones its tolerance is certified on at this iteration
    budget; other instances or noise seeds can need more than 50 000
    iterations to meet it. The seed picks the instance, so runs with ten
    consecutive seeds cover all ten, and every unit holds all three methods,
    so that no unit's cost depends on which method it happened to run.
    """

    name = "chain_affine"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.instance = affine_instances()[(seed - CRITERION_1_SEED) % 10]

    def setup(self):
        # all ten instances with their brute-force oracles, so that set-up is
        # the same work whatever the seed
        recipes = [sslalm.make_recipe("affine_l1", n=n, p=p, seed=i) for n, p, i in affine_instances()]
        i = self.instance[2]
        configs = [affine_solver_config(kind, 100 + i) for kind in METHODS]
        return recipes[i], configs

    def run_unit(self, inputs):
        rec, configs = inputs
        n, p, i = self.instance
        chains, written, sws = [], [], []
        # one Stopwatch per chain, so that the calibrations are seconds apart
        for cfg in configs:
            with Stopwatch() as sw:
                res = sslalm.run(rec.instance, cfg, x0=rec.start,
                                 record_every=AFFINE_RECORD_EVERY, kkt_probe=KKT_PROBE)
            lines = _record_lines(res)
            chains.append(checked_chain(f"{cfg.method.kind}/n{n}p{p}s{i}", cfg, res, sw, sw.cpu_s,
                                        lines, oracle_f=rec.oracle_solution.f))
            written.append((res, lines))
            sws.append(sw)
        return Unit(sum(s.wall_s for s in sws), sum(s.cpu_s for s in sws),
                    sum(s.cpu_s * s.scale for s in sws), chains, _digest(written))

    def quality(self, units):
        chains = [c for u in units for c in u.chains]
        out = {}
        for kind in METHODS:
            out[f"chain_iter_us.{kind}"] = (
                _median(c.iter_us for c in chains if c.method == kind), "us")
        to_tol = [
            c.iters_to_tol * c.iter_us * 1e-6 if c.iters_to_tol is not None else None
            for c in chains
        ]
        out["time_to_tol_s"] = (_median(to_tol), "s")
        out["final_gap"] = (max(c.gap for c in chains), "1")
        out["final_feas"] = (max(c.final.feas for c in chains), "1")
        out["abort_ratio"] = (_abort_ratio(units), "1")
        return out


class ReplicasCli(Workload):
    """In-process ``sslalm.cli.main``: ``run`` with repetitions, then a
    ``sweep`` over ``solver.rho`` with sampled oracles.

    The problems keep their configs' seed 0, so that set-up (which solves
    the brute-force oracle) is the same work whatever the seed; the seed is
    the CLI ``--seed``, from which every chain draws its noise.
    """

    name = "replicas_cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # the configs/affine_l1_sgd.json shape
        run_cfg = {
            "problem": {"kind": "affine_l1", "n": 8, "p": 2, "seed": 0},
            "solver": {
                "method": {"kind": "prox_sgd"},
                "rho": 1.0,
                "beta": 5.0,
                "theta": {"kind": "constant", "c": 0.5},
                "eta": {"kind": "inv_sqrt_epoch", "c": 0.5, "epoch_len": 1},
                "noise": {"kind": "uniform_box", "bound": 0.1},
                "max_iters": REPLICA_ITERS,
                "seed": 0,
            },
            "record_every": REPLICA_RECORD_EVERY,
            "repetitions": REPLICAS,
        }
        # the configs/tracker_correction.json shape
        sweep_cfg = {
            "problem": {"kind": "stochastic_affine", "n": 5, "p": 2, "noise_scale": 0.5, "seed": 0},
            "solver": {
                "method": {"kind": "prox_sgd"},
                "rho": 0.1,
                "beta": 1.0,
                "theta": {"kind": "constant", "c": 0.5},
                "eta": {"kind": "inv_sqrt_epoch", "c": 0.1, "epoch_len": 100},
                "tracker": {"kind": "correction", "tau_tilde": 1.0},
                "max_iters": SWEEP_ITERS,
                "seed": 0,
            },
            "record_every": 100,
            "kkt_probe": None,
        }
        self.run_path = workdir / "run.json"
        self.sweep_path = workdir / "sweep.json"
        self.run_path.write_text(json.dumps(run_cfg, indent=1))
        self.sweep_path.write_text(json.dumps(sweep_cfg, indent=1))
        self.n_sweep = len(SWEEP_RHO.split(","))

    def setup(self):
        for path in (self.run_path, self.sweep_path):
            cli.build_recipe(cli.parse_config(path))

    def run_unit(self, inputs):
        out_run = _fresh_dir(self.workdir / "out_run")
        out_sweep = _fresh_dir(self.workdir / "out_sweep")
        seed = str(self.seed)
        with _captured_runs() as runs:
            with Stopwatch() as sw_run:
                code_run = cli.main(["run", "--config", str(self.run_path), "--out", str(out_run),
                                     "--seed", seed, "--quiet"])
            with Stopwatch() as sw_sweep:
                code_sweep = cli.main(["sweep", "--config", str(self.sweep_path),
                                       "--param", "solver.rho", "--values", SWEEP_RHO,
                                       "--out", str(out_sweep), "--seed", seed, "--quiet"])
        failures = []
        if code_run != 0 or code_sweep != 0:
            failures.append(f"cli exit codes run={code_run} sweep={code_sweep}")
        if len(runs) != REPLICAS + self.n_sweep:
            failures.append(f"expected {REPLICAS + self.n_sweep} runs, the cli made {len(runs)}")
        chains, written = [], []
        for rep, (cfg, res, cpu) in enumerate(runs[:REPLICAS]):
            path = out_run / f"metrics_rep{rep:03d}.jsonl"
            lines = path.read_text().splitlines() if path.exists() else []
            if lines != _record_lines(res):
                failures.append(f"{path.name} differs from the run's records")
            chains.append(checked_chain(f"run/rep{rep}", cfg, res, sw_run, cpu, lines))
            written.append((res, lines))
        for cfg, res, cpu in runs[REPLICAS:]:
            lines = _record_lines(res)
            chains.append(checked_chain(f"sweep/rho={cfg.rho!r}", cfg, res, sw_sweep, cpu, lines))
            written.append((res, lines))
        files = _deterministic_files(out_run) + _deterministic_files(out_sweep)
        summary = dict(files).get("summary.csv", "")
        sweep_csv = dict(files).get("sweep.csv", "")
        if len(summary.splitlines()) != 1 + REPLICAS or len(sweep_csv.splitlines()) != 1 + self.n_sweep:
            failures.append("summary.csv or sweep.csv has the wrong number of rows")
        sws = (sw_run, sw_sweep)
        return Unit(sum(s.wall_s for s in sws), sum(s.cpu_s for s in sws),
                    sum(s.cpu_s * s.scale for s in sws), chains, _digest(written, files), failures)

    def quality(self, units):
        run_chains = [c for u in units for c in u.chains if c.label.startswith("run/")]
        sweep_chains = [c for u in units for c in u.chains if c.label.startswith("sweep/")]
        return {
            "chain_iter_us.run": (_median(c.iter_us for c in run_chains), "us"),
            "chain_iter_us.sweep": (_median(c.iter_us for c in sweep_chains), "us"),
            "final_feas": (max(c.final.feas for c in run_chains), "1"),
            "final_tracker_err": (max(c.final.tracker_err for c in sweep_chains), "1"),
            "abort_ratio": (_abort_ratio(units), "1"),
        }


def net_protocol_config(method_kind: str, dual: str, dataset_seed: int) -> dict:
    """One of ``scripts/net_training_protocol.py``'s four configs, recording
    every iteration with the KKT probe on."""
    method = (
        {"kind": "prox_sgdm", "tau": 1.0, "alpha": 0.2}
        if method_kind == "sgdm"
        else {"kind": "prox_adam", "tau1": 1.0, "tau2": 0.1, "alpha": 0.1, "eps": 1e-8}
    )
    solver = {
        "method": method,
        "rho": 0.01,
        "beta": 1.0,
        "theta": {"kind": "constant", "c": 0.5},
        "eta": {"kind": "inv_sqrt_epoch", "c": 0.1, "epoch_len": 2},
        "max_iters": 2 * NET_EPOCHS,
        "seed": 0,
    }
    if dual == "ialm":
        solver["dual"] = {
            "kind": "ialm",
            "theta_tilde": 1.0,
            "beta_tilde": 1.0,
            "sigma": 2.0,
            "inner_steps": 500,
        }
    return {
        "problem": {"kind": "slack_l1_net", "dataset_seed": dataset_seed},
        "solver": solver,
        "record_every": 1,
        "kkt_probe": KKT_PROBE,
    }


NET_LABELS = ("sgdm_regu", "sgdm_ialm", "adam_regu", "adam_ialm")


class NetRecord(Workload):
    """In-process ``sslalm.cli.main compare`` of the network protocol's four
    configs, recording every iteration."""

    name = "net_record"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.paths = []
        for label in NET_LABELS:
            method_kind, dual = label.split("_")
            path = workdir / f"{label}.json"
            path.write_text(json.dumps(net_protocol_config(method_kind, dual, seed), indent=1))
            self.paths.append(path)
        # test accuracy of the final iterates, computed outside the timed unit
        self.accuracy = sslalm.make_recipe("slack_l1_net", dataset_seed=seed).metadata["accuracy"]

    def setup(self):
        cfgs = [cli.parse_config(path) for path in self.paths]
        cli.build_recipe(cfgs[0])

    def run_unit(self, inputs):
        out = _fresh_dir(self.workdir / "out_compare")
        argv = ["compare"]
        for path in self.paths:
            argv += ["--config", str(path)]
        argv += ["--out", str(out), "--seed", str(self.seed), "--quiet"]
        with _captured_runs() as runs, Stopwatch() as sw:
            code = cli.main(argv)
        failures = []
        if code != 0:
            failures.append(f"cli exit code {code}")
        if len(runs) != len(NET_LABELS):
            failures.append(f"expected {len(NET_LABELS)} runs, the cli made {len(runs)}")
        written = [(res, _record_lines(res)) for _, res, _ in runs]
        chains = [
            checked_chain(label, cfg, res, sw, cpu, lines, accuracy=self.accuracy(res.state.x))
            for label, (cfg, res, cpu), (_, lines) in zip(NET_LABELS, runs, written)
        ]
        files = _deterministic_files(out)
        table = dict(files).get("compare.csv", "").splitlines()
        if len(table) != 2 + 2 * NET_EPOCHS or table[0].count("_loss") != len(NET_LABELS):
            failures.append("compare.csv does not hold one row per iteration for each config")
        return Unit(sw.wall_s, sw.cpu_s, sw.cpu_s * sw.scale, chains, _digest(written, files),
                    failures)

    def quality(self, units):
        chains = [c for u in units for c in u.chains]
        out = {
            f"chain_iter_us.{label}": (_median(c.iter_us for c in chains if c.label == label), "us")
            for label in NET_LABELS
        }
        out["final_accuracy"] = (min(c.accuracy for c in chains), "1")
        out["final_feas"] = (max(c.final.feas for c in chains), "1")
        out["abort_ratio"] = (_abort_ratio(units), "1")
        return out


WORKLOADS = {w.name: w for w in (ChainAffine, ReplicasCli, NetRecord)}
