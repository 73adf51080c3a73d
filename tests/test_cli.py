import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sslalm
from sslalm import cli
from sslalm.cli import (
    ConfigError,
    build_recipe,
    cmd_compare,
    cmd_run,
    cmd_sweep,
    config_from_dict,
    main,
    parse_config,
    serialize_config,
)
from sslalm.core import ProblemInstance
from sslalm.diagnostics import MetricsRecord
from sslalm.geometry import WholeSpace
from sslalm.problems import RECIPES, ProblemRecipe, make_recipe


def write_config(path: Path, table: dict) -> Path:
    path.write_text(json.dumps(table, indent=2))
    return path


def minimal_config(tmp_path, **overrides) -> Path:
    table = {
        "problem": {"kind": "affine_l1", "n": 3, "p": 1, "seed": 0},
        "solver": {"method": {"kind": "prox_sgd"}, "max_iters": 50},
        "output_path": str(tmp_path / "out"),
    }
    table.update(overrides)
    return write_config(tmp_path / "config.json", table)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        assert cfg.solver.tracker == "exact"
        assert cfg.record_every == 10
        assert cfg.repetitions == 1
        assert cfg.solver.dual == "regu"
        assert cfg.solver.noise.kind == "none"

    def test_theta_at_beta_rejected_with_named_condition(self, tmp_path):
        path = minimal_config(
            tmp_path,
            solver={
                "method": {"kind": "prox_sgd"},
                "beta": 1.0,
                "theta": {"kind": "constant", "c": 1.0},
            },
        )
        with pytest.raises(ConfigError, match="theta_max < beta"):
            parse_config(path)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = minimal_config(tmp_path, extra_key=1)
        with pytest.raises(ConfigError, match="config.*extra_key"):
            parse_config(path)
        path = write_config(
            tmp_path / "c2.json",
            {
                "problem": {"kind": "affine_l1", "n": 3, "p": 1},
                "solver": {"method": {"kind": "prox_sgd", "momentum": 0.9}},
            },
        )
        with pytest.raises(ConfigError, match="solver.method.*momentum"):
            parse_config(path)

    def test_unknown_problem_parameter_rejected(self, tmp_path):
        path = write_config(
            tmp_path / "c3.json",
            {"problem": {"kind": "affine_l1", "n": 3, "p": 1, "width": 7}},
        )
        with pytest.raises(ConfigError, match="width"):
            parse_config(path)

    @pytest.mark.parametrize(
        "problem, message",
        [
            ({"kind": "affine_l1", "seed": None}, "problem.seed must be an integer, got None"),
            ({"kind": "affine_l1", "n": True}, "problem.n must be an integer, got True"),
            ({"kind": "slack_l1_net", "batch_size": 2.5}, "problem.batch_size must be an integer"),
            ({"kind": "slack_l1_net", "n_train": float("inf")}, "problem.n_train must be an integer"),
            ({"kind": "exactness_1d", "slope": "2"}, "problem.slope must be a number, got '2'"),
            ({"kind": "stochastic_affine", "noise_scale": float("nan")},
             "problem.noise_scale must be finite, got nan"),
        ],
    )
    def test_problem_parameters_follow_the_type_rule(self, problem, message):
        # checked against the recipe maker's annotations when the file is parsed
        with pytest.raises(ConfigError, match=f"^config: {re.escape(message)}"):
            config_from_dict({"problem": problem})

    def test_integral_float_problem_parameter_stored_as_int(self):
        cfg = config_from_dict({"problem": {"kind": "affine_l1", "n": 6.0}})
        assert cfg.problem["n"] == 6 and type(cfg.problem["n"]) is int
        assert cli.build_recipe(cfg).instance.dim_primal == 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_json_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config(p)

    def test_roundtrip_identity(self, tmp_path):
        path = minimal_config(
            tmp_path,
            solver={
                "method": {"kind": "prox_adam", "alpha": 0.2},
                "rho": 1.0,
                "beta": 5.0,
                "eta": {"kind": "inv_sqrt_epoch", "c": 0.5},
                "noise": {"kind": "uniform_box", "bound": 0.1},
                "max_iters": 100,
            },
            repetitions=2,
        )
        cfg = parse_config(path)
        path2 = write_config(tmp_path / "rt.json", serialize_config(cfg))
        cfg2 = parse_config(path2)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == serialize_config(cfg)


class TestCmdRun:
    def test_writes_metrics_per_repetition_and_summary(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path, repetitions=3))
        code = cmd_run(cfg, quiet=True)
        assert code == 0
        out = tmp_path / "out"
        files = sorted(f.name for f in out.iterdir())
        assert files == [
            "metrics_rep000.jsonl",
            "metrics_rep001.jsonl",
            "metrics_rep002.jsonl",
            "summary.csv",
        ]
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0].startswith("rep,seed,final_f,final_feas,final_kkt_residual")
        assert len(summary) == 4

    def test_rerun_byte_identical_metrics(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path, repetitions=2))
        cmd_run(cfg, out=str(tmp_path / "a"), quiet=True)
        cmd_run(cfg, out=str(tmp_path / "b"), quiet=True)
        for name in ["metrics_rep000.jsonl", "metrics_rep001.jsonl"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # summaries agree except for the wall-time column
        strip = lambda text: [
            ",".join(col for i, col in enumerate(line.split(",")) if i != 7)
            for line in text.splitlines()
        ]
        assert strip((tmp_path / "a" / "summary.csv").read_text()) == strip(
            (tmp_path / "b" / "summary.csv").read_text()
        )

    def test_written_records_satisfy_penalty_identity(self, tmp_path):
        path = minimal_config(
            tmp_path,
            solver={
                "method": {"kind": "prox_sgd"},
                "rho": 0.7,
                "beta": 2.0,
                "theta": {"kind": "constant", "c": 0.5},
                "max_iters": 80,
            },
        )
        cfg = parse_config(path)
        cmd_run(cfg, quiet=True)
        lines = (tmp_path / "out" / "metrics_rep000.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 8
        for line in lines:
            r = MetricsRecord.from_json_line(line)
            quad = 0.5 * 0.7 * r.feas * r.feas
            assert r.g_val == r.f_val + 2.0 * r.feas + quad

    def test_affine_run_feasibility_reaches_tolerance(self, tmp_path):
        path = minimal_config(
            tmp_path,
            solver={
                "method": {"kind": "prox_sgd"},
                "rho": 1.0,
                "beta": 5.0,
                "theta": {"kind": "constant", "c": 0.5},
                "eta": {"kind": "inv_sqrt_epoch", "c": 0.5},
                "noise": {"kind": "uniform_box", "bound": 0.1},
                "max_iters": 20000,
            },
            record_every=2000,
        )
        cfg = parse_config(path)
        assert cmd_run(cfg, quiet=True) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        final_feas = float(summary[1].split(",")[3])
        assert final_feas <= 1e-2

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = parse_config(
            minimal_config(
                tmp_path,
                solver={
                    "method": {"kind": "prox_sgd"},
                    "noise": {"kind": "uniform_box", "bound": 0.3},
                    "max_iters": 40,
                },
            )
        )
        cmd_run(cfg, out=str(tmp_path / "a"), quiet=True)
        cmd_run(cfg, out=str(tmp_path / "b"), seed=999, quiet=True)
        a = (tmp_path / "a" / "metrics_rep000.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics_rep000.jsonl").read_bytes()
        assert a != b

    def test_aborted_run_returns_one_and_keeps_partial_metrics(self, tmp_path, monkeypatch):
        def make_diverging():
            prob = ProblemInstance(
                dim_primal=1,
                dim_constraint=1,
                objective=lambda x: 0.0,
                objective_subgradient=lambda x: -1e6 * x,
                constraint=lambda x: x.copy(),
                constraint_jacobian=lambda x: np.array([[1.0]]),
                feasible_set=WholeSpace(1),
            )
            return ProblemRecipe(
                kind="diverging", params={}, instance=prob, start=np.ones(1)
            )

        monkeypatch.setitem(RECIPES, "diverging", make_diverging)
        path = write_config(
            tmp_path / "d.json",
            {
                "problem": {"kind": "diverging"},
                "solver": {"method": {"kind": "prox_sgd"}, "max_iters": 400},
                "output_path": str(tmp_path / "out"),
                "kkt_probe": None,
            },
        )
        code = main(["run", "--config", str(path), "--quiet"])
        assert code == 1
        assert (tmp_path / "out" / "metrics_rep000.jsonl").exists()


class TestCmdCompare:
    def _two_configs(self, tmp_path):
        base = {
            "problem": {"kind": "affine_l1", "n": 3, "p": 1, "seed": 0},
            "solver": {
                "method": {"kind": "prox_sgdm", "alpha": 0.1},
                "rho": 1.0,
                "beta": 2.0,
                "theta": {"kind": "constant", "c": 0.5},
                "max_iters": 60,
            },
            "output_path": str(tmp_path / "cmp"),
        }
        other = json.loads(json.dumps(base))
        other["solver"]["method"] = {"kind": "prox_adam", "alpha": 0.1}
        a = write_config(tmp_path / "a.json", base)
        b = write_config(tmp_path / "b.json", other)
        return parse_config(a), parse_config(b)

    def test_table_contains_both_methods(self, tmp_path):
        cfg_a, cfg_b = self._two_configs(tmp_path)
        assert cmd_compare([cfg_a, cfg_b], quiet=True) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "step"
        assert "prox_sgdm_regu_loss" in header
        assert "prox_adam_regu_feas" in header
        assert "prox_adam_regu_kkt" in header
        assert len(lines) >= 7

    def test_single_config_single_column(self, tmp_path):
        cfg_a, _ = self._two_configs(tmp_path)
        cmd_compare([cfg_a], quiet=True)
        header = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[0]
        assert header.count("_loss") == 1

    def test_mismatched_problems_rejected(self, tmp_path):
        cfg_a, cfg_b = self._two_configs(tmp_path)
        bad = json.loads(json.dumps(serialize_config(cfg_b)))
        bad["problem"]["seed"] = 1
        with pytest.raises(ConfigError, match="same problem"):
            cmd_compare([cfg_a, config_from_dict(bad)], quiet=True)

    def test_differing_output_paths_exit_2_and_write_nothing(self, tmp_path, capsys, monkeypatch):
        # compare.csv goes to one directory, so a second output_path would have no effect
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        table = json.loads(minimal_config(tmp_path).read_text())
        paths = []
        for name in ("x", "y"):
            table["output_path"] = str(tmp_path / name)
            paths += ["--config", str(write_config(tmp_path / f"{name}.json", table))]
        assert main(["compare", *paths, "--quiet"]) == 2
        assert "compare: configs must share one output_path" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    def test_empty_compare_rejected(self):
        with pytest.raises(ConfigError, match="at least one config"):
            cmd_compare([], quiet=True)


class TestCmdSweep:
    def _net_config(self, tmp_path):
        return parse_config(
            write_config(
                tmp_path / "net.json",
                {
                    "problem": {
                        "kind": "slack_l1_net",
                        "n_train": 256,
                        "n_test": 128,
                        "batch_size": 128,
                    },
                    "solver": {
                        "method": {"kind": "prox_sgdm", "alpha": 0.1},
                        "rho": 0.01,
                        "beta": 1.0,
                        "theta": {"kind": "constant", "c": 0.5},
                        "eta": {"kind": "inv_sqrt_epoch", "c": 0.1, "epoch_len": 2},
                        "max_iters": 200,
                    },
                    "output_path": str(tmp_path / "sweep"),
                    "kkt_probe": None,
                },
            )
        )

    def test_rho_tradeoff_direction(self, tmp_path):
        cfg = self._net_config(tmp_path)
        assert cmd_sweep(cfg, "solver.rho", [1e-2, 1e-5], quiet=True) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        feas = {float(r[0]): float(r[2]) for r in rows}
        assert feas[1e-2] < feas[1e-5]

    def test_empty_values_rejected(self, tmp_path):
        cfg = self._net_config(tmp_path)
        with pytest.raises(ConfigError, match="empty"):
            cmd_sweep(cfg, "solver.rho", [], quiet=True)

    # a missing last key, a missing intermediate table, and a number taken for one
    @pytest.mark.parametrize("parameter", ["solver.bogus", "solver.bogus.c", "solver.rho.c"])
    def test_unknown_parameter_rejected(self, tmp_path, parameter):
        cfg = self._net_config(tmp_path)
        with pytest.raises(ConfigError, match="unknown parameter"):
            cmd_sweep(cfg, parameter, [1.0], quiet=True)

    def test_seed_sweep_is_repetitions_shortcut(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        assert cmd_sweep(cfg, "solver.seed", [0, 1, 2], out=str(tmp_path / "s"), quiet=True) == 0
        lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_admissible_selection_rule(self, tmp_path):
        cfg = self._net_config(tmp_path)
        cmd_sweep(cfg, "solver.rho", [1e-2, 1e-5], out=str(tmp_path / "sel"), quiet=True)
        lines = (tmp_path / "sel" / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        i_adm = header.index("admissible")
        i_sel = header.index("selected")
        i_f = header.index("final_f")
        rows = [line.split(",") for line in lines[1:]]
        admissible = [r for r in rows if r[i_adm] == "1"]
        selected = [r for r in rows if r[i_sel] == "1"]
        if admissible:
            assert len(selected) == 1
            best = min(float(r[i_f]) for r in admissible)
            assert float(selected[0][i_f]) == best
        else:
            assert not selected


def with_rho(cfg, rho):
    return replace(cfg, solver=replace(cfg.solver, rho=rho))


# noise makes the seed matter
NOISY_SOLVER = {
    "method": {"kind": "prox_sgd"},
    "noise": {"kind": "uniform_box", "bound": 0.3},
    "max_iters": 40,
}


class TestChains:
    """Each command turns its input into chains, configs whose seed is set, and
    one runner builds their problems and runs them in order."""

    @pytest.mark.parametrize("command, chains", [
        (lambda cfg, out: cmd_run(replace(cfg, repetitions=3), out=out, seed=5, quiet=True),
         [(0.0, 5), (0.0, 6), (0.0, 7)]),
        (lambda cfg, out: cmd_compare([cfg, with_rho(cfg, 0.5)], out=out, seed=5, quiet=True),
         [(0.0, 5), (0.5, 5)]),
        (lambda cfg, out: cmd_sweep(cfg, "solver.rho", [1.0, 0.25, 0.5], out=out, seed=5, quiet=True),
         [(1.0, 5), (0.25, 5), (0.5, 5)]),
    ], ids=["run", "compare", "sweep"])
    def test_run_called_once_per_chain_in_order(self, tmp_path, monkeypatch, command, chains):
        calls, original = [], cli.run

        def counting(prob, config, *args, **kwargs):
            result = original(prob, config, *args, **kwargs)
            calls.append((config, result))
            return result

        monkeypatch.setattr(cli, "run", counting)
        cfg = parse_config(minimal_config(tmp_path, solver=NOISY_SOLVER))
        assert command(cfg, str(tmp_path / "c")) == 0
        assert [(config.rho, config.seed) for config, _ in calls] == chains
        metrics = sorted((tmp_path / "c").glob("metrics_rep*.jsonl"))
        for path, (_, result) in zip(metrics, calls):
            assert path.read_text() == "".join(r.to_json_line() + "\n" for r in result.records)

    # table: the file with one row per chain, and its line count (header included)
    @pytest.mark.parametrize("command, builds, table", [
        (lambda cfg, out: cmd_sweep(cfg, "solver.rho", [0.0, 0.5, 1.0], out=out, quiet=True), 1,
         ("sweep.csv", 4)),
        (lambda cfg, out: cmd_sweep(cfg, "problem.seed", [0, 1, 2], out=out, quiet=True), 3,
         ("sweep.csv", 4)),
        (lambda cfg, out: cmd_run(replace(cfg, repetitions=3), out=out, quiet=True), 1,
         ("summary.csv", 4)),
        (lambda cfg, out: cmd_compare([cfg, with_rho(cfg, 0.5)], out=out, quiet=True), 1, None),
    ], ids=["sweep-rho", "sweep-problem", "run-repetitions", "compare"])
    def test_problem_built_once_unless_swept(self, tmp_path, monkeypatch, command, builds, table):
        calls = []

        def counting(kind, **params):
            calls.append(params)
            return make_recipe(kind, **params)

        monkeypatch.setattr(cli, "make_recipe", counting)
        assert command(parse_config(minimal_config(tmp_path)), str(tmp_path / "s")) == 0
        assert len(calls) == builds
        if table:
            name, lines = table
            assert len((tmp_path / "s" / name).read_text().splitlines()) == lines

    def test_swept_seed_wins_over_seed_option(self, tmp_path):
        path = minimal_config(tmp_path, solver=NOISY_SOLVER)
        argv = ["sweep", "--config", str(path), "--param", "solver.seed", "--values", "0,1,2",
                "--quiet"]
        assert main(argv + ["--seed", "5", "--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        table = (tmp_path / "a" / "sweep.csv").read_text()
        assert table == (tmp_path / "b" / "sweep.csv").read_text()
        rows = [line.split(",", 1)[1] for line in table.splitlines()[1:]]
        assert len(set(rows)) == 3

    @pytest.mark.parametrize("command, repetitions, extra, message", [
        ("compare", 3, [], "repetitions: only run reads it"),
        ("sweep", 2, ["--param", "solver.rho", "--values", "0.5"], "repetitions: only run reads it"),
        ("sweep", 1, ["--param", "repetitions", "--values", "1,3"], "repetitions: only run reads it"),
        ("sweep", 1, ["--param", "output_path", "--values", "a,b"],
         "sweep: output_path has no effect"),
    ], ids=["compare-repetitions", "sweep-repetitions", "sweep-over-repetitions",
            "sweep-over-output_path"])
    def test_key_without_effect_on_the_command_exits_2(
        self, tmp_path, capsys, monkeypatch, command, repetitions, extra, message
    ):
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        path = minimal_config(tmp_path, repetitions=repetitions)
        assert main([command, "--config", str(path), *extra, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert runs == [] and not (tmp_path / "out").exists()


class TestMainEntry:
    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        for kind in ["affine_l1", "slack_l1_net", "stochastic_affine", "exactness_1d"]:
            assert kind in out

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = minimal_config(
            tmp_path,
            solver={"method": {"kind": "prox_sgd"}, "beta": 1.0, "theta": {"kind": "constant", "c": 2.0}},
        )
        assert main(["run", "--config", str(path)]) == 2
        assert "theta_max < beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"record_every": "x"},
            {"kkt_probe": "abc"},
            {"kkt_probe": 0},
            {"repetitions": [1]},
            {"solver": {"method": {"kind": "prox_sgd"}, "rho": [1]}},
            {"output_path": None},
            {"record_every": 2.5},
            {"repetitions": 1.5},
            {"solver": {"method": {"kind": "prox_sgd"}, "max_iters": 5.7}},
            {"solver": {"method": {"kind": "prox_sgd"}, "seed": 2.9}},
            {"solver": {"method": {"kind": "prox_sgd"}, "dual": {"kind": "ialm", "inner_steps": 2.5}}},
            {"solver": {"method": {"kind": "prox_sgd"},
                        "eta": {"kind": "inv_sqrt_epoch", "c": 0.1, "epoch_len": 2.5}}},
            # non-finite numbers, in any table
            {"solver": {"method": {"kind": "prox_sgd"},
                        "noise": {"kind": "uniform_box", "bound": float("nan")}}},
            {"solver": {"method": {"kind": "prox_sgd"},
                        "noise": {"kind": "uniform_box", "bound": float("inf")}}},
            {"solver": {"method": {"kind": "prox_sgd"}, "beta": float("nan")}},
            {"solver": {"method": {"kind": "prox_sgd"}, "rho": float("nan")}},
            {"solver": {"method": {"kind": "prox_sgd"}, "theta": {"c": float("nan")}}},
            {"solver": {"method": {"kind": "prox_sgdm", "alpha": float("inf")}}},
            {"solver": {"method": {"kind": "prox_sgd"},
                        "dual": {"kind": "ialm", "sigma": float("inf")}}},
            {"kkt_probe": float("inf")},
            {"problem": {"kind": "stochastic_affine", "noise_scale": float("nan")}},
            # JSON strings and booleans are not numbers, in any table
            {"solver": {"method": {"kind": "prox_sgd"}, "rho": "0.5"}},
            {"solver": {"method": {"kind": "prox_sgd"}, "max_iters": True}},
            {"kkt_probe": True},
            {"output_path": 5},
            {"solver": {"method": {"kind": "prox_sgdm", "alpha": True}}},
            {"solver": {"method": {"kind": "prox_sgdm", "alpha": "0.5"}}},
            {"solver": {"method": {"kind": "prox_sgd"},
                        "eta": {"kind": "inv_sqrt_epoch", "c": 0.1, "epoch_len": True}}},
            # malformed tables and run settings, and a problem its recipe refuses
            {"problem": {"n": 3, "p": 1}},
            {"problem": {"kind": "bogus"}},
            {"solver": 5},
            {"record_every": 0},
            {"repetitions": 0},
            {"problem": {"kind": "affine_l1", "n": 3, "p": 5}},
            {"problem": {"kind": "slack_l1_net", "layer_widths": [2, 0]}},
            {"problem": {"kind": "slack_l1_net", "layer_widths": [2, 2.5]}},
            {"problem": {"kind": "slack_l1_net", "layer_widths": [2, float("inf")]}},
            {"problem": {"kind": "slack_l1_net", "layer_widths": [2, -3]}},
            {"problem": {"kind": "slack_l1_net", "n_test": 0}},
        ],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, overrides):
        # malformed scalars are config errors, not tracebacks of aborted runs
        path = minimal_config(tmp_path, **overrides)
        assert main(["run", "--config", str(path), "--quiet"]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"solver": {"method": {"kind": "prox_sgd"}}}, "missing required key 'problem'"),
            ([{"problem": {"kind": "affine_l1"}}], "config: expected a key-value table"),
            ({"problem": {"kind": []}}, "problem.kind must be a string, got []"),
            ({"problem": {"kind": {}}}, "problem.kind must be a string, got {}"),
        ],
        ids=["missing-problem", "not-a-table", "kind-list", "kind-table"],
    )
    def test_malformed_file_exit_code(self, tmp_path, capsys, table, message):
        path = write_config(tmp_path / "config.json", table)
        assert main(["run", "--config", str(path), "--quiet"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("solver, extra", [
        ({"seed": -1}, []),
        ({}, ["--seed", "-1"]),
        ({}, ["--param", "solver.seed", "--values", "0,-1"]),
    ], ids=["config", "option", "sweep"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, monkeypatch, solver, extra):
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        path = minimal_config(tmp_path, solver={"method": {"kind": "prox_sgd"}, **solver})
        command = "sweep" if "--param" in extra else "run"
        assert main([command, "--config", str(path), *extra, "--quiet"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_nonfinite_sweep_value_exit_code(self, tmp_path, capsys, value):
        path = minimal_config(tmp_path)
        argv = ["sweep", "--config", str(path), "--param", "solver.rho", f"--values={value}"]
        assert main(argv + ["--quiet"]) == 2
        assert "rho must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_overflowing_finiteness_check_writes_no_warning(self, tmp_path):
        # rho 1e200 puts entries above 1e154 into the direction, whose v.dot(v)
        # overflows; the run finishes, and stderr stays empty in a fresh process
        path = minimal_config(tmp_path, solver={"method": {"kind": "prox_sgd"}, "max_iters": 50,
                                                "rho": 1e200})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "sslalm.cli", "run", "--config", str(path),
                               "--quiet"], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""

    def test_integral_floats_accepted(self, tmp_path):
        path = minimal_config(
            tmp_path, record_every=2.0, repetitions=1.0,
            solver={"method": {"kind": "prox_sgd"}, "max_iters": 5.0, "seed": 3.0,
                    "eta": {"kind": "inv_sqrt_epoch", "c": 0.1, "epoch_len": 2.0}},
        )
        cfg = parse_config(path)
        assert (cfg.record_every, cfg.repetitions) == (2, 1)
        assert (cfg.solver.max_iters, cfg.solver.seed) == (5, 3)
        assert isinstance(cfg.solver.max_iters, int)
        assert isinstance(cfg.solver.eta.epoch_len, int)

    def test_nonfinite_constraint_aborts_with_outputs(self, tmp_path, monkeypatch):
        # a constraint oracle that turns non-finite mid-run ends the run with
        # exit code 1, and the records taken so far are still written
        def broken_recipe(kind, **params):
            recipe = make_recipe(kind, **params)
            inst = recipe.instance
            calls = [0]

            def constraint(x):
                calls[0] += 1
                return inst.constraint(x) if calls[0] <= 20 else np.full(inst.dim_constraint, np.inf)

            return replace(recipe, instance=replace(inst, constraint=constraint))

        monkeypatch.setattr(cli, "make_recipe", broken_recipe)
        path = minimal_config(tmp_path, record_every=5)
        assert main(["run", "--config", str(path), "--quiet"]) == 1
        out = tmp_path / "out"
        records = (out / "metrics_rep000.jsonl").read_text().splitlines()
        assert [MetricsRecord.from_json_line(r).k for r in records] == [0, 5, 10, 15]
        summary = (out / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        assert summary[1].split(",")[header.index("aborted")] == "1"

    @pytest.mark.parametrize("tracker", ["exact", "correction"])
    def test_nonfinite_objective_aborts_with_outputs(self, tmp_path, monkeypatch, tracker):
        # the objective oracle returns inf at the point the run reaches at
        # k = 30, the record at k = 30: exit code 1, and the three records
        # before it are written
        solver = {"method": {"kind": "prox_sgd"}, "max_iters": 50, "tracker": tracker}
        path = minimal_config(tmp_path, record_every=10, solver=solver)
        cfg = parse_config(path)
        recipe = build_recipe(cfg)
        x30 = sslalm.run(recipe.instance, replace(cfg.solver, max_iters=30),
                         x0=recipe.start).state.x

        def broken_recipe(kind, **params):
            recipe = make_recipe(kind, **params)
            inst = recipe.instance

            def objective(x):
                return float("inf") if np.array_equal(x, x30) else inst.objective(x)

            return replace(recipe, instance=replace(inst, objective=objective))

        monkeypatch.setattr(cli, "make_recipe", broken_recipe)
        assert main(["run", "--config", str(path), "--quiet"]) == 1
        out = tmp_path / "out"
        records = (out / "metrics_rep000.jsonl").read_text().splitlines()
        assert [MetricsRecord.from_json_line(r).k for r in records] == [0, 10, 20]
        summary = (out / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        assert summary[1].split(",")[header.index("aborted")] == "1"

    def test_aborting_record_line_is_strict_json(self, tmp_path):
        # a step of 1e200 overflows the constraint at k = 1: the run aborts and
        # keeps that record, whose non-finite values are written null
        config = {
            "problem": {"kind": "slack_l1_net", "n_train": 16, "n_test": 8, "batch_size": 4,
                        "layer_widths": [2, 3, 2], "radius": 1000.0},
            "solver": {"method": {"kind": "prox_sgd"}, "rho": 1.0, "beta": 1.0,
                       "eta": {"kind": "constant", "c": 1e200}, "max_iters": 5, "seed": 0},
            "record_every": 1,
            "kkt_probe": None,
        }
        path = write_config(tmp_path / "abort.json", config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        lines = (out / "metrics_rep000.jsonl").read_text().splitlines()
        tables = [json.loads(line, parse_constant=refuse) for line in lines]
        assert [t["k"] for t in tables] == [0, 1]
        assert tables[1]["feas"] is None and tables[1]["H_val"] is None
        last = MetricsRecord.from_json_line(lines[1])
        assert np.isnan(last.feas) and np.isnan(last.H_val)
        assert last.lyapunov is None

    def test_run_and_sweep_through_main(self, tmp_path):
        path = minimal_config(tmp_path)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(path),
                    "--param",
                    "solver.rho",
                    "--values",
                    "0.0,0.5",
                    "--out",
                    str(tmp_path / "sw"),
                    "--quiet",
                ]
            )
            == 0
        )
        assert (tmp_path / "sw" / "sweep.csv").exists()


def test_compare_outer_join_on_mismatched_grids(tmp_path):
    base = {
        "problem": {"kind": "affine_l1", "n": 3, "p": 1, "seed": 0},
        "solver": {"method": {"kind": "prox_sgd"}, "max_iters": 40},
        "output_path": str(tmp_path / "cmp"),
        "record_every": 10,
    }
    other = json.loads(json.dumps(base))
    other["record_every"] = 15
    cfg_a = parse_config(write_config(tmp_path / "a.json", base))
    cfg_b = parse_config(write_config(tmp_path / "b.json", other))
    assert cmd_compare([cfg_a, cfg_b], quiet=True) == 0
    lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    steps = [int(l.split(",")[0]) for l in lines[1:]]
    assert steps == sorted(set([0, 10, 20, 30, 40] + [0, 15, 30, 40]))
    # blank cells where a run did not record
    row15 = lines[1 + steps.index(15)].split(",")
    assert row15[1] == "" and row15[4] != ""


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["run"], ["penalty exactness margin beta - M/nu = ", "rep 0: done  f=",
                   "wrote 1 metrics file(s) and summary.csv to "]),
        (["sweep", "--param", "solver.rho", "--values", "0.0,0.5"],
         ["solver.rho=0.0: f=", "solver.rho=0.5: f=", "wrote sweep.csv to "]),
    ],
    ids=["run", "sweep"],
)
def test_commands_report_unless_quiet(tmp_path, capsys, argv, lines):
    path = minimal_config(tmp_path)
    assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line[: len(start)] for line, start in zip(out, lines)] == lines
    assert main(argv[:1] + ["--config", str(path), "--quiet"] + argv[1:]) == 0
    assert capsys.readouterr().out == ""


def test_compare_prints_aligned_table(tmp_path, capsys):
    base = {
        "problem": {"kind": "affine_l1", "n": 3, "p": 1, "seed": 0},
        "solver": {"method": {"kind": "prox_sgd"}, "max_iters": 30},
        "output_path": str(tmp_path / "cmp"),
    }
    cfg = parse_config(write_config(tmp_path / "a.json", base))
    cmd_compare([cfg], quiet=False)
    out = capsys.readouterr().out
    assert "step" in out and "prox_sgd_regu_loss" in out


# The kind rule. Each kinded table under "solver", each of its kinds with the
# keys it reads, written out here as the rule's specification.
SCHEDULE_KEYS = {"constant": ["c"], "inv_sqrt_epoch": ["c", "epoch_len"], "power": ["c", "exponent"]}
KIND_KEYS = {
    "method": {
        "prox_sgd": [],
        "prox_sgdm": ["alpha", "tau"],
        "prox_adam": ["alpha", "eps", "tau1", "tau2"],
    },
    "theta": SCHEDULE_KEYS,
    "eta": SCHEDULE_KEYS,
    "noise": {"none": [], "uniform_box": ["bound"], "truncated_gaussian": ["bound"]},
    "tracker": {"exact": [], "correction": ["tau_tilde"]},
    "dual": {"regu": [], "ialm": ["beta_tilde", "inner_steps", "sigma", "theta_tilde"]},
}
# a valid value of each key, and a second valid value
VALUES = {
    "alpha": (0.2, 0.1), "tau": (1.0, 0.5), "tau1": (1.0, 0.5), "tau2": (0.1, 0.2),
    "eps": (1e-8, 1e-2), "c": (0.1, 0.2), "epoch_len": (2, 3), "exponent": (0.75, 1.0),
    "bound": (0.1, 0.2), "tau_tilde": (1.0, 2.0), "beta_tilde": (1e-3, 2e-3),
    "inner_steps": (2, 3), "sigma": (2.0, 3.0), "theta_tilde": (1.0, 0.5), "seed": (3, 4),
}
KINDED = [(table, kind) for table, kinds in KIND_KEYS.items() for kind in kinds]
UNKNOWN_KIND = {
    "method": "unknown method kind 'bogus'",
    "theta": "unknown schedule kind 'bogus'",
    "eta": "unknown schedule kind 'bogus'",
    "noise": "unknown noise kind 'bogus'",
    "tracker": "unknown tracker 'bogus'",
    "dual": "unknown dual rule 'bogus'",
}


def kind_table(table, kind, **changed):
    """The ``table`` of ``kind`` with every key it reads, at its first value
    unless ``changed``."""
    return {"kind": kind, **{key: VALUES[key][0] for key in KIND_KEYS[table][kind]}, **changed}


def with_solver(**tables):
    return {"problem": {"kind": "stochastic_affine", "n": 3, "p": 1}, "solver": tables}


class TestKindRule:
    @pytest.mark.parametrize("table, kind", KINDED)
    def test_table_holds_only_the_keys_its_kind_reads(self, table, kind):
        cfg = config_from_dict(with_solver(**{table: kind_table(table, kind)}))
        assert serialize_config(cfg)["solver"][table] == kind_table(table, kind)
        # a key that another kind of the table reads, or that no kind reads
        others = {key for keys in KIND_KEYS[table].values() for key in keys}
        others = sorted(others - set(KIND_KEYS[table][kind]) | ({"seed"} if table == "noise" else set()))
        for key in others:
            raw = with_solver(**{table: kind_table(table, kind, **{key: VALUES[key][0]})})
            allowed = sorted(["kind", *KIND_KEYS[table][kind]])
            message = f"solver.{table}: unknown keys [{key!r}] for kind {kind!r}; allowed: {allowed}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                config_from_dict(raw)

    @pytest.mark.parametrize(
        "table, key",
        [(table, key) for table, kinds in KIND_KEYS.items() for key in sorted(set().union(*kinds.values()))],
    )
    def test_every_key_a_kind_reads_has_an_effect(self, table, key):
        kind = next(kind for kind, keys in KIND_KEYS[table].items() if key in keys)
        finals = []
        for value in VALUES[key]:
            raw = with_solver(**{table: kind_table(table, kind, **{key: value})}, max_iters=60)
            cfg = config_from_dict({**raw, "kkt_probe": None})
            recipe = cli.build_recipe(cfg)
            state = sslalm.run(recipe.instance, cfg.solver, x0=recipe.start,
                               record_every=cfg.record_every, kkt_probe=cfg.kkt_probe).state
            finals.append(np.concatenate([state.x, state.lam, state.w]).tobytes())
        assert finals[0] != finals[1]

    @pytest.mark.parametrize("table", KIND_KEYS)
    def test_unknown_kind_keeps_its_message(self, table):
        any_key = next(keys[0] for keys in KIND_KEYS[table].values() if keys)
        raw = with_solver(**{table: {"kind": "bogus", any_key: VALUES[any_key][0]}})
        with pytest.raises(ConfigError, match=f": {UNKNOWN_KIND[table]}$"):
            config_from_dict(raw)

    def test_every_combination_of_kinds_round_trips_with_live_keys(self):
        for kinds in itertools.product(*(KIND_KEYS[table] for table in KIND_KEYS)):
            tables = {table: kind_table(table, kind) for table, kind in zip(KIND_KEYS, kinds)}
            raw = serialize_config(config_from_dict(with_solver(**tables)))
            assert {table: raw["solver"][table] for table in KIND_KEYS} == tables
            assert serialize_config(config_from_dict(raw)) == raw

    def test_default_config_serializes_only_live_keys(self):
        solver = serialize_config(config_from_dict({"problem": {"kind": "affine_l1"}}))["solver"]
        assert solver == {
            "method": {"kind": "prox_sgd"},
            "rho": 0.0,
            "beta": 1.0,
            "theta": {"kind": "constant", "c": 0.5},
            "eta": {"kind": "inv_sqrt_epoch", "c": 0.1, "epoch_len": 1},
            "tracker": {"kind": "exact"},
            "dual": {"kind": "regu"},
            "noise": {"kind": "none"},
            "max_iters": 1000,
            "seed": 0,
        }

    @pytest.mark.parametrize(
        "solver, message",
        [
            ({"noise": {"bound": 0.1}}, "solver.noise: unknown keys ['bound'] for kind 'none'"),
            ({"eta": {"c": 0.5, "epoch_len": 10}},
             "solver.eta: unknown keys ['epoch_len'] for kind 'constant'"),
            ({"method": {"alpha": 0.05}}, "solver.method: unknown keys ['alpha'] for kind 'prox_sgd'"),
            ({"theta": {"kind": "constant", "c": 0.5, "exponent": 0.7}},
             "solver.theta: unknown keys ['exponent'] for kind 'constant'"),
            ({"dual": {"kind": "regu", "sigma": 3.0}},
             "solver.dual: unknown keys ['sigma'] for kind 'regu'; allowed: ['kind']"),
            ({"tracker": {"kind": "exact", "tau_tilde": 7.0}},
             "solver.tracker: unknown keys ['tau_tilde'] for kind 'exact'"),
            ({"noise": {"kind": "uniform_box", "bound": 0.1, "seed": 3}},
             "solver.noise: unknown keys ['seed'] for kind 'uniform_box'"),
        ],
        ids=["noise-bound", "eta-epoch_len", "method-alpha", "theta-exponent", "dual-sigma",
             "tracker-tau_tilde", "noise-seed"],
    )
    def test_key_its_kind_does_not_read_exits_2(self, tmp_path, capsys, solver, message):
        path = minimal_config(tmp_path, solver={"max_iters": 5, **solver})
        assert main(["run", "--config", str(path), "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("parameter", ["solver.dual.sigma", "solver.noise.seed"])
    def test_sweep_of_a_key_no_kind_here_reads_is_an_unknown_path(self, tmp_path, parameter):
        cfg = parse_config(minimal_config(tmp_path))
        with pytest.raises(ConfigError, match=f"unknown parameter path {parameter!r}"):
            cmd_sweep(cfg, parameter, [3.0], quiet=True)

    def test_sweep_to_a_kind_that_does_not_read_a_key_exits_2(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        solver = {"method": {"kind": "prox_sgdm", "alpha": 0.1}, "max_iters": 5}
        path = minimal_config(tmp_path, solver=solver)
        argv = ["sweep", "--config", str(path), "--param", "solver.method.kind",
                "--values", "prox_sgdm,prox_sgd", "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "solver.method: unknown keys ['alpha', 'tau'] for kind 'prox_sgd'" in err
        assert runs == [] and not (tmp_path / "out").exists()


class TestNothingWrittenForABadConfig:
    def _recipe_refuses(self, tmp_path):
        problem = {"kind": "affine_l1", "n": 3, "p": 5}
        return parse_config(minimal_config(tmp_path, problem=problem))

    @pytest.mark.parametrize("command", [
        lambda cfg: cmd_run(cfg, quiet=True),
        lambda cfg: cmd_compare([cfg], quiet=True),
        lambda cfg: cmd_sweep(cfg, "solver.rho", [0.5], quiet=True),
    ], ids=["run", "compare", "sweep"])
    def test_recipe_refusal_leaves_no_directory(self, tmp_path, command):
        with pytest.raises(ConfigError, match="need 1 <= p < n"):
            command(self._recipe_refuses(tmp_path))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("parameter, values", [
        ("solver.rho", "0.5,0.1,-1"),
        ("problem.p", "1,2,5"),
    ])
    def test_sweep_checks_every_value_before_its_first_run(self, tmp_path, monkeypatch, parameter, values):
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        path = minimal_config(tmp_path)
        argv = ["sweep", "--config", str(path), "--param", parameter, "--values", values, "--quiet"]
        assert main(argv) == 2
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8",
                                      "out_is_a_file", "out_under_a_file"])
    def test_unusable_path_is_a_config_error(self, tmp_path, monkeypatch, capsys, case):
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        path, out = minimal_config(tmp_path), tmp_path / "out"
        (tmp_path / "a_file").write_text("")
        if case == "config_is_a_directory":
            path = tmp_path / "a_dir"
            path.mkdir()
        elif case == "config_not_utf8":
            path = tmp_path / "latin1.json"
            path.write_bytes('{"output_path": "\xe9"}'.encode("latin-1"))
        elif case == "out_is_a_file":
            out = tmp_path / "a_file"
        else:
            out = tmp_path / "a_file" / "sub"
        assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert str(path if case.startswith("config") else out) in err
        assert runs == []
