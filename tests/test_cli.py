import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sslalm import cli
from sslalm.cli import (
    ConfigError,
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
        with np.errstate(over="ignore"):
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

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg = self._net_config(tmp_path)
        with pytest.raises(ConfigError, match="unknown parameter"):
            cmd_sweep(cfg, "solver.bogus", [1.0], quiet=True)

    def test_seed_sweep_is_repetitions_shortcut(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        assert cmd_sweep(cfg, "solver.seed", [0, 1, 2], out=str(tmp_path / "s"), quiet=True) == 0
        lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("parameter, values, builds", [
        ("solver.rho", [0.0, 0.5, 1.0], 1),
        ("problem.seed", [0, 1, 2], 3),
    ])
    def test_problem_built_once_unless_swept(self, tmp_path, monkeypatch, parameter, values, builds):
        calls = []

        def counting(kind, **params):
            calls.append(params)
            return make_recipe(kind, **params)

        monkeypatch.setattr(cli, "make_recipe", counting)
        cfg = parse_config(minimal_config(tmp_path))
        assert cmd_sweep(cfg, parameter, values, out=str(tmp_path / "s"), quiet=True) == 0
        assert len(calls) == builds
        assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == len(values) + 1

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
            {"solver": {"method": {"kind": "prox_sgd", "alpha": float("inf")}}},
            {"solver": {"method": {"kind": "prox_sgd"},
                        "dual": {"kind": "ialm", "sigma": float("inf")}}},
            {"kkt_probe": float("inf")},
            {"problem": {"kind": "stochastic_affine", "noise_scale": float("nan")}},
        ],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, overrides):
        # malformed scalars are config errors, not tracebacks of aborted runs
        path = minimal_config(tmp_path, **overrides)
        assert main(["run", "--config", str(path), "--quiet"]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_nonfinite_sweep_value_exit_code(self, tmp_path, capsys, value):
        path = minimal_config(tmp_path)
        argv = ["sweep", "--config", str(path), "--param", "solver.rho", f"--values={value}"]
        assert main(argv + ["--quiet"]) == 2
        assert "rho must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_integral_floats_accepted(self, tmp_path):
        path = minimal_config(
            tmp_path, record_every=2.0, repetitions=1.0,
            solver={"method": {"kind": "prox_sgd"}, "max_iters": 5.0, "seed": 3.0},
        )
        cfg = parse_config(path)
        assert (cfg.record_every, cfg.repetitions) == (2, 1)
        assert (cfg.solver.max_iters, cfg.solver.seed) == (5, 3)
        assert isinstance(cfg.solver.max_iters, int)

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
        # the objective oracle turns inf on its fourth call, the record at
        # k = 30: exit code 1, and the three records before it are written
        def broken_recipe(kind, **params):
            recipe = make_recipe(kind, **params)
            inst = recipe.instance
            calls = [0]

            def objective(x):
                calls[0] += 1
                return inst.objective(x) if calls[0] <= 3 else float("inf")

            return replace(recipe, instance=replace(inst, objective=objective))

        monkeypatch.setattr(cli, "make_recipe", broken_recipe)
        solver = {"method": {"kind": "prox_sgd"}, "max_iters": 50, "tracker": tracker}
        path = minimal_config(tmp_path, record_every=10, solver=solver)
        assert main(["run", "--config", str(path), "--quiet"]) == 1
        out = tmp_path / "out"
        records = (out / "metrics_rep000.jsonl").read_text().splitlines()
        assert [MetricsRecord.from_json_line(r).k for r in records] == [0, 10, 20]
        summary = (out / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        assert summary[1].split(",")[header.index("aborted")] == "1"

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
