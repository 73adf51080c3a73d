"""Batch experiment runner: strict JSON configs, deterministic metrics files,
comparison tables, and parameter sweeps.

Config files are nested key-value tables; unknown keys are rejected with the
offending path. Metrics are written as JSON lines (one record per iteration
recorded), summaries and tables as CSV. All outputs except the wall-time
column of the summary are byte-identical across reruns of the same config.
"""
from __future__ import annotations

import argparse
import copy
import functools
import inspect
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

from .diagnostics import exact_penalty_margin
from .lagrangian import RunResult, SolverConfig, run
from .problems import RECIPES, ProblemRecipe, make_recipe


class ConfigError(ValueError):
    """Invalid configuration file; maps to exit code 2."""


# JSON tables under "solver" that hold flat SolverConfig fields: a table's
# "kind" sets the field named like the table, its other keys keep their names
_SOLVER_TABLES = {
    "tracker": ("tau_tilde",),
    "dual": ("beta_tilde", "sigma", "theta_tilde", "inner_steps"),
}


@dataclass(frozen=True)
class RunConfig:
    problem: dict
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_path: str = "out"
    record_every: int = 10
    repetitions: int = 1
    kkt_probe: float | None = 1e-3

    def __post_init__(self):
        problem = self.problem
        if not isinstance(problem, dict) or "kind" not in problem:
            raise ConfigError("problem: needs a 'kind' key")
        if problem["kind"] not in RECIPES:
            raise ConfigError(
                f"problem.kind: unknown kind {problem['kind']!r}; known: {sorted(RECIPES)}"
            )
        sig = inspect.signature(RECIPES[problem["kind"]])
        extra = set(problem) - {"kind"} - set(sig.parameters)
        if extra:
            raise ConfigError(f"problem: unknown keys {sorted(extra)} for kind {problem['kind']!r}")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.kkt_probe is not None and not self.kkt_probe > 0:
            raise ConfigError("kkt_probe must be positive or null")


def _check_keys(table: dict, allowed: set, path: str):
    if not isinstance(table, dict):
        raise ConfigError(f"{path}: expected a key-value table")
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _solver_fields(table: dict) -> dict:
    """The solver table with its tracker and dual tables spread into flat fields;
    a bare string stands for the table's kind."""
    flat = dict(table)
    for name, extra in _SOLVER_TABLES.items():
        sub = flat.pop(name, None)
        if isinstance(sub, str):
            sub = {"kind": sub}
        if sub is not None:
            _check_keys(sub, {"kind", *extra}, f"solver.{name}")
            flat.update((name if key == "kind" else key, value) for key, value in sub.items())
    return flat


@functools.cache
def _schema(cls):
    """JSON keys, required keys and field types of a config dataclass; cached,
    since resolving the annotations costs more than a whole parse."""
    types = get_type_hints(cls)
    keys = {f.name for f in fields(cls)}
    if cls is SolverConfig:
        keys -= {key for extra in _SOLVER_TABLES.values() for key in extra}
    required = [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]
    return keys, required, {f.name: types[f.name] for f in fields(cls)}


def _coerce(name: str, hint, value):
    if hint == float | None:
        return None if value is None else float(value)
    if hint not in (int, float, str):
        return value
    if value is None:
        raise ValueError(f"{name} must not be null")
    # int() would truncate 2.5 to 2; integral floats such as 5.0 are fine
    if hint is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return hint(value)


def _from_table(cls, table, path: str):
    """Build the config dataclass ``cls`` from a JSON table keyed by its fields.

    Nested dataclass fields read nested tables, where an absent or null table
    keeps the field's default. The scalars of the run and solver tables are
    coerced to their annotated types; the inner tables pass theirs as written.
    """
    label = path or "config"
    keys, required, hints = _schema(cls)
    _check_keys(table, keys, label)
    if cls is SolverConfig:
        table = _solver_fields(table)
    for name in required:
        if name not in table:
            raise ConfigError(f"{label}: missing required key {name!r}")
    coerce = cls in (RunConfig, SolverConfig)
    kwargs = {}
    try:
        for name, value in table.items():
            if is_dataclass(hints[name]):
                if value is not None:
                    sub_path = f"{path}.{name}" if path else name
                    kwargs[name] = _from_table(hints[name], value, sub_path)
            else:
                kwargs[name] = _coerce(name, hints[name], value) if coerce else value
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    return _from_table(RunConfig, raw, "")


def parse_config(path) -> RunConfig:
    """Load and fully validate a config file; raises ConfigError with context."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return config_from_dict(raw)


def serialize_config(cfg: RunConfig) -> dict:
    """Canonical dict with every default filled; parsing it back round-trips."""
    raw = asdict(cfg)
    solver = raw["solver"]
    for name, extra in _SOLVER_TABLES.items():
        solver[name] = {"kind": solver[name], **{key: solver.pop(key) for key in extra}}
    return raw


def build_recipe(cfg: RunConfig) -> ProblemRecipe:
    params = {k: v for k, v in cfg.problem.items() if k != "kind"}
    try:
        return make_recipe(cfg.problem["kind"], **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc


def run_repetition(cfg: RunConfig, recipe: ProblemRecipe, rep: int, base_seed=None) -> RunResult:
    seed = (cfg.solver.seed if base_seed is None else base_seed) + rep
    solver = replace(cfg.solver, seed=seed)
    return run(
        recipe.instance,
        solver,
        x0=recipe.start,
        record_every=cfg.record_every,
        kkt_probe=cfg.kkt_probe,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def cmd_run(cfg: RunConfig, out=None, seed=None, quiet=False) -> int:
    out_dir = Path(out if out is not None else cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    recipe = build_recipe(cfg)
    accuracy = recipe.metadata.get("accuracy")
    mean_prob = recipe.instance.mean if hasattr(recipe.instance, "mean") else recipe.instance
    margin = exact_penalty_margin(mean_prob, cfg.solver.beta)
    if margin is not None and not quiet:
        print(f"penalty exactness margin beta - M/nu = {margin:.4g}")
    any_aborted = False
    rows = []
    for rep in range(cfg.repetitions):
        result = run_repetition(cfg, recipe, rep, base_seed=seed)
        any_aborted = any_aborted or result.aborted
        metrics_path = out_dir / f"metrics_rep{rep:03d}.jsonl"
        with open(metrics_path, "w") as fh:
            for rec in result.records:
                fh.write(rec.to_json_line() + "\n")
        final = result.final
        rows.append(
            {
                "rep": rep,
                "seed": (cfg.solver.seed if seed is None else seed) + rep,
                "final_f": final.f_val,
                "final_feas": final.feas,
                "final_kkt_residual": final.kkt_residual,
                "initial_feas": result.records[0].feas,
                "aborted": int(result.aborted),
                "wall_time_s": result.wall_time_s,
                "final_accuracy": accuracy(result.state.x) if accuracy else None,
            }
        )
        if not quiet:
            status = "aborted" if result.aborted else "done"
            print(
                f"rep {rep}: {status}  f={final.f_val:.6g}  ||c||={final.feas:.3g}  "
                f"kkt={final.kkt_residual:.3g}"
            )
    header = [
        "rep",
        "seed",
        "final_f",
        "final_feas",
        "final_kkt_residual",
        "initial_feas",
        "aborted",
        "wall_time_s",
        "final_accuracy",
    ]
    with open(out_dir / "summary.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in header) + "\n")
    if not quiet:
        print(f"wrote {cfg.repetitions} metrics file(s) and summary.csv to {out_dir}")
    return 1 if any_aborted else 0


def _label(cfg: RunConfig, idx: int, seen: dict) -> str:
    base = f"{cfg.solver.method.kind}_{cfg.solver.dual}"
    if base in seen:
        seen[base] += 1
        return f"{base}_{seen[base]}"
    seen[base] = 0
    return base


def cmd_compare(configs: list, out=None, quiet=False, seed=None) -> int:
    if not configs:
        raise ConfigError("compare needs at least one config")
    first_problem = configs[0].problem
    for cfg in configs[1:]:
        if cfg.problem != first_problem:
            raise ConfigError("compare: configs must reference the same problem")
    out_dir = Path(out if out is not None else configs[0].output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    seen: dict = {}
    labels = [_label(c, i, seen) for i, c in enumerate(configs)]
    recipe = build_recipe(configs[0])
    columns = {}
    aborted = False
    for label, cfg in zip(labels, configs):
        result = run_repetition(cfg, recipe, 0, base_seed=seed)
        aborted = aborted or result.aborted
        columns[label] = {rec.k: rec for rec in result.records}
    steps = sorted(set().union(*(col.keys() for col in columns.values())))
    header = ["step"]
    for label in labels:
        header += [f"{label}_loss", f"{label}_feas", f"{label}_kkt"]
    lines = [",".join(header)]
    for k in steps:
        row = [str(k)]
        for label in labels:
            rec = columns[label].get(k)
            if rec is None:
                row += ["", "", ""]
            else:
                row += [repr(rec.f_val), repr(rec.feas), repr(rec.kkt_residual)]
        lines.append(",".join(row))
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    if not quiet:
        widths = [max(len(h), 12) for h in header]
        shown = steps if len(steps) <= 12 else steps[:6] + steps[-6:]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for k in shown:
            row = [str(k)]
            for label in labels:
                rec = columns[label].get(k)
                row += (
                    [f"{rec.f_val:.5g}", f"{rec.feas:.4g}", f"{rec.kkt_residual:.4g}"]
                    if rec is not None
                    else ["", "", ""]
                )
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        print(f"wrote compare.csv to {out_dir}")
    return 1 if aborted else 0


def _set_dotted(table: dict, dotted: str, value):
    keys = dotted.split(".")
    node = table
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"sweep: unknown parameter path {dotted!r}")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"sweep: unknown parameter path {dotted!r}")
    node[keys[-1]] = value


def cmd_sweep(cfg: RunConfig, parameter: str, values: list, out=None, quiet=False, seed=None) -> int:
    if not values:
        raise ConfigError("sweep: empty value list")
    out_dir = Path(out if out is not None else cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    aborted = False
    # values of a solver or run parameter share one problem
    sweeps_problem = parameter == "problem" or parameter.startswith("problem.")
    recipe = None if sweeps_problem else build_recipe(cfg)
    for value in values:
        raw = copy.deepcopy(serialize_config(cfg))
        _set_dotted(raw, parameter, value)
        cfg_v = config_from_dict(raw)
        recipe_v = build_recipe(cfg_v) if sweeps_problem else recipe
        result = run_repetition(cfg_v, recipe_v, 0, base_seed=seed)
        aborted = aborted or result.aborted
        initial_feas = result.records[0].feas
        final = result.final
        admissible = final.feas <= 0.5 * initial_feas
        rows.append(
            {
                "value": value,
                "final_f": final.f_val,
                "final_feas": final.feas,
                "initial_feas": initial_feas,
                "admissible": int(admissible),
                "aborted": int(result.aborted),
            }
        )
    best = None
    for i, row in enumerate(rows):
        if row["admissible"] and not row["aborted"]:
            if best is None or row["final_f"] < rows[best]["final_f"]:
                best = i
    header = ["value", "final_f", "final_feas", "initial_feas", "admissible", "selected", "aborted"]
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        row = dict(row, selected=int(i == best))
        lines.append(",".join(_fmt(row[k]) for k in header))
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    if not quiet:
        for i, row in enumerate(rows):
            mark = " <- selected" if i == best else ""
            print(
                f"{parameter}={row['value']}: f={row['final_f']:.6g} "
                f"feas={row['final_feas']:.3g} admissible={row['admissible']}{mark}"
            )
        print(f"wrote sweep.csv to {out_dir}")
    return 1 if aborted else 0


def cmd_list_problems() -> int:
    for kind in sorted(RECIPES):
        sig = inspect.signature(RECIPES[kind])
        params = ", ".join(
            f"{name}={p.default!r}" if p.default is not inspect.Parameter.empty else name
            for name, p in sig.parameters.items()
        )
        print(f"{kind}({params})")
    return 0


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sslalm", description="Single-loop stochastic Lagrangian solver experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config, write metrics and a summary")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")

    p_cmp = sub.add_parser("compare", help="run several configs on one problem, emit a table")
    p_cmp.add_argument("--config", action="append", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--quiet", action="store_true")

    p_swp = sub.add_parser("sweep", help="run one config across parameter values")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--param", required=True)
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    p_swp.add_argument("--out", default=None)
    p_swp.add_argument("--seed", type=int, default=None)
    p_swp.add_argument("--quiet", action="store_true")

    sub.add_parser("list-problems", help="print the built-in problem recipes")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(parse_config(args.config), args.out, args.seed, args.quiet)
        if args.command == "compare":
            cfgs = [parse_config(p) for p in args.config]
            return cmd_compare(cfgs, args.out, args.quiet, args.seed)
        if args.command == "sweep":
            values = [_parse_value(v) for v in args.values.split(",") if v != ""]
            return cmd_sweep(
                parse_config(args.config), args.param, values, args.out, args.quiet, args.seed
            )
        if args.command == "list-problems":
            return cmd_list_problems()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
