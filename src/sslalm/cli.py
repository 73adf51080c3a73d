"""Batch experiment runner: strict JSON configs, deterministic metrics files,
comparison tables, and parameter sweeps.

Config files are nested key-value tables; unknown keys are rejected with the
offending path. Metrics are written as JSON lines (one record per iteration
recorded), summaries and tables as CSV. All outputs except the wall-time
column of the summary are byte-identical across reruns of the same config.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .core import NOISE_KINDS, NoiseModel, _check_fields, _check_value, _field_types, as_stochastic
from .diagnostics import exact_penalty_margin
from .lagrangian import DUAL_KINDS, SCHEDULE_KINDS, TRACKER_KINDS, StepSchedule
from .lagrangian import RunResult, SolverConfig, run
from .methods import METHODS, MethodConfig
from .problems import RECIPES, ProblemRecipe, make_recipe


class ConfigError(ValueError):
    """Invalid configuration file; maps to exit code 2."""


# A kinded table holds "kind" and the fields its kind reads: the tables of these
# config classes, and the solver's tables of flat SolverConfig fields, whose
# "kind" sets the field named like the table
_KINDS = {MethodConfig: METHODS, StepSchedule: SCHEDULE_KINDS, NoiseModel: NOISE_KINDS}
_SOLVER_TABLES = {"tracker": TRACKER_KINDS, "dual": DUAL_KINDS}
_SOLVER_FIELDS = set().union(*TRACKER_KINDS.values(), *DUAL_KINDS.values())


@dataclass(frozen=True)
class RunConfig:
    problem: dict
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_path: str = "out"
    record_every: int = 10
    repetitions: int = 1
    kkt_probe: float | None = 1e-3

    def __post_init__(self):
        _check_fields(self)
        problem = self.problem
        if not isinstance(problem, dict) or "kind" not in problem:
            raise ConfigError("problem: needs a 'kind' key")
        if problem["kind"] not in RECIPES:
            raise ConfigError(
                f"problem.kind: unknown kind {problem['kind']!r}; known: {sorted(RECIPES)}"
            )
        params = _field_types(RECIPES[problem["kind"]])
        _check_keys(problem, {"kind", *params}, "problem")
        checked = {k: _check_value(f"problem.{k}", params.get(k), v) for k, v in problem.items()}
        object.__setattr__(self, "problem", checked)
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.kkt_probe is not None and not self.kkt_probe > 0:
            raise ConfigError("kkt_probe must be positive or null")


def _check_keys(table: dict, allowed: set, path: str, kinds=None, default=None):
    """A table of a kind in ``kinds`` (its own, else ``default``) holds "kind" and
    the fields that kind reads; any other table, only keys in ``allowed``."""
    if not isinstance(table, dict):
        raise ConfigError(f"{path}: expected a key-value table")
    kind, of_kind = table.get("kind", default), ""
    if kinds and isinstance(kind, str) and kind in kinds:
        allowed, of_kind = {"kind", *_reads(kinds, kind)}, f" for kind {kind!r}"
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {sorted(unknown)}{of_kind}; allowed: {sorted(allowed)}"
        )


def _reads(kinds: dict, kind: str) -> tuple:
    """The fields ``kind`` reads: named by its ``METHODS`` record, or in its kind table."""
    return kinds[kind].fields if kinds is METHODS else kinds[kind]


def _solver_fields(table: dict) -> dict:
    """The solver table with its tracker and dual tables spread into flat fields;
    a bare string stands for the table's kind."""
    flat = dict(table)
    for name, kinds in _SOLVER_TABLES.items():
        sub = flat.pop(name, None)
        if isinstance(sub, str):
            sub = {"kind": sub}
        if sub is not None:
            allowed = {"kind", *_SOLVER_FIELDS}
            _check_keys(sub, allowed, f"solver.{name}", kinds, getattr(SolverConfig, name))
            flat.update((name if key == "kind" else key, value) for key, value in sub.items())
    return flat


@functools.cache
def _schema(cls):
    """JSON keys, required keys, nested config classes, kinds and default kind of a
    config dataclass, which keeps a field's plain default as a class attribute."""
    types = _field_types(cls)
    keys = set(types)
    if cls is SolverConfig:
        keys -= _SOLVER_FIELDS
    required = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
    nested = {name: hint for name, hint in types.items() if is_dataclass(hint)}
    return keys, required, nested, _KINDS.get(cls), getattr(cls, "kind", None)


def _from_table(cls, table, path: str):
    """Build the config dataclass ``cls`` from a JSON table keyed by its fields;
    a nested dataclass field reads a nested table, and an absent or null one keeps
    its default. The dataclasses check the values; errors are prefixed with the path."""
    label = path or "config"
    keys, required, nested, kinds, default_kind = _schema(cls)
    _check_keys(table, keys, label, kinds, default_kind)
    if cls is SolverConfig:
        table = _solver_fields(table)
    for name in required:
        if name not in table:
            raise ConfigError(f"{label}: missing required key {name!r}")
    kwargs = {}
    try:
        for name, value in table.items():
            if name not in nested:
                kwargs[name] = value
            elif value is not None:
                sub_path = f"{path}.{name}" if path else name
                kwargs[name] = _from_table(nested[name], value, sub_path)
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
    """Canonical dict with every default filled and each kinded table holding
    only its kind and the fields that kind reads; parsing it back round-trips."""
    raw = asdict(cfg)
    solver = raw["solver"]
    flat = {key: solver.pop(key) for key in _SOLVER_FIELDS}
    for name in _SOLVER_TABLES:
        solver[name] = {"kind": solver[name], **flat}
    for name, hint in _field_types(SolverConfig).items():
        kinds = _SOLVER_TABLES.get(name) or _KINDS.get(hint)
        if kinds:
            table = solver[name]
            solver[name] = {key: table[key] for key in ("kind", *_reads(kinds, table["kind"]))}
    return raw


def build_recipe(cfg: RunConfig) -> ProblemRecipe:
    params = {k: v for k, v in cfg.problem.items() if k != "kind"}
    try:
        return make_recipe(cfg.problem["kind"], **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc


def run_repetition(cfg: RunConfig, recipe: ProblemRecipe, seed=None) -> RunResult:
    """One run of ``cfg`` on the recipe's problem; ``seed`` overrides the config's."""
    solver = cfg.solver if seed is None else replace(cfg.solver, seed=seed)
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


def _out_dir(out, cfg: RunConfig) -> Path:
    out_dir = Path(out if out is not None else cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_csv(path: Path, header: list, rows: list):
    """One line per row dict under ``header``; a key missing from a row
    leaves its cell blank."""
    lines = [",".join(header)] + [",".join(_fmt(row.get(k)) for k in header) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def cmd_run(cfg: RunConfig, out=None, seed=None, quiet=False) -> int:
    recipe = build_recipe(cfg)
    out_dir = _out_dir(out, cfg)
    accuracy = recipe.metadata.get("accuracy")
    margin = exact_penalty_margin(as_stochastic(recipe.instance).mean, cfg.solver.beta)
    if margin is not None and not quiet:
        print(f"penalty exactness margin beta - M/nu = {margin:.4g}")
    first_seed = cfg.solver.seed if seed is None else seed
    rows = []
    for rep in range(cfg.repetitions):
        result = run_repetition(cfg, recipe, first_seed + rep)
        with open(out_dir / f"metrics_rep{rep:03d}.jsonl", "w") as fh:
            for rec in result.records:
                fh.write(rec.to_json_line() + "\n")
        final = result.final
        rows.append(
            {
                "rep": rep,
                "seed": first_seed + rep,
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
    _write_csv(out_dir / "summary.csv", list(rows[0]), rows)
    if not quiet:
        print(f"wrote {cfg.repetitions} metrics file(s) and summary.csv to {out_dir}")
    return int(any(row["aborted"] for row in rows))


def _label(cfg: RunConfig, seen: dict) -> str:
    base = f"{cfg.solver.method.kind}_{cfg.solver.dual}"
    seen[base] = seen.get(base, -1) + 1
    return f"{base}_{seen[base]}" if seen[base] else base


def cmd_compare(configs: list, out=None, quiet=False, seed=None) -> int:
    if not configs:
        raise ConfigError("compare needs at least one config")
    if any(cfg.problem != configs[0].problem for cfg in configs[1:]):
        raise ConfigError("compare: configs must reference the same problem")
    recipe = build_recipe(configs[0])
    out_dir = _out_dir(out, configs[0])
    seen: dict = {}
    labels = [_label(c, seen) for c in configs]
    results = [run_repetition(cfg, recipe, seed) for cfg in configs]
    header = ["step"]
    by_step = {}
    for label, result in zip(labels, results):
        columns = (f"{label}_loss", f"{label}_feas", f"{label}_kkt")
        header += columns
        for rec in result.records:
            by_step.setdefault(rec.k, {"step": rec.k}).update(
                zip(columns, (rec.f_val, rec.feas, rec.kkt_residual))
            )
    rows = [by_step[k] for k in sorted(by_step)]
    _write_csv(out_dir / "compare.csv", header, rows)
    if not quiet:
        widths = [max(len(h), 12) for h in header]
        shown = rows if len(rows) <= 12 else rows[:6] + rows[-6:]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in shown:
            cells = [str(row["step"])] + [
                "" if h not in row else format(row[h], ".5g" if h.endswith("_loss") else ".4g")
                for h in header[1:]
            ]
            print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        print(f"wrote compare.csv to {out_dir}")
    return int(any(result.aborted for result in results))


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
    return table


def cmd_sweep(cfg: RunConfig, parameter: str, values: list, out=None, quiet=False, seed=None) -> int:
    if not values:
        raise ConfigError("sweep: empty value list")
    configs = [config_from_dict(_set_dotted(serialize_config(cfg), parameter, v)) for v in values]
    # values of a solver or run parameter share one problem
    shared = None if parameter.split(".")[0] == "problem" else build_recipe(cfg)
    recipes = [shared or build_recipe(cfg_v) for cfg_v in configs]
    out_dir = _out_dir(out, cfg)
    rows = []
    for value, cfg_v, recipe in zip(values, configs, recipes):
        result = run_repetition(cfg_v, recipe, seed)
        initial_feas = result.records[0].feas
        final = result.final
        rows.append(
            {
                "value": value,
                "final_f": final.f_val,
                "final_feas": final.feas,
                "initial_feas": initial_feas,
                "admissible": int(final.feas <= 0.5 * initial_feas),
                "selected": 0,
                "aborted": int(result.aborted),
            }
        )
    # the first of the lowest admissible objectives among runs that finished
    candidates = [row for row in rows if row["admissible"] and not row["aborted"]]
    if candidates:
        min(candidates, key=lambda row: row["final_f"])["selected"] = 1
    _write_csv(out_dir / "sweep.csv", list(rows[0]), rows)
    if not quiet:
        for row in rows:
            mark = " <- selected" if row["selected"] else ""
            print(
                f"{parameter}={row['value']}: f={row['final_f']:.6g} "
                f"feas={row['final_feas']:.3g} admissible={row['admissible']}{mark}"
            )
        print(f"wrote sweep.csv to {out_dir}")
    return int(any(row["aborted"] for row in rows))


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
    """A sweep value: its JSON value, else the number Python reads from it
    (``nan``, ``inf``, ``.5``), else the text itself."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sslalm", description="Single-loop stochastic Lagrangian solver experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config, write metrics and a summary")
    p_run.add_argument("--config", required=True)

    p_cmp = sub.add_parser("compare", help="run several configs on one problem, emit a table")
    p_cmp.add_argument("--config", action="append", required=True)

    p_swp = sub.add_parser("sweep", help="run one config across parameter values")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--param", required=True)
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    for p in (p_run, p_cmp, p_swp):
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")

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
        return cmd_list_problems()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
