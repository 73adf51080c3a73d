"""Span tracing around the package's public entry points, from outside it.

The tracer wraps module attributes, class methods and a recipe's oracle
callables with timing wrappers, so the package itself is unchanged. Spans
nest through a stack: a span's self time is its duration minus the time of
its direct child spans. Spans are aggregated per name as they close (calls,
self time, outermost inclusive time) instead of being kept one by one, since
a traced run closes millions of them.

A call nested directly inside a span of the same name (a ``BlockProduct``
projecting its ``Box`` blocks, ``parse_config`` calling ``config_from_dict``)
adds its self time to the name but is not counted as a separate outer call.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter


class SpanStats:
    __slots__ = ("calls", "outer_calls", "self_s", "outer_s")

    def __init__(self, calls=0, outer_calls=0, self_s=0.0, outer_s=0.0):
        self.calls = calls
        self.outer_calls = outer_calls
        self.self_s = self_s
        self.outer_s = outer_s

    def copy(self) -> "SpanStats":
        return SpanStats(self.calls, self.outer_calls, self.self_s, self.outer_s)

    def __add__(self, other: "SpanStats") -> "SpanStats":
        return SpanStats(
            self.calls + other.calls,
            self.outer_calls + other.outer_calls,
            self.self_s + other.self_s,
            self.outer_s + other.outer_s,
        )

    def __sub__(self, other: "SpanStats") -> "SpanStats":
        return SpanStats(
            self.calls - other.calls,
            self.outer_calls - other.outer_calls,
            self.self_s - other.self_s,
            self.outer_s - other.outer_s,
        )


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list = []  # open spans as [name, child time]

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not stack or stack[-1][0] != name:
                    stats.outer_calls += 1
                    stats.outer_s += dur

        return traced

    def snapshot(self) -> dict:
        return {name: s.copy() for name, s in self.stats.items()}


def instrument_recipe(recipe, tracer: Tracer):
    """The same recipe with every oracle callable of its instance traced."""
    from sslalm import StochasticProblemInstance

    def wrap_mean(prob):
        return replace(
            prob,
            objective=tracer.wrap("problems.objective", prob.objective),
            objective_subgradient=tracer.wrap("problems.subgradient", prob.objective_subgradient),
            constraint=tracer.wrap("problems.constraint", prob.constraint),
            constraint_jacobian=tracer.wrap("problems.jacobian", prob.constraint_jacobian),
        )

    inst = recipe.instance
    if isinstance(inst, StochasticProblemInstance):
        inst = replace(
            inst,
            mean=wrap_mean(inst.mean),
            draw_objective_sample=tracer.wrap("problems.sample_draw", inst.draw_objective_sample),
            draw_constraint_sample=tracer.wrap("problems.sample_draw", inst.draw_constraint_sample),
            objective_sample=tracer.wrap("problems.objective", inst.objective_sample),
            objective_subgradient_sample=tracer.wrap(
                "problems.subgradient", inst.objective_subgradient_sample
            ),
            constraint_sample=tracer.wrap("problems.constraint", inst.constraint_sample),
            constraint_jacobian_sample=tracer.wrap(
                "problems.jacobian", inst.constraint_jacobian_sample
            ),
        )
    else:
        inst = wrap_mean(inst)
    return replace(recipe, instance=inst)


def _entry_points():
    """(owner, attribute, span name) for every wrapped entry point.

    Functions are wrapped in each namespace that calls them by name, since
    ``from .core import as_vector`` binds a separate module attribute.
    """
    import sslalm
    from sslalm import cli, core, diagnostics, geometry, lagrangian, problems

    points = []
    for mod in (core, lagrangian, diagnostics):
        points.append((mod, "as_vector", "core.as_vector"))
        points.append((mod, "eval_constraints", "core.eval_constraints"))
    points += [
        (core.NoiseModel, "draw", "core.noise_draw"),
        (problems, "l1_affine_oracle", "problems.oracle_build"),
        (lagrangian, "method_step", "methods.step"),
        (lagrangian, "dual_step_regu", "lagrangian.dual_step"),
        (lagrangian, "dual_step_ialm", "lagrangian.dual_step_ialm"),
        (lagrangian, "track_correction", "lagrangian.tracker"),
        (lagrangian, "assemble_record", "diagnostics.record"),
        (lagrangian, "lyapunov_momentum", "diagnostics.lyapunov"),
        (lagrangian, "lyapunov_adam", "diagnostics.lyapunov"),
        (diagnostics, "kkt_residual", "diagnostics.kkt"),
        (cli, "parse_config", "cli.parse"),
        (cli, "config_from_dict", "cli.parse"),
        (cli, "build_recipe", "cli.build_recipe"),
        (cli, "cmd_run", "cli.cmd"),
        (cli, "cmd_compare", "cli.cmd"),
        (cli, "cmd_sweep", "cli.cmd"),
        (sslalm, "run", "lagrangian.run"),
        (lagrangian, "run", "lagrangian.run"),
        (cli, "run", "lagrangian.run"),
    ]
    for cls in vars(geometry).values():
        if isinstance(cls, type) and issubclass(cls, geometry.FeasibleSet):
            for meth in ("project", "prox_weighted"):
                if meth in vars(cls):
                    points.append((cls, meth, f"geometry.{meth}"))
    return points


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the entry points for the duration of the block.

    Yields the list of entry points that were not found, so a renamed one
    shows up in the report instead of silently reading zero.
    """
    import sslalm
    from sslalm import cli

    saved = []
    missing = []
    try:
        for owner, attr, name in _entry_points():
            if attr not in vars(owner):
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        for owner in (sslalm, cli):
            if "make_recipe" not in vars(owner):
                missing.append(f"{owner.__name__}.make_recipe")
                continue
            original = owner.make_recipe
            saved.append((owner, "make_recipe", original))
            build = tracer.wrap("problems.build", original)

            def traced_make_recipe(*args, _build=build, **kwargs):
                return instrument_recipe(_build(*args, **kwargs), tracer)

            owner.make_recipe = traced_make_recipe
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
