"""A fifth recipe added as one maker named ``make_<kind>`` and decorated with
``problems._recipe``, with no other change: its kind, its params and their type
rule come from the signature, and the config parser, ``list-problems`` and
``sslalm run`` take it as they take a built-in recipe. The problem is
``min slope * sum(x)`` subject to ``sum(x) = 0`` on the box ``[-1, 1]^n``."""
import json

import numpy as np
import pytest

from sslalm import ProblemInstance, make_recipe
from sslalm.cli import ConfigError, config_from_dict, main
from sslalm.geometry import Box
from sslalm.problems import RECIPES, ProblemRecipe, _recipe


@pytest.fixture
def make_test_line():
    def make_test_line(n: int = 2, slope: float = 1.0) -> ProblemRecipe:
        inst = ProblemInstance(
            dim_primal=n,
            dim_constraint=1,
            objective=lambda x: float(slope * x.sum()),
            objective_subgradient=lambda x: np.full(n, slope),
            constraint=lambda x: np.array([x.sum()]),
            constraint_jacobian=lambda x: np.ones((n, 1)),
            feasible_set=Box(np.full(n, -1.0), np.full(n, 1.0)),
        )
        return ProblemRecipe(instance=inst, start=np.full(n, 0.5))

    yield _recipe(make_test_line)
    del RECIPES["test_line"]


def test_kind_is_the_makers_name(make_test_line):
    assert RECIPES["test_line"] is make_test_line
    assert make_test_line().kind == "test_line"


def test_params_are_the_checked_arguments_with_defaults(make_test_line):
    params = make_recipe("test_line", n=4.0).params
    assert params == {"n": 4, "slope": 1.0}
    assert type(params["n"]) is int


def test_config_parser_applies_the_type_rule(make_test_line):
    assert config_from_dict({"problem": {"kind": "test_line", "n": 2}}).problem["n"] == 2
    with pytest.raises(ConfigError, match="problem.n must be an integer"):
        config_from_dict({"problem": {"kind": "test_line", "n": 2.5}})


def test_list_problems_prints_its_signature(make_test_line, capsys):
    assert main(["list-problems"]) == 0
    assert "test_line(n=2, slope=1.0)\n" in capsys.readouterr().out


def test_sslalm_run_from_a_config_file(make_test_line, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "problem": {"kind": "test_line", "n": 3},
        "solver": {"method": {"kind": "prox_sgd"}, "max_iters": 20},
        "output_path": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    lines = (tmp_path / "out" / "metrics_rep000.jsonl").read_text().splitlines()
    assert [json.loads(line)["k"] for line in lines] == [0, 10, 20]
