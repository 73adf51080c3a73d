"""The package runs on numpy alone: importing it, building every recipe and
running the solver load no scipy module (scipy serves the tests and the
benchmark's environment report only)."""
import json
import os
import subprocess
import sys
from pathlib import Path

import sslalm

SCRIPT = """
import json, sys
import sslalm, sslalm.cli
from sslalm.problems import RECIPES
small = {"slack_l1_net": {"n_train": 16, "n_test": 8, "batch_size": 8}}
for kind in RECIPES:
    sslalm.make_recipe(kind, **small.get(kind, {}))
rec = sslalm.make_recipe("affine_l1", n=4, p=2, seed=0)
res = sslalm.run(rec.instance, sslalm.SolverConfig(max_iters=5), x0=rec.start)
assert res.state.k == 5 and not res.aborted
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_package_imports_no_scipy():
    # a fresh interpreter, so that no other test's imports are counted
    src = str(Path(sslalm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
