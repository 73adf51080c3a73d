"""README's "Library usage" example runs as written against the package
namespace, so a change to the exports cannot break it unnoticed."""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs(capsys):
    section = README.read_text().split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    f_val, feas, f_star = map(float, capsys.readouterr().out.split())
    assert all(map(math.isfinite, (f_val, feas, f_star)))
    # the example reaches the brute-force optimum of its instance
    assert feas < 1e-2
    assert abs(f_val - f_star) < 1e-2
