"""Every demo script and the README quick start run on the library in src/.

Each script runs in a fresh interpreter with RuntimeWarnings, UserWarnings,
DeprecationWarnings and FutureWarnings turned into errors, as tier-1's
``filterwarnings`` does, so a script that divides by zero, takes the square
root of a negative number, samples too coarse a grid or leans on a numpy
deprecation fails here instead of printing a stray warning.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::UserWarning", "-W", "error::DeprecationWarning",
                           "-W", "error::FutureWarning", str(script)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demos_exist():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1, "the README has one python block, the quick start"
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0])
    lines = _run(script, tmp_path).splitlines()
    assert lines[0] == "LH"
    assert lines[2] == "hyperbola"
    assert lines[3] == "(200,) (200, 2)"
    assert float(lines[4]) < 1e-6
