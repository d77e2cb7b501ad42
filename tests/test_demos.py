"""Every demo script runs to completion on the library in src/.

Each demo runs in a fresh interpreter with RuntimeWarnings, UserWarnings,
DeprecationWarnings and FutureWarnings turned into errors, as tier-1's
``filterwarnings`` does, so a demo that divides by zero, takes the square
root of a negative number, samples too coarse a grid or leans on a numpy
deprecation fails here instead of printing a stray warning.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::UserWarning", "-W", "error::DeprecationWarning",
                           "-W", "error::FutureWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
