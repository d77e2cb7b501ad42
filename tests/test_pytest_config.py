"""Tier-1's warning filters still let pytest report a failing property test.

``pyproject.toml`` turns DeprecationWarnings into errors.  hypothesis's pytest
plugin raises one of its own (``mypy_extensions.TypedDict is deprecated``)
while it reports a falsifying example; as an error it stopped the whole run
with INTERNALERROR, so the tests after it never ran.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_after_it():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_falsified.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
