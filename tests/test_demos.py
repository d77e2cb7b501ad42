"""Every demo script and the README quick start run on the library in src/
and use only its public names.

Each script runs in a fresh interpreter with RuntimeWarnings, UserWarnings,
DeprecationWarnings and FutureWarnings turned into errors, as tier-1's
``filterwarnings`` does, so a script that divides by zero, takes the square
root of a negative number, samples too coarse a grid or leans on a numpy
deprecation fails here instead of printing a stray warning.
"""

import ast
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


DEMO_01_SPECTRUM = """\
 l  band      E (eV)
 0  down    -10.8000
 1  down     -9.8354
 2  down     -7.2000
 3  down     -3.6000
 4  down     -0.0000
 5  down      2.6354
 6  down      3.6000
 7  down      2.6354
 8  down      0.0000
 9  down     -3.6000
10  down     -7.2000
11  down     -9.8354
 0  up       -3.3547
 1  up       -3.3547
 2  up       -1.4912
 3  up        1.7365
 4  up        5.4635
 5  up        8.6912
 6  up       10.5547
 7  up       10.5547
 8  up        8.6912
 9  up        5.4635
10  up        1.7365
11  up       -1.4912""".splitlines()

DEMO_02_TABLE = """\
transitions out of the ground state (0, down):
 to      dE (eV)   electric |d|/eW  rule    magnetic |m|/(e xi R W/hbar)  rule
( 1,down)   0.9646         2.7009   xy                0.0147        -
( 2,down)   3.6000         0.0000   -                 0.0120        -
(10,down)   3.6000         0.0000   -                 0.0120        -
(11,down)   0.9646         2.7009   xy                0.0147        -
( 0,up  )   7.4453         0.6124   xyz               0.3247        xyz
( 1,up  )   7.4453         0.6124   xyz               0.3247        xyz
( 2,up  )   9.3088         0.3536   xy                0.3182        xy
(11,up  )   9.3088         0.3536   xy                0.3182        xy""".splitlines()


def test_band_structure_demo_prints_the_pinned_spectrum(tmp_path):
    lines = _run(ROOT / "demos" / "01_band_structure.py", tmp_path).splitlines()
    assert lines[:2] == ["ring: N = 12 atoms per sub-ring, V = 3.6 eV, xi = 3.6 eV",
                         "radius R = 0.2941 nm, half-width W = 0.077 nm"]
    assert lines[3:28] == DEMO_01_SPECTRUM
    assert lines[29] == ("lowest up-band pair: E(0,up) = -3.354666 eV, "
                         "E(1,up) = -3.354666 eV -> degenerate: True")
    # the dense eigensolver's last bits depend on the LAPACK build
    dense = re.fullmatch(r"closed form vs dense eigensolver: max \|dE\| = (\S+) eV", lines[30])
    assert float(dense[1]) < 1e-12
    assert lines[31] == ("boundary twist: a_0 amplitude 0.204124+0.000000j equals the "
                         "continued b_N amplitude 0.204124-0.000000j")
    assert len(lines) == 32


def test_selection_rules_demo_prints_the_pinned_table(tmp_path):
    lines = _run(ROOT / "demos" / "02_selection_rules.py", tmp_path).splitlines()
    assert lines[:len(DEMO_02_TABLE)] == DEMO_02_TABLE
    # the planar ring's values are rounding noise of the dense products
    planar = re.fullmatch(r"planar ring:     \|\[m_z, H\]\| = (\S+) \(natural units\), "
                          r"largest magnetic transition (\S+)", lines[-3])
    assert float(planar[1]) < 1e-12 and float(planar[2]) < 1e-12
    assert lines[-2:] == ["periodic double ring: 0 transitions carry both dipoles",
                          "Mobius ring:          3 transition(s) carry both dipoles"]


DEMO_04_E_ROW = "  " + "R" * 30 + "." + "L" * 3 + "T" * 27
DEMO_04_H_ROW = "  " + "R" * 30 + "." + "T" * 2 + "R" * 28


def test_phase_diagram_demo_prints_the_pinned_diagrams(tmp_path):
    lines = _run(ROOT / "demos" / "04_phase_diagram.py", tmp_path).splitlines()
    # every theta row of the coarse map is the same: the band spans all angles
    assert lines == [
        "E-polarized (rows: theta 0..89 deg; cols: detuning -10B..+10B):",
        *[DEMO_04_E_ROW] * 11,
        "  counts: {'LH': 93, 'RH': 930, 'TR': 837}",
        "",
        "H-polarized (rows: theta 0..89 deg; cols: detuning -10B..+10B):",
        *[DEMO_04_H_ROW] * 11,
        "  counts: {'LH': 0, 'RH': 1798, 'TR': 62}",
        "",
        "the E-polarized left-handed band spans detunings 1.626e+07 .. 3.845e+09 rad/s, "
        "i.e. exactly the mu1 < 0 window,",
        "at every incidence angle; past its upper edge the wave is totally reflected.",
    ]


def _quick_start():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1, "the README has one python block, the quick start"
    return blocks[0]


def _private_package_names(source, filename):
    """The ``_``-prefixed names a script takes from mobius_optics.

    Both imports (``from mobius_optics.dipole import _rows``) and attributes
    of an imported package object (``dp._rows``) count; dunders do not.
    """
    tree = ast.parse(source, filename=filename)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mobius_optics":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mobius_optics":
                    found += [part for part in parts if part.startswith("_")]
                    bound.add(alias.asname or parts[0])
    found += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound and node.attr.startswith("_")
              and not node.attr.startswith("__")]
    return found


@pytest.mark.parametrize("script", [*DEMOS, "README quick start"],
                         ids=lambda script: getattr(script, "name", script))
def test_scripts_use_only_public_names(script):
    source = _quick_start() if isinstance(script, str) else script.read_text()
    assert _private_package_names(source, str(script)) == []


def test_private_name_scan_sees_imports_and_attributes():
    source = ("from mobius_optics.dipole import _rows, selection_table\n"
              "import mobius_optics._x.y\n"
              "from mobius_optics import dipole as dp\n"
              "dp._blocks(1)\ndp.__name__\nselection_table._cache\n")
    assert sorted(_private_package_names(source, "probe")) == ["_blocks", "_cache", "_rows", "_x"]


def test_readme_quick_start_runs(tmp_path):
    script = tmp_path / "quick_start.py"
    script.write_text(_quick_start())
    lines = _run(script, tmp_path).splitlines()
    assert lines[0] == "LH"
    assert lines[2] == "hyperbola"
    assert lines[3] == "(200,) (200, 2)"
    assert float(lines[4]) < 1e-6
