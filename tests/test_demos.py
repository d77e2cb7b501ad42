"""Every demo script and the README quick start run on the library in src/
and use only its public names; ``validation`` and ``cli`` read no private
name of another package module.

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
PACKAGE = ROOT / "src" / "mobius_optics"


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


DEMO_03_TABLE = """\
resonance: hbar Delta_0 = 7.4453 eV (1.1311e+16 rad/s)
magnetic coupling: alpha = 4.8298e-03, beta = 6.9439e-04
negative-permeability window: detuning 1.626e+07 .. 3.845e+09 rad/s
bandwidth B = 3.8287e+09 rad/s

   detuning (rad/s)       eta'         eps1          mu1
       -1.0000e+15   -1.5288e-01   +1.7644e+00   +1.0000e+00
       -1.0000e+13   -1.5288e+01   +7.7442e+01   +1.0004e+00
       -1.0000e+11   -1.5288e+03   +7.6452e+03   +1.0386e+00
       -1.0000e+09   -1.4389e+05   +7.1945e+05   +4.6341e+00
       +0.0000e+00   +0.0000e+00   +1.0000e+00   +1.0000e+00
       +1.0000e+07   +2.4422e+04   -1.2211e+05   +3.8320e-01  eps1<0
       +2.9453e+07   +7.1059e+04   -3.5529e+05   -7.9464e-01  eps1<0 mu1<0
       +8.6745e+07   +1.8939e+05   -9.4695e+05   -3.7832e+00  eps1<0 mu1<0
       +2.5549e+08   +3.0570e+05   -1.5285e+06   -6.7205e+00  eps1<0 mu1<0
       +7.5247e+08   +1.8298e+05   -9.1489e+05   -3.6212e+00  eps1<0 mu1<0
       +2.2162e+09   +6.8117e+04   -3.4059e+05   -7.2035e-01  eps1<0 mu1<0
       +6.5273e+09   +2.3388e+04   -1.1694e+05   +4.0933e-01  eps1<0
       +1.9225e+10   +7.9512e+03   -3.9755e+04   +7.9919e-01  eps1<0

both principal values are negative only inside the mu1 window, a few
billion rad/s wide on top of a 1.1e16 rad/s carrier.""".splitlines()


def test_response_tensors_demo_prints_the_pinned_sweep(tmp_path):
    lines = _run(ROOT / "demos" / "03_response_tensors.py", tmp_path).splitlines()
    # a row with no flag ends in the two spaces before its empty flag column
    assert [line.rstrip() for line in lines] == DEMO_03_TABLE


# each residual line is the rounding noise of its samples: a bound, not digits
DEMO_05_SURFACES = """\
far below resonance: omega = 5.6557e+15 rad/s, eta' = -2.7032e-02
  conic: circle, 120 causal samples
  |n| range: 1.0134 .. 1.0134
  max |S_hat . tangent_hat|: < 1e-9

inside the mu1 < 0 window: omega = 1.1311e+16 rad/s, eta' = +7.7884e+04
  conic: hyperbola, 120 causal samples
  |n| range: 274.4369 .. 1265.4302
  rotated canonical-form residual: < 1e-13
  max |S_hat . tangent_hat|: < 1e-6

just past the window: omega = 1.1311e+16 rad/s, eta' = +1.5894e+04
  conic: degenerate, 0 causal samples
  (no real propagating wave vectors: total reflection)

far above resonance: omega = 1.6967e+16 rad/s, eta' = +2.7032e-02
  conic: circle, 120 causal samples
  |n| range: 0.9864 .. 0.9864
  max |S_hat . tangent_hat|: < 1e-9

the incident-side surface is always the unit circle; refraction picks
the branch of these surfaces whose energy flow points into the medium.""".splitlines()


def test_wave_surfaces_demo_prints_the_pinned_surfaces(tmp_path):
    lines = _run(ROOT / "demos" / "05_wave_surfaces.py", tmp_path).splitlines()
    assert len(lines) == len(DEMO_05_SURFACES)
    for line, want in zip(lines, DEMO_05_SURFACES):
        bounded = re.fullmatch(r"(.*: )< (\S+)", want)
        if bounded:
            head, bound = bounded.groups()
            assert line.startswith(head) and float(line[len(head):]) < float(bound), line
        else:
            assert line == want


DEMO_06_SWEEP = """\
cylinder_4w : B = 3.8287e+09 rad/s, tau_c = 0.5180 ns
cylinder_2w : B = 7.7062e+09 rad/s, tau_c = 0.2590 ns

lifetime sweep (normal incidence, complex response kept):
  tau/tau_c   B_lossless (rad/s)   left-handed window (detunings, rad/s)
       8.0         3.8309e+09   +1.584e+08 .. +3.836e+09
       2.0         3.3439e+09   +2.810e+08 .. +3.601e+09
       1.2         2.1343e+09   +8.735e+08 .. +2.988e+09
       0.8         0.0000e+00   closed
       0.4         0.0000e+00   closed

default lifetime 4 ns (about 7.7 tau_c): window +1.626e+07 .. +3.845e+09 rad/s survives the loss;
anything below one tau_c is overdamped and the window is gone.""".splitlines()


def test_lifetime_demo_prints_the_pinned_sweep(tmp_path):
    lines = _run(ROOT / "demos" / "06_lifetime_and_loss.py", tmp_path).splitlines()
    assert lines == DEMO_06_SWEEP


def _quick_start():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1, "the README has one python block, the quick start"
    return blocks[0]


def _package_names(source, filename):
    """The names a script, or a module of the package, takes from mobius_optics.

    Both imports (``from mobius_optics.dipole import _rows``, or
    ``from .dipole import _rows`` inside the package) and attributes of an
    imported package object (``dp._rows``) count; dunders do not.
    """
    tree = ast.parse(source, filename=filename)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "mobius_optics"):
            found += [alias.name for alias in node.names]
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mobius_optics":
                    found += parts[1:]
                    bound.add(alias.asname or parts[0])
    found += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound and not node.attr.startswith("__")]
    return found


# the per-quantity functions of `response` that `MediumConfig.resonance` replaced, the
# second lossless Fresnel solve of `refraction` that `classify` no longer needs, the
# routes to the dense operators and tables that `DenseRing.operator` and
# `DenseRing.projection` replaced, the `ResponseTensors` echoes of `Resonance`, and the
# routes to the dipole blocks and their band maps that `dipole.block_entries` replaced
DELETED_NAMES = frozenset({
    "eta_prefactor", "alpha_beta", "molecular_volume", "_mu1_radicand", "mu1_zero_detunings",
    "critical_lifetime", "eta", "_eta_at", "eps1", "mu1",
    "fresnel_roots", "DegenerateFresnelError",
    "_dense", "numeric_electric_elements", "numeric_magnetic_elements",
    "electric_dipole_matrix", "magnetic_dipole_matrix", "electric", "magnetic", "_magnetic",
    "alpha", "beta", "_blocks", "_rows", "_LABEL_ROW", "_BAND_ROW"})


@pytest.mark.parametrize("script", [*DEMOS, "README quick start"],
                         ids=lambda script: getattr(script, "name", script))
def test_scripts_use_only_public_names(script):
    source = _quick_start() if isinstance(script, str) else script.read_text()
    names = _package_names(source, str(script))
    assert [name for name in names if name.startswith("_")] == []
    assert DELETED_NAMES.isdisjoint(names)


def test_private_name_scan_sees_imports_and_attributes():
    source = ("from mobius_optics.dipole import _rows, selection_table\n"
              "import mobius_optics._x.y\n"
              "from mobius_optics import dipole as dp\n"
              "dp._blocks(1)\ndp.__name__\nselection_table._cache\n"
              # the relative imports of a module inside the package
              "from . import bruteforce as bf\nfrom .ring import _bonds\nbf._sandwich(1)\n")
    names = _package_names(source, "probe")
    assert sorted(name for name in names if name.startswith("_")) == [
        "_blocks", "_bonds", "_cache", "_rows", "_sandwich", "_x"]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_reads_a_private_name_of_another_module(module):
    source = (PACKAGE / f"{module}.py").read_text()
    names = _package_names(source, module)
    assert names or "from ." not in source, "the scan sees the package imports"
    assert [name for name in names if name.startswith("_")] == []


def test_deleted_name_scan_sees_the_package_and_not_the_resonance():
    source = ("from mobius_optics.response import MediumConfig, eta\n"
              "from mobius_optics import response as rs\n"
              "rs.mu1_zero_detunings(1)\n"
              "res = MediumConfig(1).resonance\nres.eta(2)\nres.critical_lifetime\n"
              "from mobius_optics import refraction as rf\nrf.fresnel_roots(res)\n")
    assert DELETED_NAMES & set(_package_names(source, "probe")) == {
        "eta", "mu1_zero_detunings", "fresnel_roots"}


def test_readme_quick_start_runs(tmp_path):
    script = tmp_path / "quick_start.py"
    script.write_text(_quick_start())
    lines = _run(script, tmp_path).splitlines()
    assert lines[0] == "LH"
    assert lines[2] == "hyperbola"
    assert lines[3] == "(200,) (200, 2)"
    assert float(lines[4]) < 1e-6
