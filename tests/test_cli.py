import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mobius_optics import cli, validation
from mobius_optics.refraction import Polarization
from mobius_optics.ring import Topology, VolumeConvention


def test_empty_config_gives_documented_defaults():
    cfg = cli.parse_config(b"{}")
    assert cfg.ring.n_per_ring == 12
    assert cfg.ring.v_inter == 3.6
    assert cfg.ring.xi_intra == 3.6
    assert cfg.ring.half_width == pytest.approx(0.077e-9)
    assert cfg.ring.radius == pytest.approx(12 * 0.077e-9 / math.pi)
    assert cfg.ring.decay_rate == pytest.approx(2.5e8)
    assert cfg.ring.topology is Topology.MOBIUS
    assert cfg.ring.volume_convention is VolumeConvention.CYLINDER_4W
    assert cfg.lossy is False
    assert cfg.theta_count == 256 and cfg.omega_count == 512
    assert cfg.polarization is Polarization.E
    assert cfg.format == "csv"


def test_gamma_unit_conversion():
    cfg = cli.parse_config(b'{"gamma_inv_ns": 4}')
    assert cfg.ring.decay_rate == pytest.approx(1.0 / 4e-9)


def test_ring_size_alias_and_bound():
    assert cli.parse_config(b'{"N": 6}').ring.n_per_ring == 6
    with pytest.raises(cli.ConfigError, match="n_per_ring must be >= 3"):
        cli.parse_config(b'{"N": 2}')
    with pytest.raises(cli.ConfigError, match="given twice"):
        cli.parse_config(b'{"N": 6, "n_per_ring": 6}')


def test_unknown_keys_rejected():
    with pytest.raises(cli.ConfigError, match="unknown config key: 'npr'"):
        cli.parse_config(b'{"npr": 12}')


def test_malformed_json_rejected():
    with pytest.raises(cli.ConfigError, match="malformed JSON"):
        cli.parse_config(b"{not json")


@pytest.mark.parametrize("snippet,match", [
    ('{"v_inter_ev": -1}', "v_inter_ev must be > 0"),
    ('{"half_width_nm": 0}', "half_width_nm must be > 0"),
    ('{"theta_max_deg": 90}', "theta_max_deg must be < 90"),
    ('{"theta_count": 0}', "theta_count must be >= 1"),
    ('{"omega_span_ev": 1, "omega_span_rad_s": 1}', "at most one"),
    ('{"polarization": "Q"}', "polarization must be E or H"),
    ('{"format": "xml"}', "format must be csv or json"),
    ('{"topology": "torus"}', "unknown config key: 'topology'"),
    ('{"lossy": 1}', "lossy must be a boolean"),
    ('{"surface_detunings_ev": []}', "surface_detunings_ev"),
    ('{"gamma_inv_ns": Infinity}', "gamma_inv_ns must be finite"),
    ('{"omega_center_ev": Infinity}', "omega_center_ev must be finite"),
    ('{"omega_span_rad_s": Infinity}', "omega_span_rad_s must be finite"),
    pytest.param('{"radius_nm": 1%s}' % ("0" * 400), "radius_nm must be finite",
                 id="radius_nm-int-beyond-float-range"),
    ('{"surface_detunings_ev": [NaN]}', "surface_detunings_ev must be finite"),
    ('{"eps_onsite_ev": 0.5}', "unknown config key: 'eps_onsite_ev'"),
    ('{"half_width_nm": 1e-300}', "half_width_nm .* finite molecular volume > 0"),
    ('{"half_width_nm": 1e300}', "half_width_nm .* finite molecular volume > 0"),
    ('{"xi_intra_ev": 1e100}', "v_inter_ev, xi_intra_ev, half_width_nm .* finite bandwidth"),
    ('{"v_inter_ev": 1e100}', "v_inter_ev, xi_intra_ev, half_width_nm .* finite bandwidth"),
    ('{"xi_intra_ev": 1e300}', "v_inter_ev, xi_intra_ev, half_width_nm .* critical lifetime"),
    ('{"gamma_inv_ns": 1e-200}', "gamma_inv_ns must give a finite bandwidth"),
    ('{"gamma_inv_ns": 1e-300}', "gamma_inv_ns must give a finite decay rate"),
    # the lifetime in seconds rounds to 0
    ('{"gamma_inv_ns": 5e-324}', "gamma_inv_ns must give a finite decay rate"),
    # the denominator of tau_c overflows, so it evaluates to 0
    ('{"half_width_nm": 1e100}', "half_width_nm .* critical lifetime > 0"),
])
def test_config_diagnostics_name_the_offending_key(snippet, match):
    with pytest.raises(cli.ConfigError, match=match):
        cli.parse_config(snippet.encode())


@pytest.mark.parametrize("command", ("phase-diagram", "response"))
@pytest.mark.parametrize("extra,key", [
    ({"omega_span_rad_s": 1e300}, "omega_span_rad_s"),
    ({"omega_span_ev": 8.0}, "omega_span_ev"),
    ({"omega_center_ev": 1e300}, "omega_center_ev"),
    ({"omega_center_ev": 1e300, "omega_count": 1}, "omega_center_ev"),
])
def test_omega_sweep_outside_the_positive_range_is_a_config_error(
        tmp_path, capsys, monkeypatch, command, extra, key):
    path = tmp_path / "out.csv"
    cfg = cli.parse_config(json.dumps({**extra, "output_path": str(path)}).encode())
    with pytest.raises(cli.ConfigError, match=f"omega must be positive.*{key}"):
        cli.run_command(command, cfg, stdout=io.StringIO())
    assert not path.exists()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(extra))
    assert cli.main([command, "c.json"]) == cli.EXIT_CONFIG_ERROR
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_emit_table_header_only_for_empty_rows():
    table = np.empty(0, dtype=[("a", float), ("b", int)])
    assert cli.emit_table(["a", "b"], table, "csv") == b"a,b\n"
    assert cli.emit_table(["a", "b"], table, "json") == b'{"columns":["a","b"],"rows":[]}\n'


def test_emit_table_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 7.445334050718708, 1e-300, -2.5e8]
    table = np.rec.fromarrays([values], names=["x"])
    data = cli.emit_table(["x"], table, "csv").decode()
    parsed = [float(line) for line in data.splitlines()[1:]]
    assert parsed == values
    as_json = cli.emit_table(["x"], table, "json")
    loaded = json.loads(as_json)
    assert [r["x"] for r in loaded["rows"]] == values


def test_spectrum_command(tmp_path, capsys):
    cfg = cli.parse_config(json.dumps(
        {"output_path": str(tmp_path / "spectrum.csv")}).encode())
    assert cli.run_command("spectrum", cfg) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "l,band,energy_ev"
    assert len(lines) == 25
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    assert min(energies) == pytest.approx(-10.8)
    assert "24 states" in capsys.readouterr().out


def test_phase_diagram_h_polarization_has_no_lh_cells(tmp_path, capsys):
    cfg = cli.parse_config(json.dumps({
        "theta_count": 32, "omega_count": 64,
        "output_path": str(tmp_path / "pd.csv"),
    }).encode())
    cfg = cli.RunConfig(**{**cfg.__dict__, "polarization": Polarization.H})
    assert cli.run_command("phase-diagram", cfg) == 0
    out = capsys.readouterr().out
    assert "LH cells 0," in out
    codes = {int(line.split(",")[3])
             for line in (tmp_path / "pd.csv").read_text().splitlines()[1:]}
    assert codes <= {-1, 0, 1, 2}


def test_phase_diagram_e_polarization_summary(tmp_path, capsys):
    cfg = cli.parse_config(json.dumps({
        "theta_count": 16, "omega_count": 128,
        "output_path": str(tmp_path / "pd.csv"),
    }).encode())
    assert cli.run_command("phase-diagram", cfg) == 0
    out = capsys.readouterr().out
    lh = int(out.split("LH cells ")[1].split(",")[0])
    assert lh > 0


def test_byte_identical_outputs_across_runs(tmp_path, capsys):
    blobs = []
    for run in (1, 2):
        path = tmp_path / f"resp{run}.csv"
        cfg = cli.parse_config(json.dumps({
            "omega_count": 64, "output_path": str(path)}).encode())
        assert cli.run_command("response", cfg) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_surface_command_reports_conics(tmp_path, capsys):
    cfg = cli.parse_config(json.dumps({
        "surface_samples": 40, "output_path": str(tmp_path / "s.csv")}).encode())
    assert cli.run_command("surface", cfg) == 0
    out = capsys.readouterr().out
    assert "circle" in out and "hyperbola" in out


def test_surface_command_writes_only_the_header_when_no_surface_has_points(tmp_path, capsys):
    path = tmp_path / "s.csv"
    cfg = cli.parse_config(json.dumps({
        "surface_detunings_ev": [2e-5], "output_path": str(path)}).encode())
    assert cli.run_command("surface", cfg) == 0
    assert "+2e-05 eV -> degenerate" in capsys.readouterr().out
    assert path.read_text() == "detuning_ev,omega_rad_s,conic,n_ty,n_tz,normal_y,normal_z\n"


def test_surface_with_a_singular_yz_block_writes_no_nan(tmp_path, capsys):
    # at 1e26 nm the yz determinant of mu rounds to exactly 0 below resonance,
    # so that surface is a line pair and has no points, not NaN normals
    path = tmp_path / "s.csv"
    cfg = cli.parse_config(json.dumps({
        "half_width_nm": 1e26, "surface_samples": 200, "output_path": str(path)}).encode())
    assert cli.run_command("surface", cfg) == 0
    assert "-3.723 eV -> degenerate" in capsys.readouterr().out
    tokens = {tok for line in path.read_text().splitlines() for tok in line.split(",")}
    assert "nan" not in {tok.lower() for tok in tokens}


def test_bandwidth_command_prints_both_conventions(tmp_path, capsys):
    cfg = cli.parse_config(json.dumps(
        {"output_path": str(tmp_path / "b.csv")}).encode())
    assert cli.run_command("bandwidth", cfg) == 0
    out = capsys.readouterr().out
    assert "0.518 ns" in out and "0.259 ns" in out and "factor 2" in out
    rows = (tmp_path / "b.csv").read_text().splitlines()
    assert len(rows) == 3  # header + both conventions


def test_elements_command_lists_selection_rules(tmp_path, capsys):
    cfg = cli.parse_config(json.dumps({
        "N": 6, "output_path": str(tmp_path / "e.csv")}).encode())
    assert cli.run_command("elements", cfg) == 0
    capsys.readouterr()
    lines = (tmp_path / "e.csv").read_text().splitlines()
    header = lines[0].split(",")
    i_kind = header.index("kind")
    i_rule = header.index("selection_rule")
    i_nz = header.index("nonzero_components")
    kinds = {line.split(",")[i_kind] for line in lines[1:]}
    assert kinds == {"electric", "magnetic"}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[i_kind] == "electric":
            assert cells[i_rule] == "".join(sorted(cells[i_nz]))


def test_main_error_paths(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 2}')
    assert cli.main(["spectrum", str(bad)]) == 2
    assert "n_per_ring" in capsys.readouterr().err
    assert cli.main(["spectrum", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b'{"N": 4}')))
    assert cli.main(["spectrum", "-"]) == 0
    assert (tmp_path / "spectrum.csv").read_text().count("\n") == 9
    capsys.readouterr()


def test_pol_flag_overrides_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"theta_count": 8, "omega_count": 64,
                                "polarization": "E"}))
    assert cli.main(["phase-diagram", "--pol", "H", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "phase-diagram H" in out and "LH cells 0," in out


def test_topology_is_not_a_config_key(tmp_path, capsys, monkeypatch):
    # every command computes the Mobius closed forms; validate checks the other
    # topologies at fixed sizes itself
    assert len(cli.CONFIG_KEYS) == 20 and "topology" not in cli.CONFIG_KEYS
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(
        '{"topology": "single_ring", "N": 40, "gamma_inv_ns": 0.3}')
    assert cli.main(["validate", "c.json"]) == cli.EXIT_CONFIG_ERROR
    assert "unknown config key: 'topology'" in capsys.readouterr().err
    assert not list(tmp_path.glob("validate.*"))


@pytest.mark.parametrize("gamma_inv_ns", (0.3, 0.51))
def test_validate_overdamped_reports_failed_window_checks(tmp_path, gamma_inv_ns):
    path = tmp_path / "validate.csv"
    cfg = cli.parse_config(json.dumps(
        {"gamma_inv_ns": gamma_inv_ns, "output_path": str(path)}).encode())
    out = io.StringIO()
    assert cli.run_command("validate", cfg, stdout=out) == cli.EXIT_VALIDATION_FAILURE
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    failed = {row[0] for row in rows if row[3] == "0"}
    assert failed == {
        "bandwidth_closed_vs_roots", "simultaneous_negative_window",
        "phase_diagram_E_has_lh_band", "phase_diagram_H_no_lh",
        "lh_band_bounded_by_mu1_zeros", "lh_band_contiguous",
        "surface_hyperbola_residual", "poynting_normal_to_surface",
        "lossy_window_shift", "overdamped_window_empty",
    }
    assert all(row[4] == "overdamped: no mu1 window"
               for row in rows if row[0] in failed)
    # every row without a value reads the same way: NaN, no threshold, failed, the reason
    assert all(row[1:] == ["nan", "", "0", validation.OVERDAMPED]
               for row in rows if row[0] in failed)
    assert "10 checks FAILED" in out.getvalue()


def test_validate_reports_the_same_checks_for_every_ring(tmp_path):
    names = []
    widths = (0.01, 1e5, 1e22, 1e23, 1e24, 1e26, 1e30)
    for extra in ({}, {"gamma_inv_ns": 0.3}, {"n_per_ring": 3},
                  {"n_per_ring": 6, "gamma_inv_ns": 0.6}, {"xi_intra_ev": 1e6},
                  *({"half_width_nm": w} for w in widths),
                  *({"radius_nm": r} for r in (1e-6, 1e6))):
        path = tmp_path / "validate.csv"
        cfg = cli.parse_config(json.dumps({**extra, "output_path": str(path)}).encode())
        cli.run_command("validate", cfg, stdout=io.StringIO())
        names.append([line.split(",")[0] for line in path.read_text().splitlines()[1:]])
    assert len(names[0]) == len(set(names[0])) == 33
    assert names[0] == [check.name for check in validation.CHECKS]
    assert all(other == names[0] for other in names[1:])


@pytest.mark.parametrize("half_width_nm,failed_notes", [
    (0.01, {"lossy_window_shift": validation.NO_LOSSY_LH}),
    (1e5, {"full_sum_vs_single_resonance_eps": validation.NO_DOMINANT_ENTRY,
           "local_field_zero_crossing": validation.NO_ROOT,
           "lossy_window_shift": validation.NO_LOSSY_LH,
           "phase_diagram_E_has_lh_band": validation.NONPOSITIVE_SWEEP,
           "lh_band_contiguous": validation.NONPOSITIVE_SWEEP}),
    (1e30, {"surface_circle_residual": validation.NO_SURFACE}),
    # the yz block of mu is nearly singular in floats (1e22-1e24); at 1e26 its
    # determinant is exactly 0 and the surface below resonance is a line pair
    (1e22, {"poynting_normal_to_surface": validation.NO_TANGENT}),
    (1e23, {"poynting_normal_to_surface": validation.NO_TANGENT}),
    (1e24, {"poynting_normal_to_surface": validation.NO_TANGENT}),
    (1e26, {"surface_circle_residual": validation.NO_SURFACE}),
])
def test_validate_reports_checks_without_a_root_or_sweep_as_failed(
        tmp_path, half_width_nm, failed_notes):
    path = tmp_path / "validate.csv"
    cfg = cli.parse_config(json.dumps(
        {"half_width_nm": half_width_nm, "output_path": str(path)}).encode())
    code = cli.run_command("validate", cfg, stdout=io.StringIO())
    assert code == cli.EXIT_VALIDATION_FAILURE
    rows = {row[0]: row for row in
            (line.split(",") for line in path.read_text().splitlines()[1:])}
    for name, note in failed_notes.items():
        assert rows[name][1:] == ["nan", "", "0", note]


def test_validate_at_an_overflowing_half_width_reports_failed_checks(tmp_path):
    # the largest decade that parse_config accepts; the squared magnetic dyads
    # overflow.  A fresh interpreter that turns numpy's RuntimeWarnings into errors:
    # the dense oracle's norms and phases overflow here, and validate must stay quiet
    (tmp_path / "c.json").write_text('{"half_width_nm": 1e91}')
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mobius_optics",
                           "validate", "c.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_VALIDATION_FAILURE
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "validate: 33 checks" in proc.stdout
    rows = {row[0]: row for row in (line.split(",") for line in
                                    (tmp_path / "validate.csv").read_text().splitlines()[1:])}
    assert len(rows) == 33
    assert rows["magnetic_dyads_vs_dense_eigenvectors"][1:] == [
        "nan", "", "0", validation.OVERFLOW]
    # 18 of the 20 magnetic blocks are NaN: the residual is NaN, not the largest finite one
    assert rows["magnetic_block_calibration"][1:4] == ["nan", "1.0000000000000001e-09", "0"]


def test_validate_with_a_singular_yz_block_runs_without_warnings(tmp_path):
    (tmp_path / "c.json").write_text('{"half_width_nm": 1e26}')
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mobius_optics",
                           "validate", "c.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_VALIDATION_FAILURE
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "FAIL surface_circle_residual: nan" in proc.stdout
    assert "PASS poynting_normal_to_surface" in proc.stdout
    assert "validate: 33 checks" in proc.stdout


IMPORT_GUARD = """
import io, json, os, sys
import mobius_optics
from mobius_optics import cli
small = {"N": 6, "theta_count": 4, "omega_count": 8, "surface_samples": 10}
for command in ("spectrum", "elements", "response", "phase-diagram", "surface",
                "bandwidth", "validate"):
    if command == "validate":
        assert "mobius_optics.bruteforce" not in sys.modules, "the dense oracle was imported"
    path = os.path.join(sys.argv[1], command + ".csv")
    config = cli.parse_config(json.dumps({**small, "output_path": path}))
    code = cli.run_command(command, config, stdout=io.StringIO())
    assert code in (0, cli.EXIT_VALIDATION_FAILURE) and os.path.exists(path), command
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_library_and_every_command_run_without_scipy(tmp_path):
    # a fresh interpreter: other test modules import scipy into this one
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
