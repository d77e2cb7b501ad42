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
    assert cli.parse_config(b'{"N": 4096}').ring.n_per_ring == cli.MAX_N_PER_RING == 4096
    with pytest.raises(cli.ConfigError, match="n_per_ring must be <= 4096"):
        cli.parse_config(b'{"N": 4097}')
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
    # integer keys beyond the float range: float(N) overflows, numpy refuses the grid sizes
    *(pytest.param('{"%s": 1%s}' % (key, "0" * 400), f"{name} must be finite",
                   id=f"{key}-int-beyond-float-range")
      for key, name in (("N", "n_per_ring"), ("theta_count", "theta_count"),
                        ("omega_count", "omega_count"), ("surface_samples", "surface_samples"))),
    # a numpy MemoryError in `spectrum` before the cap
    ('{"N": 10000000000000000}', "n_per_ring must be <= 4096"),
    # a numpy MemoryError from a 745 GiB or 7.28 TiB grid before the caps
    ('{"theta_count": 65537}', "theta_count must be <= 65536"),
    ('{"omega_count": 100000000000}', "omega_count must be <= 65536"),
    ('{"surface_samples": 1000000000000}', "surface_samples must be <= 65536"),
    # more surface rows than the three default detunings give at the sample cap
    ('{"surface_detunings_ev": [-1, 1, 2, 3], "surface_samples": 49153}',
     "surface_detunings_ev: its length times surface_samples must be <= 196608"),
    ('{"volume_convention": "sphere"}', "volume_convention must be cylinder_4w or cylinder_2w"),
    ('{"surface_detunings_ev": [NaN]}', "surface_detunings_ev must be finite"),
    ('{"eps_onsite_ev": 0.5}', "unknown config key: 'eps_onsite_ev'"),
    ('{"half_width_nm": 1e-300}', "half_width_nm .* finite molecular volume > 0"),
    # positive in nm, 0 in meters
    ('{"half_width_nm": 1e-320}', "half_width_nm must be > 0 in meters"),
    ('{"radius_nm": 1e-320}', "radius_nm must be > 0 in meters"),
    ('{"half_width_nm": 1e300}', "half_width_nm .* finite molecular volume > 0"),
    ('{"xi_intra_ev": 1e100}', "v_inter_ev, xi_intra_ev, half_width_nm .* finite bandwidth"),
    ('{"v_inter_ev": 1e100}', "v_inter_ev, xi_intra_ev, half_width_nm .* finite bandwidth"),
    # finite for the configured 4W cylinder; the bandwidth command's 2W cylinder overflows
    ('{"N": 3, "v_inter_ev": 1e73}', "v_inter_ev, xi_intra_ev, half_width_nm .* finite bandwidth"),
    ('{"xi_intra_ev": 1e300}', "v_inter_ev, xi_intra_ev, half_width_nm .* critical lifetime"),
    # the level energies overflow, and their difference is inf - inf (no RuntimeWarning)
    ('{"xi_intra_ev": 1e308}', "v_inter_ev, xi_intra_ev, half_width_nm .* critical lifetime"),
    ('{"v_inter_ev": 1e308, "xi_intra_ev": 1e308}',
     "v_inter_ev, xi_intra_ev, half_width_nm .* critical lifetime"),
    ('{"gamma_inv_ns": 1e-200}', "gamma_inv_ns must give a finite bandwidth"),
    # the level spacing of 1e300 eV overflows in rad/s
    ('{"v_inter_ev": 1e300, "radius_nm": 1e-300}', "v_inter_ev and xi_intra_ev must give a finite "
                                                    "resonance frequency"),
    ('{"gamma_inv_ns": 1e-300}', "gamma_inv_ns must give a finite decay rate"),
    # the lifetime in seconds rounds to 0
    ('{"gamma_inv_ns": 5e-324}', "gamma_inv_ns must give a finite decay rate"),
    # eta on resonance overflows (1e304), or 5 eta does (1e303)
    ('{"gamma_inv_ns": 1e304}', "gamma_inv_ns must give a finite response"),
    ('{"gamma_inv_ns": 1e303}', "gamma_inv_ns must give a finite response"),
    # tau_c is finite in seconds (2e302 s) but not in ns
    ('{"half_width_nm": 1e45, "radius_nm": 1e-135}', "half_width_nm .* critical lifetime > 0"),
    # the denominator of tau_c overflows, so it evaluates to 0
    ('{"half_width_nm": 1e100}', "half_width_nm .* critical lifetime > 0"),
    ('{"N": 3, "N": 5}', "config key given twice: 'N'"),
    ('{"N": 3, "n_per_ring": 5}', r"config key given twice \(via alias\): 'n_per_ring'"),
    ('{"output_path": ""}', "output_path must be a non-empty string"),
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


@pytest.mark.parametrize("command", ("phase-diagram", "response"))
@pytest.mark.parametrize("extra,fix", [
    # 10 bandwidths reach below omega = 0
    ({"v_inter_ev": 1e6}, "reduce the default half-span, 3.39651e+21 rad/s (10 bandwidths), "
                          "by setting omega_span_ev or omega_span_rad_s, or change omega_center_ev"),
    # 10 bandwidths are below the float spacing at the resonance
    ({"xi_intra_ev": 1e45, "v_inter_ev": 1e-17, "half_width_nm": 1e-80},
     "widen the default half-span, 3.39507e+19 rad/s (10 bandwidths), "
     "by setting omega_span_ev or omega_span_rad_s, or reduce omega_count"),
])
def test_default_sweep_errors_name_the_default_span_and_both_span_keys(
        tmp_path, capsys, monkeypatch, command, extra, fix):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(extra))
    assert cli.main([command, "c.json"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: omega") and err.rstrip().endswith(fix)
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("command,extra,keys", [
    # each a numpy MemoryError from a 745 GiB or 7.28 TiB linspace before the caps
    ("response", {"omega_count": 10**11}, ("omega_count",)),
    ("phase-diagram", {"theta_count": 10**12}, ("theta_count",)),
    ("phase-diagram", {"omega_count": 10**12}, ("omega_count",)),
    ("surface", {"surface_samples": 10**12}, ("surface_samples",)),
    # 1000 detunings at the default 200 samples: 200,000 surface rows
    ("surface", {"surface_detunings_ev": [0.5] * 1000}, ("surface_detunings_ev",)),
    # both counts within their cap, the grid one theta row above MAX_GRID_CELLS
    ("phase-diagram", {"theta_count": 2049, "omega_count": 2048}, ("theta_count", "omega_count")),
])
def test_huge_counts_are_config_errors_naming_the_key(
        tmp_path, capsys, monkeypatch, command, extra, keys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(extra))
    assert cli.main([command, "c.json"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and all(key in err for key in keys)
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_count_caps_admit_every_size_in_use(tmp_path):
    caps = {key: cli.MAX_SWEEP_POINTS for key in ("theta_count", "omega_count", "surface_samples")}
    assert cli.parse_config(json.dumps(caps)).surface_samples == cli.MAX_SWEEP_POINTS == 65536
    # as many surface rows as the three default detunings give at the sample cap
    rows = {"surface_detunings_ev": [-1, 1, 2, 3], "surface_samples": 49152}
    assert cli.parse_config(json.dumps(rows)).surface_samples * 4 == 3 * cli.MAX_SWEEP_POINTS
    # the defaults, the benchmark's 4096-point sweep, the README's 1024 x 1024 grid and
    # the largest grids: square, and one MAX_SWEEP_POINTS wide
    for theta, omega in ((256, 512), (1, 4096), (1024, 1024), (2048, 2048), (64, 65536)):
        config = cli.parse_config(json.dumps({"theta_count": theta, "omega_count": omega}))
        assert len(cli._theta_grid(config)) == theta
    # `response` reads no theta key, so a grid above the cell cap is no error there
    path = tmp_path / "r.csv"
    config = cli.parse_config(json.dumps(
        {"theta_count": 65536, "omega_count": 128, "output_path": str(path)}))
    assert config.theta_count * config.omega_count > cli.MAX_GRID_CELLS
    assert cli.run_command("response", config, stdout=io.StringIO()) == cli.EXIT_OK
    assert len(path.read_text().splitlines()) == 129
    with pytest.raises(cli.ConfigError, match=r"theta_count \* omega_count must be <= 4194304"):
        cli.run_command("phase-diagram", config, stdout=io.StringIO())


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_underflowing_radius_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # a and b underflow to 0, so the critical lifetime divides by zero
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text('{"radius_nm": 1e-300}')
    assert cli.main([command, "c.json"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "radius_nm" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("extra,keys", [
    # the span is below one ulp of omega: linspace repeats values
    ({"omega_span_rad_s": 3e-10}, ("omega_span_rad_s", "omega_count")),
    ({"theta_min_deg": 10, "theta_max_deg": 10, "theta_count": 2},
     ("theta_min_deg", "theta_max_deg", "theta_count")),
    ({"theta_min_deg": 10, "theta_max_deg": 10.000000000000002, "theta_count": 5},
     ("theta_min_deg", "theta_max_deg", "theta_count")),
])
def test_phase_diagram_grid_that_repeats_values_is_a_config_error(
        tmp_path, capsys, monkeypatch, extra, keys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(extra))
    assert cli.main(["phase-diagram", "c.json"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "strictly increasing" in err
    assert all(key in err for key in keys)
    assert not list(tmp_path.glob("*.csv"))


# theta_min_deg, theta_max_deg, and the theta_deg text of every row of a one-theta diagram
ONE_THETA = [
    (0.0, 0.0, "0"), (30.0, 60.0, "29.999999999999996"), (45.5, 45.5, "45.5"),
    (89.9, 89.9, "89.900000000000006"), (1e-300, 10.0, "1e-300"),
    (17.3, 80.0, "17.300000000000001"), (60.0, 89.0, "59.999999999999993"),
]


@pytest.mark.parametrize("theta_min,theta_max,text", ONE_THETA)
def test_phase_diagram_with_one_theta_writes_theta_min_deg(tmp_path, theta_min, theta_max, text):
    path = tmp_path / "pd.csv"
    # the sweep lies off resonance, so no coarse-grid warning
    cfg = cli.parse_config(json.dumps({
        "theta_count": 1, "theta_min_deg": theta_min, "theta_max_deg": theta_max,
        "omega_count": 8, "omega_center_ev": 5.0, "output_path": str(path)}))
    assert cli.run_command("phase-diagram", cfg, stdout=io.StringIO()) == 0
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 8 and {row.split(",")[0] for row in rows} == {text}


def test_one_theta_grid_is_theta_min_in_radians_bit_for_bit():
    rng = np.random.default_rng(1)
    base = cli.parse_config(json.dumps({"theta_count": 1}))
    lows = np.concatenate([rng.uniform(0.0, 89.9, 2000), 10.0 ** rng.uniform(-300, 1, 500)])
    for low in lows.tolist():
        config = cli.RunConfig(**{**base.__dict__, "theta_min_deg": low,
                                  "theta_max_deg": min(89.9, 2.0 * low)})
        grid = cli._theta_grid(config)
        assert grid.tobytes() == np.array([math.radians(low)]).tobytes(), low


@pytest.mark.parametrize("detuning", [-1e3, 1e300])
def test_surface_detuning_outside_positive_finite_omega_is_a_config_error(
        tmp_path, capsys, monkeypatch, detuning):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"surface_detunings_ev": [detuning]}))
    assert cli.main(["surface", "c.json"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: surface_detunings_ev") and "positive and finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_emit_table_header_only_for_empty_rows():
    table = np.empty(0, dtype=[("a", float), ("b", int)])
    assert b"".join(cli._table_chunks(table, "csv")) == b"a,b\n"
    assert b"".join(cli._table_chunks(table, "json")) == b'{"columns":["a","b"],"rows":[]}\n'


def test_emit_table_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 7.445334050718708, 1e-300, -2.5e8]
    table = np.rec.fromarrays([values], names=["x"])
    data = b"".join(cli._table_chunks(table, "csv")).decode()
    parsed = [float(line) for line in data.splitlines()[1:]]
    assert parsed == values
    as_json = b"".join(cli._table_chunks(table, "json"))
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


@pytest.mark.parametrize("command,extra", (
    ("phase-diagram", {"theta_count": 16, "omega_count": 64}),
    ("surface", {"surface_samples": 40}),
))
def test_lossy_is_noted_and_leaves_the_file_alone(tmp_path, capsys, command, extra):
    # both commands use the lossless response whatever lossy says
    path, blobs, outs = tmp_path / "out.csv", [], []
    for lossy in (False, True):
        cfg = cli.parse_config(json.dumps(
            {**extra, "lossy": lossy, "output_path": str(path)}).encode())
        assert cli.run_command(command, cfg) == 0
        blobs.append(path.read_bytes())
        outs.append(capsys.readouterr().out)
    assert blobs[0] == blobs[1]
    note = "; lossy ignored: the lossless response was used"
    assert note not in outs[0]
    assert outs[1] == outs[0].replace("\n", note + "\n", 1)   # the summary is the first line


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


@pytest.mark.parametrize("text,message", [
    (b"\xff\xfe{}", "not UTF-8"),
    (b'{"N": 3, "N": 5}', "given twice: 'N'"),
    (b'{"output_path": ""}', "output_path"),
])
def test_main_reports_bad_configs_from_a_file_and_stdin(tmp_path, capsys, monkeypatch, text,
                                                        message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(text)
    assert cli.main(["spectrum", "bad.json"]) == cli.EXIT_CONFIG_ERROR
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
    assert cli.main(["spectrum", "-"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: ") and message in line
                                 for line in err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_null_output_path_is_the_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.parse_config(b'{"output_path": null}').output_path is None
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b'{"output_path": null}')))
    assert cli.main(["spectrum", "-"]) == cli.EXIT_OK
    assert (tmp_path / "spectrum.csv").exists()
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
                  {"xi_intra_ev": 1e-150}, {"xi_intra_ev": 1e-290},
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


def test_validate_at_the_largest_half_width_passes_the_dense_checks(tmp_path):
    # the largest decade that parse_config accepts, where the squared magnetic dyads and
    # the block overlaps would overflow as given.  A fresh interpreter that turns numpy's
    # RuntimeWarnings into errors: the dense checks run at a canonical ring, where no
    # product overflows, and validate must stay quiet
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
    assert all(rows[check.name][3] == "1" for check in validation.DENSE_CHECKS)


def _validate_rows(tmp_path, config):
    """Exit code and the CSV rows by name of `validate` on ``config``."""
    path = tmp_path / "validate.csv"
    cfg = cli.parse_config(json.dumps({**config, "output_path": str(path)}).encode())
    code = cli.run_command("validate", cfg, stdout=io.StringIO())
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [check.name for check in validation.CHECKS]
    return code, {row[0]: row for row in rows}


@pytest.mark.parametrize("half_width_nm", (1e-60, 1e-67, 1e-71, 1e-100))
def test_validate_at_an_underflowing_half_width_keeps_the_dipole_checks(tmp_path, half_width_nm):
    # the squared magnetic elements, and the products in the block overlaps, would
    # underflow as given: at the canonical ring the relative checks hold as at any width
    _, rows = _validate_rows(tmp_path, {"half_width_nm": half_width_nm, "radius_nm": 1.0})
    for name in ("electric_dyads_vs_dense_eigenvectors", "magnetic_dyads_vs_dense_eigenvectors",
                 "electric_block_calibration", "magnetic_block_calibration"):
        assert rows[name][3] == "1", rows[name]


MAGNETIC_ROWS = ("magnetic_table_vs_numeric", "magnetic_dyads_vs_dense_eigenvectors",
                 "magnetic_block_calibration", "commutator_vs_bond_current")
PERFECT_RING_ROWS = ("perfect_ring_commutator", "perfect_ring_offdiag_magnetic")
# the rows whose unit is e xi R W / hbar at the Mobius and periodic rings, whose energy
# unit is max(V, xi): it underflows to 0 where xi / V is below about 1e-267
XI_SCALE_ROWS = ("selection_rule_sparsity", "annulene_shared_transitions",
                 "mobius_shared_transition")
PHASE_DIAGRAM_ROWS = ("phase_diagram_E_has_lh_band", "phase_diagram_H_no_lh",
                      "lh_band_bounded_by_mu1_zeros", "lh_band_contiguous")
LOSSY_SWEEP_ROWS = ("lossy_window_shift", "overdamped_window_empty")


@pytest.mark.parametrize("config,passing", [
    # as given, the dense rings' radius N W / pi would leave every numeric magnetic
    # element 0, and the shared-transition strengths 0 / 0
    ({"half_width_nm": 1e-150, "radius_nm": 1e30},
     MAGNETIC_ROWS + XI_SCALE_ROWS + PERFECT_RING_ROWS),
    # the perfect ring's scales (e xi R^2 / hbar) xi and e xi R^2 / hbar would underflow
    # to 0 in eV; the single ring's energy unit is xi
    ({"xi_intra_ev": 1e-150}, PERFECT_RING_ROWS),
    ({"xi_intra_ev": 1e-300}, PERFECT_RING_ROWS),
])
def test_validate_runs_the_dense_checks_at_a_canonical_ring(tmp_path, config, passing):
    _, rows = _validate_rows(tmp_path, config)
    for name in passing:
        assert rows[name][3] == "1", rows[name]


@pytest.mark.parametrize("config,failed_notes", [
    ({"xi_intra_ev": 1e-300}, dict.fromkeys(XI_SCALE_ROWS, validation.UNDERFLOW)),
    # 20 bandwidths, and the 4 of the lossy sweep, are below the float spacing at the
    # resonance: both sweeps repeat values
    ({"v_inter_ev": 1e30, "half_width_nm": 1e-60},
     dict.fromkeys(PHASE_DIAGRAM_ROWS + LOSSY_SWEEP_ROWS, validation.REPEATED_SWEEP)),
    ({"half_width_nm": 1e-60, "gamma_inv_ns": 1e60},
     dict.fromkeys(PHASE_DIAGRAM_ROWS + LOSSY_SWEEP_ROWS, validation.REPEATED_SWEEP)),
])
def test_validate_reports_checks_beyond_float_range_as_failed(tmp_path, config, failed_notes):
    code, rows = _validate_rows(tmp_path, config)
    assert code == cli.EXIT_VALIDATION_FAILURE
    for name, note in failed_notes.items():
        assert rows[name][1:] == ["nan", "", "0", note]


def test_validate_fails_a_calibration_residual_above_its_threshold(tmp_path, monkeypatch):
    # one closed-form block off by 1e-4 of its entry: the block fit misses, and the
    # row fails against its 1e-9 threshold while validate runs on
    table = validation.dp.magnetic_table

    def corrupted(params):
        out = table(params).copy()
        out[0, params.n_per_ring] *= 1.0 + 1e-4   # (0, down) to (0, up)
        return out

    monkeypatch.setattr(validation.dp, "magnetic_table", corrupted)
    code, rows = _validate_rows(tmp_path, {})
    assert code == cli.EXIT_VALIDATION_FAILURE
    assert 1e-6 < float(rows["magnetic_block_calibration"][1]) < 1e-3
    assert rows["magnetic_block_calibration"][3] == "0"
    assert rows["electric_block_calibration"][3] == "1"


@pytest.mark.parametrize("config", [
    # the resonant term of the full Kubo sum overflows 50 linewidths above resonance
    {"half_width_nm": 1e90, "gamma_inv_ns": 1e210},
    # the lossy sweep: (omega / c)^2 overflows at a resonance near 1e135 rad/s
    {"v_inter_ev": 1e120, "radius_nm": 1e-80},
    # the lossy sweep: det eps_xx overflows at a lifetime of 1e140 ns
    {"half_width_nm": 1e-60, "gamma_inv_ns": 1e140},
    # the lossy sweep: the yz determinant overflows at a lifetime of 1e230 ns
    {"half_width_nm": 1e-50, "gamma_inv_ns": 1e230},
])
def test_validate_with_overflowing_responses_runs_without_warnings(tmp_path, config):
    code, _ = _validate_rows(tmp_path, config)
    assert code == cli.EXIT_VALIDATION_FAILURE


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
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_library_and_every_command_run_without_scipy(tmp_path):
    # a fresh interpreter: other test modules import scipy into this one
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
