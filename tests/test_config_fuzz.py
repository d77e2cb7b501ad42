"""Random configurations through `parse_config` and every subcommand.

Each example draws a JSON configuration, valid keys with values from sane
to absurd (wrong types, NaN, zero, negative, overflowing), and runs it the
way `cli.main` does.  Every run must end as a config error (exit 2) or
write a complete table (exit 0, or 1 for a failed `validate`), with no
traceback and no stray warning.  The written file is parsed back: a CSV
holds its header plus the row count the `wrote ...` line reports, a JSON
file that many rows, and a `validate` table the names of all
`validation.CHECKS` in order.  Sane grids stay small (N <= 64, at most 40
points per sweep, at most 200 surface samples) so the test runs in a
few seconds; an absurd count is junk, a small integer or an integer
above its cap (`cli.MAX_N_PER_RING`, `cli.MAX_SWEEP_POINTS`), which is a
config error.  Every config error names a key the configuration sets, or
says that it used a default: a default sweep that leaves the positive range
once named `omega_span_rad_s`, which the configuration did not set.  Two
examples overflow the level energies, whose difference once leaked a numpy
RuntimeWarning before the config error.
"""

import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mobius_optics import cli, validation

junk = st.sampled_from([None, True, "1", [1.0], {}]) | st.floats() | st.integers(-10**400, 10**400)
magnitudes = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300))
absurd = magnitudes | junk


def counts(cap):
    """A grid or ring size: small integers, integers above `cap`, or junk that is not an int."""
    return (st.integers(-1, 2) | st.integers(cap + 1, 10**400)
            | junk.filter(lambda v: type(v) is not int))


# key: (sane values, absurd values)
KEYS = {
    "n_per_ring": (st.integers(3, 64), counts(cli.MAX_N_PER_RING)),
    "v_inter_ev": (st.floats(0.1, 10), absurd),
    "xi_intra_ev": (st.floats(0.1, 10), absurd),
    "half_width_nm": (st.floats(0.005, 1.0), absurd),
    "radius_nm": (st.floats(0.1, 10), absurd),
    "gamma_inv_ns": (st.floats(0.1, 20), absurd),
    "volume_convention": (st.sampled_from(["cylinder_4w", "cylinder_2w"]), absurd),
    "lossy": (st.booleans(), absurd),
    "theta_min_deg": (st.floats(0, 89), absurd),
    "theta_max_deg": (st.floats(0, 89.9), absurd),
    "theta_count": (st.integers(1, 8), counts(cli.MAX_SWEEP_POINTS)),
    "omega_center_ev": (st.floats(0.1, 20), absurd),
    "omega_span_ev": (st.floats(1e-6, 1), absurd),
    "omega_span_rad_s": (st.floats(1e6, 1e13), absurd),
    "omega_count": (st.integers(1, 40), counts(cli.MAX_SWEEP_POINTS)),
    "polarization": (st.sampled_from(["E", "H"]), absurd),
    "surface_detunings_ev": (st.lists(st.floats(-2, 2) | magnitudes, min_size=1, max_size=3),
                             absurd),
    "surface_samples": (st.integers(10, 200), counts(cli.MAX_SWEEP_POINTS)),
    "format": (st.sampled_from(["csv", "json"]), absurd),
}


@st.composite
def configs(draw):
    """Any subset of the keys with sane values, then up to two of them made absurd."""
    raw = draw(st.fixed_dictionaries({}, optional={k: sane for k, (sane, _) in KEYS.items()}))
    for key in draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=2, unique=True)):
        raw[key] = draw(KEYS[key][1])
    return raw


WROTE = re.compile(r"^wrote (.*) \((\d+) rows\)$", re.MULTILINE)


def _run(command, raw, path):
    """Exit code, stdout and config error text of `command` on the JSON text of `raw`,
    as `cli.main` runs it."""
    out = io.StringIO()
    try:
        config = cli.parse_config(json.dumps({**raw, "output_path": str(path)}))
        return cli.run_command(command, config, stdout=out), out.getvalue(), None
    except cli.ConfigError as exc:
        return cli.EXIT_CONFIG_ERROR, out.getvalue(), str(exc)


def _names_a_set_key_or_a_default(message, raw):
    """Whether a config error names a key that `raw` sets, or says that it used a default."""
    return "default" in message or any(re.search(rf"\b{key}\b", message) for key in raw)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(cli._COMMANDS)), configs())
@example("spectrum", {"xi_intra_ev": 1e308})
@example("response", {"v_inter_ev": 1e308, "xi_intra_ev": 1e308})
@example("response", {"v_inter_ev": 1e6})
@example("phase-diagram", {"v_inter_ev": 1e6})
def test_every_config_ends_in_a_table_or_a_config_error(command, raw):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "out"
        code, stdout, error = _run(command, raw, path)
        files = [p.name for p in Path(tmp).iterdir()]
        data = path.read_bytes() if files == ["out"] else None
    # the coarse-grid warning is the one expected warning: a sweep of at most
    # 40 points cannot resolve the mu1 < 0 window
    assert all(issubclass(w.category, UserWarning) and "cannot resolve" in str(w.message)
               for w in caught), [str(w.message) for w in caught]
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION_FAILURE, cli.EXIT_CONFIG_ERROR)
    if code == cli.EXIT_CONFIG_ERROR:
        assert files == [] and stdout == ""
        assert _names_a_set_key_or_a_default(error, raw), (error, raw)
        return
    assert code == cli.EXIT_OK or command == "validate"
    assert files == ["out"]
    (written, rows), = WROTE.findall(stdout)
    assert written == str(path)
    text = data.decode("utf-8")
    if raw.get("format", "csv") == "csv":
        lines = text.split("\n")
        assert lines[-1] == "" and len(lines) == int(rows) + 2
        header, *table = [line.split(",") for line in lines[:-1]]
        assert all(len(row) == len(header) for row in table)
        rows = [dict(zip(header, row)) for row in table]
    else:
        table = json.loads(text)
        assert len(table["rows"]) == int(rows)
        assert all(list(row) == table["columns"] for row in table["rows"])
        rows = table["rows"]
    if command == "validate":
        assert [row["name"] for row in rows] == [check.name for check in validation.CHECKS]
