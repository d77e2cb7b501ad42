"""The table emitter `cli._table_chunks` against a row-by-row reference formatter.

The reference below formats one value at a time, the way the CLI wrote its
tables before the emitter took columns: `_reference_value` for CSV tokens
and one `json.dumps` of the whole table for JSON.  The joined chunks of a
structured array must be the same bytes for every column type the emitter
accepts, in any column order and whatever `cli.CHUNK_ROWS` is, and
`run_command` must stream those same bytes into its output file, in
bounded memory, or leave no file behind.  The file `phase-diagram` writes
from its `BlockedTable` must equal its flat table (one row per cell, built
below with repeat and tile) through the same emitter.
"""

import errno
import io
import json
import math
import os
import stat
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobius_optics import cli
from mobius_optics.refraction import PhaseDiagram
from mobius_optics.response import MediumConfig

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  5e-324, -5e-324, 2.2250738585072009e-308, 1.0, 0.1, -2.5e8]


def _emit(table, fmt) -> bytes:
    return b"".join(cli._table_chunks(table, fmt))


def _reference_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _reference_table(header, rows, fmt) -> bytes:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(_reference_value(row[col]) for col in header) + "\n")
        return buf.getvalue().encode("utf-8")
    clean = []
    for row in rows:
        item = {}
        for col in header:
            val = row[col]
            if isinstance(val, np.integer):
                val = int(val)
            elif isinstance(val, np.floating):
                val = float(val)
            item[col] = val
        clean.append(item)
    return (json.dumps({"columns": header, "rows": clean},
                       separators=(",", ":")) + "\n").encode("utf-8")


floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_subnormal=True)
texts = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"), max_size=6)
mixed = st.none() | st.integers(-10**6, 10**6) | floats | st.booleans() | texts

# column name: (value strategy, numpy dtype)
COLUMNS = {
    "f": (floats, np.float64),
    "i": (st.integers(-2**63, 2**63 - 1), np.int64),
    "b": (st.booleans(), bool),
    "s": (texts, str),
    "o": (mixed, object),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    values = {name: draw(st.lists(strategy, min_size=n, max_size=n))
              for name, (strategy, _) in COLUMNS.items()}
    table = np.rec.fromarrays(
        [np.array(values[name], dtype=dtype) for name, (_, dtype) in COLUMNS.items()],
        names=list(COLUMNS))
    rows = [{name: values[name][i] for name in COLUMNS} for i in range(n)]
    header = draw(st.permutations(list(COLUMNS)))
    return header, table, rows


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_emit_table_matches_row_reference(drawn, fmt):
    header, table, rows = drawn
    assert _emit(table[header], fmt) == _reference_table(header, rows, fmt)


@pytest.mark.parametrize("chunk_rows", [1, 5])
@settings(max_examples=100, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_emit_table_matches_row_reference_in_small_chunks(chunk_rows, drawn, fmt):
    header, table, rows = drawn
    with mock.patch.object(cli, "CHUNK_ROWS", chunk_rows):
        assert _emit(table[header], fmt) == _reference_table(header, rows, fmt)


def _edge_floats():
    """Values at and next to the decades where `.17g` switches notation or digit count."""
    edges = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17])
    around = [np.nextafter(edges, 0.0), edges, np.nextafter(edges, math.inf)]
    return np.concatenate(around + [-a for a in around])


def test_long_float_columns_match_the_reference_value():
    # far more distinct floats than the hypothesis tables hold, as the first
    # column (the row separator starts its tokens) and as a later one (",")
    rng = np.random.default_rng(20_000)
    values = np.concatenate([np.frombuffer(rng.bytes(8 * 20_000), dtype=np.float64),
                             SPECIAL_FLOATS, _edge_floats()])
    table = np.rec.fromarrays([values, values[::-1]], names=["x", "y"])
    rows = [{"x": x, "y": y} for x, y in zip(values.tolist(), values[::-1].tolist())]
    assert len(np.unique(values.view(np.uint64))) > 20_000
    assert _emit(table, "csv") == _reference_table(["x", "y"], rows, "csv")


def _integral_edges(sign):
    """Integral floats at and next to 2**53, 1e16 and 1e17 of one sign, none
    paired with its negative: "%d" prints them below 1e17, ".17g" from 1e17
    on; and -0.0 without 0.0, which "%d" would print as "0"."""
    edges = np.array([2.0**53, 1e16, 1e17])
    around = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, math.inf)])
    return np.concatenate([sign * around, [-0.0, 1.0, -3.0]])


def _mirrored():
    """Random floats next to their negatives, with +-0.0, +-inf and NaNs with
    and without the sign bit, among them a positive and a negative NaN of the
    same payload, quiet and signalling, which must both print "nan"."""
    rng = np.random.default_rng(53)
    x = np.concatenate([np.frombuffer(rng.bytes(8 * 2_000), dtype=np.float64),
                        (rng.integers(-2**60, 2**60, 500) >> rng.integers(0, 60, 500)).astype(float),
                        rng.standard_normal(500)])
    nans = np.array([0x7FF8000000000001, 0x7FF0000000000001], dtype=np.uint64)
    nans = np.concatenate([nans, nans | np.uint64(1 << 63)]).view(np.float64)
    return np.concatenate([x, -x, [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan], nans])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("values", [_integral_edges(1.0), _integral_edges(-1.0), _mirrored()],
                         ids=["integral-edges", "negative-integral-edges", "mirrored"])
def test_float_shortcuts_match_the_reference_value(values, fmt):
    # each column holds the values once, as the first column (the row
    # separator starts its tokens) and as a later one (","), under a name with a "%"
    header = ["%d", "y%"]
    table = np.rec.fromarrays([values, values[::-1]], names=header)
    rows = [dict(zip(header, row)) for row in zip(values.tolist(), values[::-1].tolist())]
    assert _emit(table, fmt) == _reference_table(header, rows, fmt)


def test_negative_zero_keeps_its_sign():
    table = np.rec.fromarrays([np.array([0.0, -0.0, 0.0])], names=["x"])
    assert _emit(table, "csv") == b"x\n0\n-0\n0\n"
    assert _emit(table, "json") == (
        b'{"columns":["x"],"rows":[{"x":0.0},{"x":-0.0},{"x":0.0}]}\n')


def _serve(monkeypatch, table, command="table"):
    """Make `command` compute the given table."""
    monkeypatch.setitem(cli._COMMANDS, command, lambda config: (table, command, cli.EXIT_OK))


def _run_table(path, fmt):
    """Bytes of the file `run_command` writes for the served table."""
    config = cli.parse_config(json.dumps({"format": fmt, "output_path": str(path)}))
    assert cli.run_command("table", config, stdout=io.StringIO()) == cli.EXIT_OK
    return path.read_bytes()


# strings that the hypothesis tables never draw: an embedded NUL (a numpy `U`
# array keeps it, but drops a trailing one), JSON's ", " item separator,
# quotes, a newline and non-ASCII text
EDGE_TEXTS = ["LH", "a\x00b", ", ", 'q"u\'ote', "line\nbreak", "ünï 日本"]
EDGE_INTS = [-2**63, -2**63 + 1, -5, 0, 5, 2**63 - 2, 2**63 - 1]


def _mixed_table(n):
    """n rows of float, int (at the int64 edges), bool, string and object columns."""
    rng = np.random.default_rng(n)
    values = rng.choice(SPECIAL_FLOATS, n)
    return np.rec.fromarrays([
        values, rng.choice(np.array(EDGE_INTS), n), values > 0,
        np.array(EDGE_TEXTS)[rng.integers(0, len(EDGE_TEXTS), n)],
        np.array([None, 1, 2.5, "x,y", True, *EDGE_TEXTS] * n, dtype=object)[:n],
    ], names=["f", "i", "b", "s", "o"])


C = cli.CHUNK_ROWS


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C + 1])
def test_run_command_writes_emit_table_bytes_at_chunk_boundaries(n, fmt, tmp_path, monkeypatch):
    table = _mixed_table(n)
    header = list(table.dtype.names)
    rows = [dict(zip(header, row)) for row in table.tolist()]
    if n >= C:   # every edge value is drawn
        assert set(table["i"].tolist()) == set(EDGE_INTS)
        assert set(table["s"].tolist()) == set(EDGE_TEXTS) <= set(table["o"].tolist())
    _serve(monkeypatch, table)
    data = _run_table(tmp_path / f"out.{fmt}", fmt)
    assert data == _emit(table, fmt)
    assert data == _reference_table(header, rows, fmt)
    assert [p.name for p in tmp_path.iterdir()] == [f"out.{fmt}"]


def _failing_chunks(exc):
    yield b"first chunk\n"
    raise exc


@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_failure_mid_stream_leaves_no_partial_file(existing, tmp_path):
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(RuntimeError, match="stop"):
        cli._atomic_write(str(path), _failing_chunks(RuntimeError("stop")))
    with pytest.raises(OSError, match="cannot write output file.*No space left"):
        cli._atomic_write(str(path), _failing_chunks(OSError(errno.ENOSPC, "No space left")))
    assert not list(tmp_path.glob(".tmp-*.part"))
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


class _FullDisk(io.FileIO):
    """A file whose every write fails as on a full disk."""

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_failure_in_the_buffered_flush_leaves_no_partial_file(existing, tmp_path, monkeypatch):
    # chunks smaller than the buffer reach the disk only when the file closes
    opened = []

    def fdopen(fd, mode, buffering):
        opened.append(buffering)
        return io.BufferedWriter(_FullDisk(fd, mode), buffering)

    monkeypatch.setattr(cli.os, "fdopen", fdopen)
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(OSError, match="cannot write output file.*No space left"):
        cli._atomic_write(str(path), [b"first chunk\n", b"second chunk\n"])
    assert opened == [cli.WRITE_BUFFER]
    assert not list(tmp_path.glob(".tmp-*.part"))
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


@pytest.mark.parametrize("existing, umask, mode", [
    (None, 0o022, 0o644), (None, 0o077, 0o600),     # a new file: 0o666 less the umask
    (0o600, 0o022, 0o600), (0o664, 0o077, 0o664),   # a replaced file keeps its mode
])
def test_output_file_mode_follows_the_umask(existing, umask, mode, tmp_path):
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(b"old bytes\n")
        path.chmod(existing)
    old = os.umask(umask)
    try:
        cli._atomic_write(str(path), [b"x\n"])
    finally:
        os.umask(old)
    assert path.read_bytes() == b"x\n"
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert os.umask(old) == old


def test_cli_reports_a_write_failure_after_the_first_chunk(tmp_path, monkeypatch, capsys):
    _serve(monkeypatch, _mixed_table(3 * C), command="phase-diagram")
    chunks = cli._table_chunks

    def failing(*args):
        pieces = chunks(*args)
        yield next(pieces)   # the head
        yield next(pieces)   # the first C rows
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_table_chunks", failing)
    path = tmp_path / "out.json"
    path.write_bytes(b"old bytes\n")
    (tmp_path / "c.json").write_text(json.dumps({"format": "json", "output_path": str(path)}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["phase-diagram", "c.json"]) == cli.EXIT_VALIDATION_FAILURE
    assert "cannot write output file" in capsys.readouterr().err
    assert path.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out.json"]


NAMES = ["%", "%s", "%%", "%(x)s", 'q"uote', "back\\slash", "\\u00e9", "ünï", "日本", "tab\t"]


def _structured(names, columns, dtypes):
    """Structured array with the given field names kept verbatim."""
    arrays = [np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)]
    table = np.empty(len(arrays[0]), dtype=[(n, a.dtype) for n, a in zip(names, arrays)])
    for name, array in zip(names, arrays):
        table[name] = array
    return table


def _json_reference(header, columns) -> bytes:
    rows = [dict(zip(header, row)) for row in zip(*columns)]
    return (json.dumps({"columns": header, "rows": rows}, separators=(",", ":"))
            + "\n").encode("utf-8")


@pytest.mark.parametrize("chunk_rows", [1, C])
def test_json_keys_are_escaped_like_json_dumps(chunk_rows):
    columns = [[0.5, -1.0, math.inf], [1, 2, 3], [True, False, True], ["a", "%", '"'],
               [None, "x", 2.5], [0.0, -0.0, 1e-300], [7, 8, 9], [False] * 3,
               ["ü", "\\", "%%"], [1.5, 2.5, 3.5]]
    dtypes = [float, int, bool, str, object, float, int, bool, str, float]
    table = _structured(NAMES, columns, dtypes)
    with mock.patch.object(cli, "CHUNK_ROWS", chunk_rows):
        data = _emit(table, "json")
    assert data == _json_reference(NAMES, columns)
    assert json.loads(data)["columns"] == NAMES


@settings(max_examples=100, deadline=None)
@given(st.lists(texts.filter(bool), min_size=1, max_size=4, unique=True), st.integers(0, 3))
def test_json_keys_match_json_dumps_for_any_name(names, n):
    columns = [[float(i + j) for j in range(n)] for i in range(len(names))]
    table = _structured(names, columns, [float] * len(names))
    assert _emit(table, "json") == _json_reference(names, columns)


LABELS = np.array(["LH", "TR", "RH", "masked"], dtype="U6")   # codes -1, 0, 1, 2


def _flat_table(config) -> np.ndarray:
    """Reference `phase-diagram` table: one row per (theta, omega) cell."""
    medium = MediumConfig(config.ring, lossy=False)
    thetas, omegas = cli._theta_grid(config), cli._omega_grid(config, medium.resonance)
    codes = cli.phase_diagram(medium, config.polarization, thetas, omegas).codes.ravel()
    return np.rec.fromarrays([
        np.repeat(np.degrees(thetas), len(omegas)), np.tile(omegas, len(thetas)),
        np.tile(omegas - medium.resonance.delta0, len(thetas)), codes, LABELS[codes + 1],
    ], names=["theta_deg", "omega_rad_s", "detuning_rad_s", "code", "label"])


def _flat_phase_diagram(config) -> bytes:
    """Reference `phase-diagram` bytes: the flat table through the emitter."""
    return _emit(_flat_table(config), config.format)


def _random_codes(seed):
    """Stand-in for `phase_diagram` whose cells carry random codes in {-1, 0, 1, 2}."""
    def fake(medium, pol, theta, omega):
        codes = np.random.default_rng(seed).integers(-1, 3, (len(theta), len(omega)))
        return PhaseDiagram(pol, theta, omega, codes.astype(np.int8))
    return fake


def _run_codes(layout, width):
    """Stand-in for `phase_diagram` whose theta row i is code row ``layout[i]`` of a pool.

    The pool holds ``max(layout) + 1`` code rows of `width` cells that differ
    only in their first and last cells, so every piece between those two
    repeats from row to row, as a classifier's theta rows repeat in runs.
    """
    base = np.random.default_rng(width).integers(0, 4, width)
    pool = np.repeat(base[None], max(layout) + 1, axis=0)
    for k, row in enumerate(pool):
        row[[0, -1]] = (base[[0, -1]] + k) % 4
    codes = (pool[layout] - 1).astype(np.int8)

    def fake(medium, pol, theta, omega):
        assert codes.shape == (len(theta), len(omega))
        return PhaseDiagram(pol, theta, omega, codes)
    return fake


def _phase_diagram_bytes(grid, pol, fmt, chunk_rows, fake):
    """The file `run_command` writes and its flat reference, with `fake` as `phase_diagram`."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "phase_diagram", fake), \
            mock.patch.object(cli, "CHUNK_ROWS", chunk_rows):
        path = Path(tmp) / f"pd.{fmt}"
        config = cli.parse_config(json.dumps({
            "theta_count": grid[0], "omega_count": grid[1], "theta_max_deg": 80.0,
            "polarization": pol, "format": fmt, "output_path": str(path)}))
        assert cli.run_command("phase-diagram", config, stdout=io.StringIO()) == cli.EXIT_OK
        return path.read_bytes(), _flat_phase_diagram(config)


def _chunk_rows(chunk, width):
    """`CHUNK_ROWS` named relative to a width of `width` cells."""
    return {"1": 1, "5": 5, "n-1": max(width - 1, 1), "n+1": width + 1,
            "C": cli.CHUNK_ROWS}[chunk]


grids = st.tuples(st.integers(1, 9), st.integers(1, 9))


@pytest.mark.filterwarnings("ignore:omega grid spacing:UserWarning")
@settings(max_examples=150, deadline=None)
@given(grids, st.sampled_from(["E", "H"]), st.sampled_from(["csv", "json"]),
       st.sampled_from(["1", "5", "n-1", "n+1", "C"]), st.none() | st.integers(0, 2**32))
@example((1, 1), "E", "csv", "1", None)
@example((1, 7), "H", "json", "n-1", 3)
@example((7, 1), "E", "json", "n+1", 4)
def test_phase_diagram_file_matches_the_flat_table(grid, pol, fmt, chunk, seed):
    fake = cli.phase_diagram if seed is None else _random_codes(seed)
    data, reference = _phase_diagram_bytes(grid, pol, fmt, _chunk_rows(chunk, grid[1]), fake)
    assert data == reference


# (theta, omega) grids at the default chunk size: theta rows one short of, equal
# to and one past a chunk, chunks of many theta rows with a short last chunk,
# and theta rows split into pieces
CHUNK_GRIDS = [(3, C - 1), (3, C), (3, C + 1), (C + 1, 1), (2 * C + 3, 2),
               (5, C // 2 + 1), (3, 2 * C + 1)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", CHUNK_GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_phase_diagram_file_matches_the_flat_table_at_chunk_edges(grid, fmt):
    fake = _random_codes(grid[0] * grid[1])
    data, reference = _phase_diagram_bytes(grid, "E", fmt, cli.CHUNK_ROWS, fake)
    assert data == reference
    codes = fake(None, None, range(grid[0]), range(grid[1])).codes
    assert set(np.unique(codes)) == {-1, 0, 1, 2}


# theta rows as pool indices: one row throughout; runs of three rows; and
# rows 2 and 3 equal to the row two above them but not to the row just above
LAYOUTS = {"one": [0] * 5, "runs": [0, 0, 1, 1, 1, 2, 2], "aba": [0, 1, 0, 1, 1, 0]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("chunk", ["1", "5", "n-1", "n+1", "C"])
@pytest.mark.parametrize("width", [2, 7, C, C + 1, 2 * C + 1])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_phase_diagram_file_matches_the_flat_table_when_theta_rows_repeat(
        layout, width, chunk, fmt):
    fake = _run_codes(LAYOUTS[layout], width)
    grid = (len(LAYOUTS[layout]), width)
    data, reference = _phase_diagram_bytes(grid, "E", fmt, _chunk_rows(chunk, width), fake)
    assert data == reference


def _traced_peak(run) -> int:
    """Peak bytes tracemalloc sees during a second call of `run` (the first warms caches)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [(64, 128), (256, 512)])
def test_phase_diagram_write_allocates_bounded_bytes_per_row(grid, fmt, tmp_path, monkeypatch):
    # the flat emitter on a structured phase-diagram table: the file holds 54
    # (CSV) to 122 (JSON) B/row of text, the table 49 B/row
    table = _flat_table(cli.parse_config(json.dumps(
        {"theta_count": grid[0], "omega_count": grid[1]})))
    _serve(monkeypatch, table)
    path = tmp_path / f"out.{fmt}"
    config = cli.parse_config(json.dumps({"format": fmt, "output_path": str(path)}))
    peak = _traced_peak(lambda: cli.run_command("table", config, stdout=io.StringIO()))
    assert len(table) == grid[0] * grid[1]
    assert path.stat().st_size > table.nbytes
    assert peak < 3 * table.nbytes + 2**20, f"{peak / len(table):.0f} B/row"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [(64, 128), (256, 512)])
def test_phase_diagram_command_allocates_less_than_one_float_grid(grid, fmt, tmp_path):
    # the whole command, classifier included: below 8 B/cell, one float per cell
    path = tmp_path / f"pd.{fmt}"
    config = cli.parse_config(json.dumps({"theta_count": grid[0], "omega_count": grid[1],
                                          "format": fmt, "output_path": str(path)}))
    peak = _traced_peak(lambda: cli.run_command("phase-diagram", config, stdout=io.StringIO()))
    n = grid[0] * grid[1]
    assert path.read_bytes().count(b"LH") > 0
    assert peak < 8 * n + 2**20, f"{peak / n:.1f} B/row"
