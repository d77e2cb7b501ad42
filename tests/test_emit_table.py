"""`cli.emit_table` against a row-by-row reference formatter.

The reference below formats one value at a time, the way the CLI wrote its
tables before the emitter took columns: `_reference_value` for CSV tokens
and one `json.dumps` of the whole table for JSON.  The columnar emitter
must produce the same bytes for every column type it accepts.
"""

import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mobius_optics import cli

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  5e-324, -5e-324, 2.2250738585072009e-308, 1.0, 0.1, -2.5e8]


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
    assert cli.emit_table(header, table, fmt) == _reference_table(header, rows, fmt)


def test_negative_zero_keeps_its_sign():
    table = np.rec.fromarrays([np.array([0.0, -0.0, 0.0])], names=["x"])
    assert cli.emit_table(["x"], table, "csv") == b"x\n0\n-0\n0\n"
    assert cli.emit_table(["x"], table, "json") == (
        b'{"columns":["x"],"rows":[{"x":0.0},{"x":-0.0},{"x":0.0}]}\n')
