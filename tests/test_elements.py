"""The `elements` command against a dense reference.

`_dense_elements` below is the table `elements` wrote when it stacked both
full (2N, 2N, 3) dipole tables: transpose to [kind, from, to], take the
magnitudes, keep each kind's entries above 1e-13 of its largest magnitude
and list them in `np.nonzero` order.  The command must write the same CSV
and JSON bytes and print the same summary line for every ring that
`parse_config` accepts, aliased small rings (N = 3, 4) included.  The
command itself builds only the allowed-block entries, so its memory grows
as its output, and it never builds a full table.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mobius_optics import cli
from mobius_optics import dipole as dp
from mobius_optics.ring import BANDS, label_axes

_KIND_NAMES = np.array([k.value for k in dp.KINDS])
_BAND_NAMES = np.array([b.value for b in BANDS])


def _dense_elements(config):
    """(table, summary) of `elements`, built from the two full dipole tables."""
    n = config.ring.n_per_ring
    band, ell = label_axes(n)
    vecs = np.stack([dp.electric_table(config.ring),
                     dp.magnetic_table(config.ring)]).transpose(0, 2, 1, 3)
    mags = np.abs(vecs)
    floor = 1e-13 * mags.max(axis=(1, 2, 3))
    kind, src, dst = np.nonzero(mags.max(axis=3) > floor[:, None, None])
    vec = vecs[kind, src, dst]
    table = np.rec.fromarrays([
        _KIND_NAMES[kind], ell[src], _BAND_NAMES[band[src]], ell[dst], _BAND_NAMES[band[dst]],
        vec[:, 0].real, vec[:, 0].imag, vec[:, 1].real, vec[:, 1].imag,
        vec[:, 2].real, vec[:, 2].imag,
        dp.COMPONENTS[(mags[kind, src, dst] > floor[kind, None]) @ dp.COMPONENT_BITS],
        dp.COMPONENTS[dp.selection_table(n)[kind, band[src], band[dst], (ell[dst] - ell[src]) % n]],
    ], names=["kind", "from_l", "from_band", "to_l", "to_band", "x_re", "x_im", "y_re", "y_im",
              "z_re", "z_im", "nonzero_components", "selection_rule"])
    n_e = int(np.count_nonzero(kind == 0))
    summary = (f"elements: {n_e} electric and {len(table) - n_e} magnetic "
               "nonzero dipole elements")
    return table, summary


def _config(tmp_path, fmt, **keys):
    keys = {k: v for k, v in keys.items() if v is not None}
    return cli.parse_config(json.dumps(
        {**keys, "format": fmt, "output_path": str(tmp_path / f"elements.{fmt}")}))


def _assert_matches_dense(tmp_path, **keys):
    for fmt in ("csv", "json"):
        config = _config(tmp_path, fmt, **keys)
        out = io.StringIO()
        assert cli.run_command("elements", config, stdout=out) == cli.EXIT_OK
        table, summary = _dense_elements(config)
        data = (tmp_path / f"elements.{fmt}").read_bytes()
        assert data == b"".join(cli._table_chunks(table, fmt))
        assert out.getvalue().splitlines() == [summary, f"wrote {config.output_path} "
                                                        f"({len(table)} rows)"]


def _accepted(keys) -> bool:
    try:
        cli.parse_config(json.dumps({k: v for k, v in keys.items() if v is not None}))
    except cli.ConfigError:
        return False
    return True


positive = st.floats(1e-6, 1e6)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 48), v=positive, xi=positive, w=st.floats(1e-4, 1e4),
       radius=st.none() | st.floats(1e-4, 1e6))
@example(n=3, v=3.6, xi=3.6, w=0.077, radius=None)
@example(n=4, v=3.6, xi=3.6, w=0.077, radius=None)
@example(n=3, v=0.5, xi=20.0, w=1.3, radius=2.0)
@example(n=4, v=20.0, xi=0.5, w=0.01, radius=0.3)
def test_elements_match_the_dense_tables(tmp_path_factory, n, v, xi, w, radius):
    keys = {"N": n, "v_inter_ev": v, "xi_intra_ev": xi, "half_width_nm": w,
            "radius_nm": radius}
    assume(_accepted(keys))
    _assert_matches_dense(tmp_path_factory.mktemp("elements"), **keys)


def test_elements_match_the_dense_tables_at_n384(tmp_path):
    _assert_matches_dense(tmp_path, N=384)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_elements_allocates_bounded_bytes_per_row(fmt, tmp_path, monkeypatch):
    # the full tables are N^2: at N = 384 each is 14 MB, the output 11,510 rows
    def no_table(params):
        raise AssertionError("elements must not build a full dipole table")
    for name in ("electric_table", "magnetic_table"):
        monkeypatch.setattr(dp, name, no_table)
        monkeypatch.setattr(cli, name, no_table, raising=False)
    config = _config(tmp_path, fmt, N=384)
    out = io.StringIO()
    cli.run_command("elements", config, stdout=io.StringIO())   # the first call warms caches
    tracemalloc.start()
    try:
        cli.run_command("elements", config, stdout=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = int(out.getvalue().rsplit("(", 1)[1].split()[0])
    assert rows == 11510
    assert peak < 1024 * rows + 2**20, f"{peak / rows:.0f} B/row"
