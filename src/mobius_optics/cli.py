"""Command-line interface: deterministic tabular output for every computation.

One binary with subcommands; a JSON configuration file (path or "-" for
stdin) selects the molecule, the medium options and the sweep grids.
Each subcommand returns its table as columns: a numpy structured array,
or for `phase-diagram` a `BlockedTable` of one row per theta, one row per
(omega, code) and the int8 code grid, so that each output row is a theta
token plus an (omega, code) suffix and no column the size of the grid
exists.  One generator, `_table_chunks`, serialises either kind in chunks
of at most `CHUNK_ROWS` rows: a `BlockedTable` in whole theta rows, or
pieces of one, and each theta row's text in one join on its theta
token; a chunk whose codes equal the previous chunk's at the same columns
reuses that chunk's tail tokens.  `run_command` streams the chunks into a
temp file through a `WRITE_BUFFER`-byte buffer, then renames it over the
output path, so memory tracks the table and not the output text.
Outputs are all-or-nothing and byte-stable across runs: CSV uses
17-significant-digit floats (exact round trip for 64-bit values), bools
as 1/0, '.' decimals and '\n' line endings; JSON uses the shortest
round-trip float repr, NaN and Infinity as bare tokens and bools as
true/false.  Each distinct value of a float, int, bool or string column
is formatted once, and one call formats each column: one `json.dumps`
in JSON, one `%` call for a CSV float, int or bool column, while a CSV
string column is its own tokens.  A CSV float column's `%` call takes two
exact shortcuts: an integral value below 1e17 in magnitude goes through
"%d", and a negative value whose magnitude the column also holds is not
formatted, but is that positive token with a "-".  Object columns hold Python scalars and None of mixed types; in CSV they
alone are formatted value by value, under the same rules.

Exit codes: 0 success, 1 validation failure or an output file that cannot
be written, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .constants import EV, HBAR, NM, NS, angular_frequency_to_ev
from .dipole import (
    COMPONENT_BITS,
    COMPONENTS,
    KINDS,
    DipoleKind,
    block_entries,
    selection_table,
)
from .refraction import (
    Polarization,
    phase_diagram,
    wave_vector_surface,
)
from .response import MediumConfig, Resonance, response_tensors
from .ring import BANDS, RingParams, VolumeConvention, band_energies, label_axes

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2

# rows per piece of a streamed output table: larger pieces gain no speed, and
# 1024 raised the `tables` benchmark's peak RSS by 16 MB in some heap layouts;
# the pieces reach the file through a buffer of WRITE_BUFFER bytes, so a 7 MB
# phase diagram is 29 writes and not one per piece
CHUNK_ROWS = 512
# bytes per write of an output file: at 1 MiB a 64 x 128 phase-diagram command
# traced 1.27 MB, past its bound of one float per cell plus 1 MiB
WRITE_BUFFER = 2**18


class ConfigError(ValueError):
    pass


# largest ring: `elements` grows as N, and at this N writes 122,870 rows (62 MiB peak);
# largest theta_count, omega_count and surface_samples: a `response` of this many
# frequencies peaks at 94 MiB of traced memory; largest phase-diagram grid: 2048 x 2048
# cells peak at 8.4 MiB (2 B/cell) and write a 214 MiB CSV or 487 MiB JSON file
MAX_N_PER_RING, MAX_SWEEP_POINTS, MAX_GRID_CELLS = 4096, 65536, 2**22

# key: (default, unit / allowed values, description)
CONFIG_KEYS = {
    "n_per_ring": (12, "count (alias: N)", f"atoms per sub-ring, 3 to {MAX_N_PER_RING}"),
    "v_inter_ev": (3.6, "eV", "inter-ring resonance integral V, > 0"),
    "xi_intra_ev": (3.6, "eV", "intra-ring resonance integral xi, > 0"),
    "half_width_nm": (0.077, "nm", "half-width parameter W (molecule width is 4W)"),
    "radius_nm": (None, "nm", "ring radius R; default N * W / pi"),
    "gamma_inv_ns": (4.0, "ns", "excited-state lifetime 1/gamma"),
    "volume_convention": ("cylinder_4w", "cylinder_4w | cylinder_2w",
                          "molecular volume convention"),
    "lossy": (False, "bool", "keep the imaginary part of the response"),
    "theta_min_deg": (0.0, "deg", "incidence-angle grid start"),
    "theta_max_deg": (89.0, "deg", "incidence-angle grid end (< 90)"),
    "theta_count": (256, "count", f"incidence-angle grid points, 1 to {MAX_SWEEP_POINTS}; "
                    f"times omega_count at most {MAX_GRID_CELLS} phase-diagram cells"),
    "omega_center_ev": (None, "eV", "sweep centre; default: resonance"),
    "omega_span_ev": (None, "eV", "sweep half-span as detuning (eV)"),
    "omega_span_rad_s": (None, "rad/s",
                         "sweep half-span as detuning; default 10x bandwidth"),
    "omega_count": (512, "count", f"sweep grid points, 1 to {MAX_SWEEP_POINTS}"),
    "polarization": ("E", "E | H", "incident polarization for phase-diagram"),
    "surface_detunings_ev": (None, "eV list", "wave-surface detunings; default: three regimes; "
                             f"length times surface_samples at most {3 * MAX_SWEEP_POINTS}"),
    "surface_samples": (200, "count", f"points per wave-vector surface, 10 to {MAX_SWEEP_POINTS}"),
    "output_path": (None, "path", "output file; default <command>.<format>"),
    "format": ("csv", "csv | json", "output table format"),
}

_ALIASES = {"N": "n_per_ring"}


@dataclass(frozen=True)
class RunConfig:
    ring: RingParams
    lossy: bool
    theta_min_deg: float
    theta_max_deg: float
    theta_count: int
    omega_center_ev: float | None
    omega_span_ev: float | None
    omega_span_rad_s: float | None
    omega_count: int
    polarization: Polarization
    surface_detunings_ev: list[float] | None
    surface_samples: int
    output_path: str | None
    format: str


def _expect(condition, message):
    if not condition:
        raise ConfigError(message)


def _finite(val) -> bool:
    """Whether a JSON number is finite: NaN compares false, so do ints beyond the float range."""
    return abs(val) <= sys.float_info.max


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, which rejects a key given twice."""
    obj = {}
    for key, value in pairs:
        _expect(key not in obj, f"config key given twice: {key!r}")
        obj[key] = value
    return obj


def parse_config(text: bytes | str) -> RunConfig:
    """Parse and validate a JSON configuration; unknown keys are rejected."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"configuration is not UTF-8 text: {exc}") from exc
    text = text.strip() or "{}"
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON configuration: {exc}") from exc
    _expect(isinstance(raw, dict), "configuration must be a JSON object")
    cfg = {}
    for key, value in raw.items():
        key = _ALIASES.get(key, key)
        _expect(key in CONFIG_KEYS, f"unknown config key: {key!r}")
        _expect(key not in cfg, f"config key given twice (via alias): {key!r}")
        cfg[key] = value
    for key, (default, _, _) in CONFIG_KEYS.items():
        cfg.setdefault(key, default)

    def number(key, positive=False, nonneg=False):
        val = cfg[key]
        _expect(isinstance(val, (int, float)) and not isinstance(val, bool),
                f"{key} must be a number")
        _expect(_finite(val), f"{key} must be finite")
        if positive:
            _expect(val > 0, f"{key} must be > 0")
        if nonneg:
            _expect(val >= 0, f"{key} must be >= 0")
        return float(val)

    def integer(key, minimum, maximum):
        val = cfg[key]
        _expect(isinstance(val, int) and not isinstance(val, bool),
                f"{key} must be an integer")
        _expect(_finite(val), f"{key} must be finite")
        _expect(val >= minimum, f"{key} must be >= {minimum}")
        _expect(val <= maximum, f"{key} must be <= {maximum}")
        return val

    n = integer("n_per_ring", 3, MAX_N_PER_RING)
    v_ev = number("v_inter_ev", positive=True)
    xi_ev = number("xi_intra_ev", positive=True)
    w_m = number("half_width_nm", positive=True) * NM
    _expect(w_m > 0.0, "half_width_nm must be > 0 in meters (it underflows to 0 m)")
    radius = cfg["radius_nm"]
    if radius is not None:
        radius = number("radius_nm", positive=True) * NM
        _expect(radius > 0.0, "radius_nm must be > 0 in meters (it underflows to 0 m)")
    lifetime = number("gamma_inv_ns", positive=True) * NS
    _expect(lifetime > 0.0 and 1.0 / lifetime < math.inf,
            "gamma_inv_ns must give a finite decay rate 1 / (gamma_inv_ns * 1 ns)")
    try:
        convention = VolumeConvention(cfg["volume_convention"])
    except ValueError:
        raise ConfigError("volume_convention must be cylinder_4w or cylinder_2w")
    _expect(isinstance(cfg["lossy"], bool), "lossy must be a boolean")
    ring = RingParams(
        n_per_ring=n, v_inter=v_ev, xi_intra=xi_ev,
        half_width=w_m, radius=radius, decay_rate=1.0 / lifetime,
        volume_convention=convention,
    )
    # the bandwidth command evaluates both conventions: the 2W cylinder halves the volume
    for conv in VolumeConvention:
        try:
            with np.errstate(over="ignore", invalid="ignore"):   # inf levels, a NaN spacing
                res = MediumConfig(replace(ring, volume_convention=conv)).resonance
        except OverflowError:   # (R + W)^2 overflows
            res = None
        _expect(res is not None and 0.0 < res.volume < math.inf,
                "half_width_nm (with radius_nm) must give a finite molecular volume > 0")
        try:
            width, tau_c = res.bandwidth, res.critical_lifetime
        except (OverflowError, ZeroDivisionError):   # 0 divisor: the couplings a, b underflow
            width = tau_c = math.nan
        _expect(math.isfinite(width) and 0.0 < tau_c and tau_c / NS < math.inf,   # ns as written
                "v_inter_ev, xi_intra_ev, half_width_nm (with radius_nm) and gamma_inv_ns "
                "must give a finite bandwidth and critical lifetime > 0")
        if conv is ring.volume_convention:
            own = res
    _expect(own.delta0 < math.inf,
            "v_inter_ev and xi_intra_ev must give a finite resonance frequency")
    # eps1 = 1 - 5 eta and mu1 = 1 - (a^2 + 4 b^2) eta peak on resonance
    a, b = own.alpha, own.beta
    _expect(max(5.0, a * a + 4.0 * b * b) * own.prefactor / own.gamma < math.inf,
            "gamma_inv_ns must give a finite response (eta, eps and mu) on resonance")

    theta_min = number("theta_min_deg", nonneg=True)
    theta_max = number("theta_max_deg")
    _expect(theta_max < 90.0, "theta_max_deg must be < 90")
    _expect(theta_max >= theta_min, "theta_max_deg must be >= theta_min_deg")
    theta_count = integer("theta_count", 1, MAX_SWEEP_POINTS)
    omega_count = integer("omega_count", 1, MAX_SWEEP_POINTS)
    omega_center = cfg["omega_center_ev"]
    if omega_center is not None:
        omega_center = number("omega_center_ev", positive=True)
    span_ev = cfg["omega_span_ev"]
    span_rad = cfg["omega_span_rad_s"]
    _expect(span_ev is None or span_rad is None,
            "give at most one of omega_span_ev and omega_span_rad_s")
    if span_ev is not None:
        span_ev = number("omega_span_ev", positive=True)
    if span_rad is not None:
        span_rad = number("omega_span_rad_s", positive=True)
    try:
        pol = Polarization(cfg["polarization"])
    except ValueError:
        raise ConfigError("polarization must be E or H")
    detunings = cfg["surface_detunings_ev"]
    if detunings is not None:
        _expect(isinstance(detunings, list) and detunings
                and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                        for x in detunings),
                "surface_detunings_ev must be a non-empty list of numbers")
        _expect(all(map(_finite, detunings)), "surface_detunings_ev must be finite")
        detunings = [float(x) for x in detunings]
    samples = integer("surface_samples", 10, MAX_SWEEP_POINTS)
    # as many surface rows as the three default detunings give at the sample cap
    _expect(detunings is None or len(detunings) * samples <= 3 * MAX_SWEEP_POINTS,
            f"surface_detunings_ev: its length times surface_samples must be "
            f"<= {3 * MAX_SWEEP_POINTS} surface rows")
    out_path = cfg["output_path"]
    _expect(out_path is None or isinstance(out_path, str) and out_path,
            "output_path must be a non-empty string (null for the default)")
    _expect(cfg["format"] in ("csv", "json"), "format must be csv or json")
    return RunConfig(
        ring=ring, lossy=cfg["lossy"],
        theta_min_deg=theta_min, theta_max_deg=theta_max, theta_count=theta_count,
        omega_center_ev=omega_center, omega_span_ev=span_ev,
        omega_span_rad_s=span_rad, omega_count=omega_count,
        polarization=pol, surface_detunings_ev=detunings,
        surface_samples=samples, output_path=out_path, format=cfg["format"],
    )


# ---------------------------------------------------------------------------
# Table serialisation
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    """CSV token of one Python scalar or None: floats with 17 significant digits, bools 1/0."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _column_tokens(column: np.ndarray, fmt: str, prefix: str):
    """Distinct tokens of one column and each row's index into them.

    Each distinct value is formatted once; floats are told apart by their
    bit pattern, so -0.0 keeps its sign.  Object columns hold Python
    scalars and None, of mixed types, and index themselves.  `prefix`
    starts every token (the column's separator and, in JSON, its ``"col":``
    key).  One call formats every column but a CSV object column: in JSON
    one encoder call, split on NUL, which no encoded scalar holds; in CSV
    one `%` call for a float, int or bool column, while a string column is
    its own tokens.
    """
    kind = column.dtype.kind
    if kind == "O":
        values, inverse = column.tolist(), np.arange(len(column))
    else:
        keys = column.view(np.uint64) if kind == "f" else column
        distinct, inverse = np.unique(keys, return_inverse=True)
        if kind == "f" and fmt == "csv":
            return _float_tokens(distinct, prefix), inverse
        values = (distinct.view(np.float64) if kind == "f" else distinct).tolist()
    if fmt == "json":
        text = prefix + json.dumps(values, separators=("\0" + prefix, ":"))[1:-1]
    elif kind in "OU":
        tokens = values if kind == "U" else [_format_value(v) for v in values]
        return prefix + np.array(tokens, dtype=object), inverse
    else:
        # "%d" % v is str(int(v))
        text = "\0".join([prefix.replace("%", "%%") + "%d"] * len(values)) % tuple(values)
    return np.array(text.split("\0"), dtype=object), inverse


# bit patterns of a sorted float column run through the non-negatives by
# magnitude, then the negatives by magnitude, each half's NaNs last
_SIGN = np.uint64(1 << 63)
_EDGES = np.array([1e17, -1e17, -0.0, -math.inf]).view(np.uint64)


def _float_tokens(bits: np.ndarray, prefix: str) -> np.ndarray:
    """CSV tokens of distinct float64 bit patterns, sorted as unsigned ints.

    Every token is `prefix` and ``format(v, ".17g")``, from one `%` call
    over the values and two exact shortcuts.  An integral v with
    |v| < 1e17, other than -0.0, goes through "%d": ".17g" prints the same
    digits there.  A negative v whose magnitude is also in `bits` is not
    formatted: its token is a "-" before that positive token's digits.  A
    NaN is never paired, as ".17g" drops its sign.
    """
    n, values = len(bits), bits.view(np.float64)
    top, bottom, split = bits.searchsorted(_EDGES[:3]).tolist()
    start, nan = bits.searchsorted(_EDGES[2:], side="right").tolist()
    whole = np.zeros(n, dtype=bool)
    for lo, hi in ((0, top), (start, bottom)):   # |v| < 1e17 but -0.0; no NaN
        whole[lo:hi] = np.trunc(values[lo:hi]) == values[lo:hi]
    mags = bits[split:nan] - _SIGN
    partner = bits[:split].searchsorted(mags)
    paired = np.flatnonzero(bits[partner] == mags)
    spec = prefix.replace("%", "%%")
    specs = np.array([spec + "%.17g", spec + "%d"], dtype=object)
    own = np.ones(n, dtype=bool)
    own[split + paired] = False
    text = "\0".join(specs[whole[own].view(np.uint8)].tolist()) % tuple(values[own].tolist())
    if not len(paired):
        return np.array(text.split("\0"), dtype=object)
    tokens = np.empty(n, dtype=object)
    tokens[own] = text.split("\0")
    # each paired positive token with a "-" after its prefix, in one replace
    positives = "\0" + "\0".join(tokens[partner[paired]].tolist())
    tokens[split + paired] = positives.replace("\0" + prefix, "\0" + prefix + "-").split("\0")[1:]
    return tokens


@dataclass(frozen=True)
class BlockedTable:
    """A table with one block of rows per head row, built from three parts.

    Row j of block i is head row i followed by tail row
    ``4 * j + codes[i, j] + 1``: the tail holds four rows per column j of
    the int8 `codes` grid, for the codes -1, 0, 1 and 2 in that order.  No
    column the size of the grid exists.
    """

    head: np.ndarray     # structured array, one row per block
    tail: np.ndarray     # structured array, 4 rows per column of `codes`
    codes: np.ndarray    # (len(head), len(tail) // 4) int8, values -1 to 2

    def __len__(self) -> int:
        return self.codes.size


def _frame(header: list[str], fmt: str, n: int) -> tuple[str, str, str, dict]:
    """The head, row separator, tail and per-column token prefixes of an n-row table.

    A token's prefix is the row separator for the first column and "," for
    every other, then in JSON the ``"col":`` key, so a row of either format
    is the plain concatenation of its tokens.
    """
    if fmt == "csv":
        head, sep, tail = ",".join(header) + "\n", "\n", "\n" if n else ""
    else:
        # each row is an object: the head opens the first, the tail closes the last
        head = '{"columns":%s,"rows":[%s' % (json.dumps(header, separators=(",", ":")),
                                             "{" if n else "")
        sep, tail = "},{", ("}" if n else "") + "]}\n"
    keys = [json.dumps(col) + ":" if fmt == "json" else "" for col in header]
    separators = [sep] + [","] * (len(header) - 1)
    return head, sep, tail, {col: s + k for col, s, k in zip(header, separators, keys)}


def _table_chunks(table, fmt: str) -> Iterator[bytes]:
    """Yield the UTF-8 bytes of a table, at most `CHUNK_ROWS` rows at a time.

    `table` is a structured array or a `BlockedTable`.  Each column's
    distinct tokens are formatted once into an object array of strings.  A
    structured array's row is the concatenation of one token per column,
    picked by the row's inverse, and its chunks are `CHUNK_ROWS` rows.  A
    blocked table's row (i, j) is the token of head row i and the
    concatenated tokens of tail row ``4 * j + codes[i, j] + 1``.  Its chunks
    are whole theta rows, as many as `CHUNK_ROWS` rows hold, or
    `CHUNK_ROWS`-wide pieces of a wider theta row, joined as
    `_blocked_texts` says.  The first chunk drops its leading row separator.
    """
    blocked, n = isinstance(table, BlockedTable), len(table)
    tables = (table.head, table.tail) if blocked else (table,)
    head, sep, tail, prefixes = _frame([col for t in tables for col in t.dtype.names], fmt, n)
    columns = [[_column_tokens(t[col], fmt, prefixes[col]) for col in t.dtype.names]
               for t in tables]
    texts = _blocked_texts(columns, table.codes) if blocked else _flat_texts(columns[0], n)
    yield head.encode("utf-8")
    for k, text in enumerate(texts):
        yield (text if k else text[len(sep):]).encode("utf-8")
    yield tail.encode("utf-8")


def _flat_texts(columns, n: int) -> Iterator[str]:
    """Text of `CHUNK_ROWS` rows at a time: each row's token of each column, interleaved."""
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        pieces = [None] * (len(columns) * (stop - start))
        for k, (tokens, inverse) in enumerate(columns):
            pieces[k::len(columns)] = tokens[inverse[start:stop]].tolist()
        yield "".join(pieces)


def _blocked_texts(columns, codes: np.ndarray) -> Iterator[str]:
    """Text of whole theta rows, or of `CHUNK_ROWS`-wide pieces of one, at a time.

    Each theta row (or piece) is one ``h.join`` of an empty string and its
    tail tokens, so its head token h is not gathered per cell.  A chunk
    whose codes bytes equal those of the previous chunk at the same columns
    reuses that chunk's tail tokens: a classifier's theta rows repeat in
    runs, so most chunks gather nothing.
    """
    heads, tails = (np.add.reduce([tokens[inverse] for tokens, inverse in part])
                    for part in columns)
    n_theta, width = codes.shape
    step, piece = max(CHUNK_ROWS // max(width, 1), 1), max(min(width, CHUNK_ROWS), 1)
    # index 0 is the empty string that starts each theta row's join
    tails, offsets = np.concatenate([[""], tails]), 4 * np.arange(width) + 2
    last = {}   # piece start j: the codes bytes and tail tokens of the last chunk there
    for i in range(0, n_theta, step):
        for j in range(0, width, piece):
            block = codes[i:i + step, j:j + piece]
            key = block.tobytes()
            if last.get(j, (None,))[0] != key:
                index = np.zeros((len(block), block.shape[1] + 1), dtype=np.intp)
                index[:, 1:] = block + offsets[j:j + piece]   # tail indices
                last[j] = key, tails[index].tolist()
            yield "".join(map(str.join, heads[i:i + step].tolist(), last[j][1]))


def _atomic_write(path: str, chunks: Iterable[bytes]):
    """Write the complete table or nothing: stream the chunks into a temp
    file, then rename it over `path` atomically.  The file gets the mode
    `open(path, "wb")` would leave: an existing file's own mode, else 0o666
    less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        # O_EXCL as mkstemp, but the kernel applies the umask to 0o666
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc
    try:
        with os.fdopen(fd, "wb", buffering=WRITE_BUFFER) as handle:
            handle.writelines(chunks)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write output file {path!r}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _omega_grid(config: RunConfig, res: Resonance):
    center = (res.delta0 if config.omega_center_ev is None
              else config.omega_center_ev * EV / HBAR)
    if config.omega_span_ev is not None:
        span, key = config.omega_span_ev * EV / HBAR, "omega_span_ev"
    elif config.omega_span_rad_s is not None:
        span, key = config.omega_span_rad_s, "omega_span_rad_s"
    else:   # the messages name the default and both keys that replace it
        span = 10.0 * res.bandwidth or 0.1 * center
        key = (f"the default half-span, {span:.6g} rad/s ("
               f"{'10 bandwidths' if res.bandwidth else 'center / 10'}), "
               "by setting omega_span_ev or omega_span_rad_s,")
    if config.omega_count == 1:
        span = 0.0
    if not 0.0 < center - span <= center + span < math.inf:
        raise ConfigError(
            f"omega must be positive and finite: the sweep {center - span:.6g} to "
            f"{center + span:.6g} rad/s leaves that range; reduce {key} or change "
            "omega_center_ev")
    grid = np.linspace(center - span, center + span, config.omega_count)
    if not _increasing(grid):
        raise ConfigError(
            f"omega grid must be strictly increasing: {config.omega_count} points over "
            f"{center - span:.17g} to {center + span:.17g} rad/s repeat values; widen {key} "
            "or reduce omega_count")
    return grid


def _theta_grid(config: RunConfig):
    _expect(config.theta_count * config.omega_count <= MAX_GRID_CELLS,
            f"theta_count * omega_count must be <= {MAX_GRID_CELLS} phase-diagram cells")
    grid = np.radians(
        np.linspace(config.theta_min_deg, config.theta_max_deg, config.theta_count))
    if not _increasing(grid):
        raise ConfigError(
            f"theta grid must be strictly increasing: {config.theta_count} points from "
            f"theta_min_deg {config.theta_min_deg!r} to theta_max_deg "
            f"{config.theta_max_deg!r} repeat values; widen the range or reduce theta_count")
    return grid


def _increasing(grid: np.ndarray) -> bool:
    return bool((grid[1:] > grid[:-1]).all())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _table(**columns) -> np.ndarray:
    """Structured array with one field per keyword argument, in order."""
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


_BAND_NAMES = np.array([b.value for b in BANDS])
_CODES = np.arange(-1, 3, dtype=np.int8)   # the order of a BlockedTable's tail rows
_CODE_LABELS = np.array(["LH", "TR", "RH", "masked"])
_LOSSLESS_NOTE = {False: "", True: "; lossy ignored: the lossless response was used"}


def _cmd_spectrum(config: RunConfig):
    """band energies of all 2N states"""
    band, ell = label_axes(config.ring.n_per_ring)
    table = _table(l=ell, band=_BAND_NAMES[band], energy_ev=band_energies(config.ring))
    summary = (f"spectrum: {len(table)} states, ground energy "
               f"{format(table['energy_ev'].min(), '.6g')} eV")
    return table, summary, EXIT_OK


def _cmd_elements(config: RunConfig):
    """nonzero electric and magnetic dipole elements"""
    n = config.ring.n_per_ring
    band, ell = label_axes(n)
    # [kind, entry] = <to| O |from> over the allowed blocks, the only nonzero
    # table entries; each kind keeps what is above its own floor
    entries = [block_entries(config.ring, kind, np.arange(n)) for kind in KINDS]
    src, dst = entries[0][:2]
    vecs = np.stack([vec for _, _, vec in entries])
    mags = np.abs(vecs)
    floor = 1e-13 * mags.max(axis=(1, 2))
    above = mags > floor[:, None, None]
    kind, entry = np.nonzero(above.any(axis=2))
    order = np.lexsort((dst[entry], src[entry], kind))   # the table's (kind, from, to) order
    kind, entry = kind[order], entry[order]
    src, dst, vec = src[entry], dst[entry], vecs[kind, entry]
    table = _table(
        kind=np.array([k.value for k in KINDS])[kind],
        from_l=ell[src], from_band=_BAND_NAMES[band[src]],
        to_l=ell[dst], to_band=_BAND_NAMES[band[dst]],
        x_re=vec[:, 0].real, x_im=vec[:, 0].imag, y_re=vec[:, 1].real,
        y_im=vec[:, 1].imag, z_re=vec[:, 2].real, z_im=vec[:, 2].imag,
        nonzero_components=COMPONENTS[above[kind, entry] @ COMPONENT_BITS],
        selection_rule=COMPONENTS[
            selection_table(n)[kind, band[src], band[dst], (ell[dst] - ell[src]) % n]],
    )
    n_e = int(np.count_nonzero(table["kind"] == DipoleKind.ELECTRIC.value))
    summary = (f"elements: {n_e} electric and {len(table) - n_e} magnetic "
               "nonzero dipole elements")
    return table, summary, EXIT_OK


def _cmd_response(config: RunConfig):
    """eta, permittivity and permeability over a frequency sweep"""
    medium = MediumConfig(config.ring, lossy=config.lossy)
    res = medium.resonance
    omegas = _omega_grid(config, res)
    t = response_tensors(medium, omegas)
    complex_columns = {"eta": t.eta, "eps1": t.eps1, "mu1": t.mu1}
    for name, tensor in (("eps", t.eps_r), ("mu", t.mu_r)):
        for comp, (i, j) in (("xx", (0, 0)), ("yz", (1, 2)), ("zz", (2, 2))):
            complex_columns[f"{name}_{comp}"] = tensor[:, i, j]
    detuning = omegas - res.delta0
    columns = {"omega_rad_s": omegas, "detuning_rad_s": detuning,
               "detuning_ev": angular_frequency_to_ev(detuning)}
    for name, values in complex_columns.items():
        columns[f"{name}_re"], columns[f"{name}_im"] = values.real, values.imag
    columns["near_resonance"] = t.near_resonance
    table = _table(**columns)
    n_neg = int(np.count_nonzero((table["eps1_re"] < 0) & (table["mu1_re"] < 0)))
    summary = (f"response: {len(table)} frequencies, {n_neg} with eps1 < 0 and "
               f"mu1 < 0; alpha={res.alpha:.4g} beta={res.beta:.4g}")
    return table, summary, EXIT_OK


def _cmd_phase_diagram(config: RunConfig):
    """LH/RH/TR classification over a (theta, omega) grid"""
    medium = MediumConfig(config.ring, lossy=False)
    thetas = _theta_grid(config)
    omegas = _omega_grid(config, medium.resonance)
    diagram = phase_diagram(medium, config.polarization, thetas, omegas)
    table = BlockedTable(
        head=_table(theta_deg=np.degrees(thetas)),
        tail=_table(
            omega_rad_s=np.repeat(omegas, 4),
            detuning_rad_s=np.repeat(omegas - medium.resonance.delta0, 4),
            code=np.tile(_CODES, len(omegas)),
            label=np.tile(_CODE_LABELS, len(omegas)),
        ),
        codes=diagram.codes,
    )
    n_lh, n_tr, n_rh, n_masked = (np.count_nonzero(diagram.codes == c) for c in _CODES)
    summary = (f"phase-diagram {config.polarization.value}: "
               f"LH cells {n_lh}, RH cells {n_rh}, TR cells {n_tr}, masked {n_masked} "
               "(codes: LH=-1, RH=+1, TR=0, masked=2)" + _LOSSLESS_NOTE[config.lossy])
    return table, summary, EXIT_OK


def _default_surface_detunings(res: Resonance) -> list[float]:
    below = -0.5 * res.delta0 * HBAR / EV
    zeros = res.mu1_zeros
    if zeros is None:
        return [below]
    mid = 0.5 * (zeros[0] + zeros[1]) * HBAR / EV
    above = 2.0 * zeros[1] * HBAR / EV
    return [below, mid, above]


def _cmd_surface(config: RunConfig):
    """wave-vector surface samples and conic class"""
    medium = MediumConfig(config.ring, lossy=False)
    res = medium.resonance
    detunings = (config.surface_detunings_ev
                 if config.surface_detunings_ev is not None
                 else _default_surface_detunings(res))
    omegas, surfaces = [], []
    for det_ev in detunings:
        om = res.delta0 + det_ev * EV / HBAR
        if not 0.0 < om < math.inf:
            raise ConfigError(f"surface_detunings_ev: {det_ev} eV puts omega at {om:.6g} "
                              "rad/s; omega must be positive and finite")
        omegas.append(om)
        surfaces.append(wave_vector_surface(response_tensors(medium, om),
                                            config.polarization, config.surface_samples))
    sizes = [len(surf.n_ty) for surf in surfaces]
    normal = np.concatenate([surf.normal for surf in surfaces])
    table = _table(
        detuning_ev=np.repeat(detunings, sizes), omega_rad_s=np.repeat(omegas, sizes),
        conic=np.repeat([surf.conic.value for surf in surfaces], sizes),
        n_ty=np.concatenate([surf.n_ty for surf in surfaces]),
        n_tz=np.concatenate([surf.n_tz for surf in surfaces]),
        normal_y=normal[:, 0], normal_z=normal[:, 1],
    )
    conics = [f"{det_ev:+.4g} eV -> {surf.conic.value}"
              for det_ev, surf in zip(detunings, surfaces)]
    summary = "surface: " + "; ".join(conics) + _LOSSLESS_NOTE[config.lossy]
    return table, summary, EXIT_OK


def _cmd_bandwidth(config: RunConfig):
    """negative-permeability bandwidth and critical lifetime"""
    conventions = (VolumeConvention.CYLINDER_4W, VolumeConvention.CYLINDER_2W)
    res = [MediumConfig(replace(config.ring, volume_convention=c)).resonance
           for c in conventions]
    tau = np.array([r.critical_lifetime for r in res])
    table = _table(
        volume_convention=[c.value for c in conventions],
        molecular_volume_m3=[r.volume for r in res],
        eta_prefactor_rad_s=[r.prefactor for r in res],
        alpha=[r.alpha for r in res], beta=[r.beta for r in res],
        bandwidth_rad_s=[r.bandwidth for r in res],
        tau_c_s=tau, tau_c_ns=tau / NS, gamma_per_s=[r.gamma for r in res],
    )
    summary = (
        f"bandwidth: tau_c {tau[0] / NS:.4g} ns (cylinder_4w) vs {tau[1] / NS:.4g} ns "
        "(cylinder_2w); the conventions differ by exactly a factor 2"
    )
    return table, summary, EXIT_OK


def _cmd_validate(config: RunConfig):
    """cross-check closed forms against the dense numerics"""
    from .validation import validation_report   # no other command loads the dense oracle
    report = validation_report(config.ring)
    checks = report["checks"]
    table = _table(
        name=[c["name"] for c in checks],
        value=np.array([c["value"] for c in checks], dtype=float),
        # ints, floats and None: each value keeps its own JSON type
        threshold=np.array([c["threshold"] for c in checks], dtype=object),
        passed=np.array([bool(c["passed"]) for c in checks]),
        note=[c["note"].replace(",", ";") for c in checks],
    )
    n_failed = sum(1 for c in checks if not c["passed"])
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['value']!r}"
        for c in checks
    ]
    status = "all checks passed" if report["all_passed"] else f"{n_failed} checks FAILED"
    summary = "\n".join(lines + [f"validate: {len(table)} checks, {status}"])
    code = EXIT_OK if report["all_passed"] else EXIT_VALIDATION_FAILURE
    return table, summary, code


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "elements": _cmd_elements,
    "response": _cmd_response,
    "phase-diagram": _cmd_phase_diagram,
    "surface": _cmd_surface,
    "bandwidth": _cmd_bandwidth,
    "validate": _cmd_validate,
}


def run_command(command: str, config: RunConfig, stdout=None) -> int:
    """Execute a subcommand: compute, write the output file, print a summary."""
    stdout = stdout if stdout is not None else sys.stdout
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command: {command!r}")
    table, summary, code = _COMMANDS[command](config)
    path = config.output_path or f"{command}.{config.format}"
    _atomic_write(path, _table_chunks(table, config.format))
    print(summary, file=stdout)
    print(f"wrote {path} ({len(table)} rows)", file=stdout)
    return code


def _read_config_text(source: str | None) -> bytes:
    if source is None:
        return b"{}"
    if source == "-":
        return sys.stdin.buffer.read()
    try:
        with open(source, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {source!r}: {exc}") from exc


def _key_documentation() -> str:
    lines = ["configuration keys (JSON object):"]
    for key, (default, unit, desc) in CONFIG_KEYS.items():
        lines.append(f"  {key:<22} {desc} [{unit}; default {default!r}]")
    lines.append("  N                      alias for n_per_ring")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobius-optics",
        description=(
            "Band structure, transition dipoles, response tensors and "
            "negative-refraction classification for Mobius molecular rings."
        ),
        epilog=_key_documentation(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument(
            "config", nargs="?", default=None,
            help="JSON config path, or '-' for stdin (omit for defaults)")
        if name == "phase-diagram":
            cmd.add_argument("--pol", choices=["E", "H"], default=None,
                             help="incident polarization (overrides config)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config(_read_config_text(args.config))
        if getattr(args, "pol", None):
            config = replace(config, polarization=Polarization(args.pol))
        return run_command(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
