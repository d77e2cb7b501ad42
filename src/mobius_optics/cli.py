"""Command-line interface: deterministic tabular output for every computation.

One binary with subcommands; a JSON configuration file (path or "-" for
stdin) selects the molecule, the medium options and the sweep grids.
Each subcommand returns its table as columns: a numpy structured array,
or for `phase-diagram` a `BlockedTable` of one row per theta, one row per
(omega, code) and the int8 code grid, so that each output row is a theta
token plus an (omega, code) suffix and no column the size of the grid
exists.  The serialised table is streamed into a temp file in fixed-size
chunks of `CHUNK_ROWS` rows, then renamed over the output path, so memory
tracks the table and not the output text; `emit_table` returns the bytes
of a structured array at once.  Outputs are all-or-nothing and byte-stable across runs: CSV uses
17-significant-digit floats (exact round trip for 64-bit values), '.'
decimals and '\n' line endings; JSON uses the shortest round-trip float
repr, with NaN and Infinity as bare tokens.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
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
    electric_table,
    magnetic_table,
    selection_table,
)
from .refraction import (
    Polarization,
    phase_diagram,
    wave_vector_surface,
)
from .response import (
    MediumConfig,
    alpha_beta,
    bandwidth,
    critical_lifetime,
    eta_prefactor,
    molecular_volume,
    mu1_zero_detunings,
    resonance_frequency,
    response_tensors,
)
from .ring import BANDS, RingParams, VolumeConvention, band_energies, label_axes

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2

# rows per piece of a streamed output table: larger pieces gain no speed, and
# 1024 raised the `tables` benchmark's peak RSS by 16 MB in some heap layouts
CHUNK_ROWS = 512


class ConfigError(ValueError):
    pass


# key: (default, unit / allowed values, description)
CONFIG_KEYS = {
    "n_per_ring": (12, "count (alias: N)", "atoms per sub-ring, >= 3"),
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
    "theta_count": (256, "count", "incidence-angle grid points, >= 1"),
    "omega_center_ev": (None, "eV", "sweep centre; default: resonance"),
    "omega_span_ev": (None, "eV", "sweep half-span as detuning (eV)"),
    "omega_span_rad_s": (None, "rad/s",
                         "sweep half-span as detuning; default 10x bandwidth"),
    "omega_count": (512, "count", "sweep grid points, >= 1"),
    "polarization": ("E", "E | H", "incident polarization for phase-diagram"),
    "surface_detunings_ev": (None, "eV list",
                             "wave-surface detunings; default: three regimes"),
    "surface_samples": (200, "count", "points per wave-vector surface"),
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


def parse_config(text: bytes | str) -> RunConfig:
    """Parse and validate a JSON configuration; unknown keys are rejected."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    text = text.strip() or "{}"
    try:
        raw = json.loads(text)
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

    def integer(key, minimum):
        val = cfg[key]
        _expect(isinstance(val, int) and not isinstance(val, bool),
                f"{key} must be an integer")
        _expect(val >= minimum, f"{key} must be >= {minimum}")
        return val

    n = integer("n_per_ring", 3)
    v_ev = number("v_inter_ev", positive=True)
    xi_ev = number("xi_intra_ev", positive=True)
    w_m = number("half_width_nm", positive=True) * NM
    radius = cfg["radius_nm"]
    if radius is not None:
        radius = number("radius_nm", positive=True) * NM
    lifetime = number("gamma_inv_ns", positive=True) * NS
    _expect(lifetime > 0.0 and 1.0 / lifetime < math.inf,
            "gamma_inv_ns must give a finite decay rate 1 / (gamma_inv_ns * 1 ns)")
    try:
        convention = VolumeConvention(cfg["volume_convention"])
    except ValueError:
        raise ConfigError("volume_convention must be cylinder_4w or cylinder_2w")
    _expect(isinstance(cfg["lossy"], bool), "lossy must be a boolean")
    try:
        ring = RingParams(
            n_per_ring=n, v_inter=v_ev, xi_intra=xi_ev,
            half_width=w_m, radius=radius, decay_rate=1.0 / lifetime,
            volume_convention=convention,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    medium = MediumConfig(ring)
    try:
        volume = molecular_volume(medium)
    except OverflowError:
        volume = math.inf
    _expect(0.0 < volume < math.inf,
            "half_width_nm (with radius_nm) must give a finite molecular volume > 0")
    try:
        width, tau_c = bandwidth(medium), critical_lifetime(medium)
    except OverflowError:
        width = tau_c = math.nan
    _expect(math.isfinite(width) and 0.0 < tau_c < math.inf,
            "v_inter_ev, xi_intra_ev, half_width_nm and gamma_inv_ns must give a "
            "finite bandwidth and critical lifetime > 0")

    theta_min = number("theta_min_deg", nonneg=True)
    theta_max = number("theta_max_deg")
    _expect(theta_max < 90.0, "theta_max_deg must be < 90")
    _expect(theta_max >= theta_min, "theta_max_deg must be >= theta_min_deg")
    theta_count = integer("theta_count", 1)
    omega_count = integer("omega_count", 1)
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
    samples = integer("surface_samples", 10)
    out_path = cfg["output_path"]
    _expect(out_path is None or isinstance(out_path, str),
            "output_path must be a string")
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
    """CSV token of one value: floats with 17 significant digits, bools 1/0."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_value(value) -> str:
    """JSON token of one value: shortest round-trip floats, NaN and Infinity."""
    return json.dumps(value.item() if isinstance(value, np.generic) else value)


def _column_tokens(column: np.ndarray, fmt: str, key: str):
    """Distinct tokens of one column and each row's index into them.

    Each distinct value is formatted once; floats are told apart by their
    bit pattern, so -0.0 keeps its sign.  Object columns (mixed types) are
    formatted value by value and index themselves.  `key` prefixes every
    token (the ``"col":`` of a JSON row).
    """
    kind = column.dtype.kind
    if kind == "O":
        values, inverse = column.tolist(), np.arange(len(column))
    else:
        keys = column.view(np.uint64) if kind == "f" else column
        distinct, inverse = np.unique(keys, return_inverse=True)
        values = (distinct.view(np.float64) if kind == "f" else distinct).tolist()
    if fmt == "csv":
        tokens = ([format(v, ".17g") for v in values] if kind == "f"
                  else [_format_value(v) for v in values])
    elif kind in "OU":
        tokens = [_json_value(v) for v in values]
    else:
        # one encoder call; number and bool tokens never contain ", "
        tokens = json.dumps(values)[1:-1].split(", ")
    return np.array([key + t for t in tokens], dtype=object), inverse


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


def _rows(columns, start: int, stop: int) -> list[str]:
    """Rows [start, stop) of tokenised columns, each one comma-joined string."""
    return list(map(",".join, zip(*[tokens[inverse[start:stop]].tolist()
                                    for tokens, inverse in columns])))


def _frame(header: list[str], fmt: str, n: int) -> tuple[str, str, str, dict]:
    """The head, row separator, tail and per-column token keys of an n-row table.

    CSV and JSON rows are the same comma join of per-column tokens (a JSON
    token carries its ``"col":`` key); the formats differ only in the head,
    the row separator and the tail.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    if fmt == "csv":
        head, sep, tail = ",".join(header) + "\n", "\n", "\n" if n else ""
        keys = [""] * len(header)
    else:
        # each row is an object: the head opens the first, the tail closes the last
        head = '{"columns":%s,"rows":[%s' % (json.dumps(header, separators=(",", ":")),
                                             "{" if n else "")
        sep, tail = "},{", ("}" if n else "") + "]}\n"
        keys = [json.dumps(col) + ":" for col in header]
    return head, sep, tail, dict(zip(header, keys))


def _table_chunks(header: list[str], table: np.ndarray, fmt: str) -> Iterator[bytes]:
    """Yield the UTF-8 bytes of a structured array, `CHUNK_ROWS` rows at a time."""
    n = len(table)
    head, sep, tail, keys = _frame(header, fmt, n)
    columns = [_column_tokens(table[col], fmt, keys[col]) for col in header]
    yield head.encode("utf-8")
    for start in range(0, n, CHUNK_ROWS):
        rows = _rows(columns, start, min(start + CHUNK_ROWS, n))
        yield ((sep if start else "") + sep.join(rows)).encode("utf-8")
    yield tail.encode("utf-8")


def _blocked_chunks(table: BlockedTable, fmt: str) -> Iterator[bytes]:
    """Chunks of a blocked table: each row is a head row's text plus a tail row's.

    The head and tail rows are formatted once, each head row with the row
    separator before it; a chunk then joins one head and one tail string per
    row, at a cost per row that does not depend on the shape of `codes`.
    """
    n, width = len(table), table.codes.shape[1]
    head, sep, tail, keys = _frame(list(table.head.dtype.names + table.tail.dtype.names), fmt, n)

    def strings(part):
        columns = [_column_tokens(part[col], fmt, keys[col]) for col in part.dtype.names]
        return np.array(_rows(columns, 0, len(part)), dtype=object)
    heads, tails, codes = sep + strings(table.head) + ",", strings(table.tail), table.codes.ravel()
    yield head.encode("utf-8")
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        i, j = np.divmod(np.arange(start, stop), width)
        parts = [None] * (2 * (stop - start))
        parts[0::2] = heads[i].tolist()
        parts[1::2] = tails[codes[start:stop] + 4 * j + 1].tolist()
        text = "".join(parts)
        yield (text if start else text[len(sep):]).encode("utf-8")
    yield tail.encode("utf-8")


def emit_table(header: list[str], table: np.ndarray, fmt: str) -> bytes:
    """Serialise the columns `header` of a table deterministically.

    `table` is a numpy structured array: ``table[col]`` is one column and
    ``len(table)`` the row count.  CSV writes floats with 17 significant
    digits (exact round trip) and bools as 1/0; JSON writes floats in their
    shortest round-trip form, NaN and Infinity as bare tokens, and bools as
    true/false.  Float, int, bool and string columns format each distinct
    value once; object columns, whose values may mix types and None, are
    formatted value by value under the same rules.  The bytes are those
    `run_command` streams into its output file.
    """
    return b"".join(_table_chunks(header, table, fmt))


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
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(sys.exc_info()[1], OSError):
            exc = sys.exc_info()[1]
            raise OSError(f"cannot write output file {path!r}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _medium(config: RunConfig) -> MediumConfig:
    return MediumConfig(config.ring, lossy=config.lossy)


def _omega_grid(config: RunConfig):
    medium = _medium(config)
    center = (resonance_frequency(medium) if config.omega_center_ev is None
              else config.omega_center_ev * EV / HBAR)
    if config.omega_span_ev is not None:
        span = config.omega_span_ev * EV / HBAR
    elif config.omega_span_rad_s is not None:
        span = config.omega_span_rad_s
    else:
        span = 10.0 * bandwidth(medium)
        if span == 0.0:
            span = 0.1 * center
    if config.omega_count == 1:
        span = 0.0
    if not 0.0 < center - span <= center + span < math.inf:
        key = "omega_span_ev" if config.omega_span_ev is not None else "omega_span_rad_s"
        raise ConfigError(
            f"omega must be positive and finite: the sweep {center - span:.6g} to "
            f"{center + span:.6g} rad/s leaves that range; reduce {key} or change "
            "omega_center_ev")
    return np.linspace(center - span, center + span, config.omega_count)


def _theta_grid(config: RunConfig):
    if config.theta_count == 1:
        return np.array([math.radians(config.theta_min_deg)])
    return np.radians(
        np.linspace(config.theta_min_deg, config.theta_max_deg, config.theta_count))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _table(**columns) -> np.ndarray:
    """Structured array with one field per keyword argument, in order."""
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


_BAND_NAMES = np.array([b.value for b in BANDS])
_CODES = np.arange(-1, 3, dtype=np.int8)   # the order of a BlockedTable's tail rows
_CODE_LABELS = np.array(["LH", "TR", "RH", "masked"])


def _cmd_spectrum(config: RunConfig):
    band, ell = label_axes(config.ring.n_per_ring)
    table = _table(l=ell, band=_BAND_NAMES[band], energy_ev=band_energies(config.ring))
    summary = (f"spectrum: {len(table)} states, ground energy "
               f"{format(table['energy_ev'].min(), '.6g')} eV")
    return table, summary, EXIT_OK


def _cmd_elements(config: RunConfig):
    n = config.ring.n_per_ring
    band, ell = label_axes(n)
    # [kind, from, to] = <to| O |from>; each kind keeps what is above its own floor
    vecs = np.stack([electric_table(config.ring),
                     magnetic_table(config.ring)]).transpose(0, 2, 1, 3)
    mags = np.abs(vecs)
    floor = 1e-13 * mags.max(axis=(1, 2, 3))
    kind, src, dst = np.nonzero(mags.max(axis=3) > floor[:, None, None])
    vec = vecs[kind, src, dst]
    table = _table(
        kind=np.array([k.value for k in KINDS])[kind],
        from_l=ell[src], from_band=_BAND_NAMES[band[src]],
        to_l=ell[dst], to_band=_BAND_NAMES[band[dst]],
        x_re=vec[:, 0].real, x_im=vec[:, 0].imag, y_re=vec[:, 1].real,
        y_im=vec[:, 1].imag, z_re=vec[:, 2].real, z_im=vec[:, 2].imag,
        nonzero_components=COMPONENTS[
            (mags[kind, src, dst] > floor[kind, None]) @ COMPONENT_BITS],
        selection_rule=COMPONENTS[
            selection_table(n)[kind, band[src], band[dst], (ell[dst] - ell[src]) % n]],
    )
    n_e = int(np.count_nonzero(table["kind"] == DipoleKind.ELECTRIC.value))
    summary = (f"elements: {n_e} electric and {len(table) - n_e} magnetic "
               "nonzero dipole elements")
    return table, summary, EXIT_OK


def _cmd_response(config: RunConfig):
    medium = _medium(config)
    delta0 = resonance_frequency(medium)
    omegas = _omega_grid(config)
    t = response_tensors(medium, omegas)
    complex_columns = {"eta": t.eta, "eps1": t.eps1, "mu1": t.mu1}
    for name, tensor in (("eps", t.eps_r), ("mu", t.mu_r)):
        for comp, (i, j) in (("xx", (0, 0)), ("yz", (1, 2)), ("zz", (2, 2))):
            complex_columns[f"{name}_{comp}"] = tensor[:, i, j]
    detuning = omegas - delta0
    columns = {"omega_rad_s": omegas, "detuning_rad_s": detuning,
               "detuning_ev": angular_frequency_to_ev(detuning)}
    for name, values in complex_columns.items():
        columns[f"{name}_re"], columns[f"{name}_im"] = values.real, values.imag
    columns["near_resonance"] = t.near_resonance
    table = _table(**columns)
    n_neg = int(np.count_nonzero((table["eps1_re"] < 0) & (table["mu1_re"] < 0)))
    summary = (f"response: {len(table)} frequencies, {n_neg} with eps1 < 0 and "
               f"mu1 < 0; alpha={t.alpha:.4g} beta={t.beta:.4g}")
    return table, summary, EXIT_OK


def _cmd_phase_diagram(config: RunConfig):
    medium = MediumConfig(config.ring, lossy=False)
    delta0 = resonance_frequency(medium)
    thetas = _theta_grid(config)
    omegas = _omega_grid(config)
    diagram = phase_diagram(medium, config.polarization, thetas, omegas)
    table = BlockedTable(
        head=_table(theta_deg=np.degrees(thetas)),
        tail=_table(
            omega_rad_s=np.repeat(omegas, 4),
            detuning_rad_s=np.repeat(omegas - delta0, 4),
            code=np.tile(_CODES, len(omegas)),
            label=np.tile(_CODE_LABELS, len(omegas)),
        ),
        codes=diagram.codes,
    )
    n_lh, n_tr, n_rh, n_masked = (np.count_nonzero(diagram.codes == c) for c in _CODES)
    summary = (f"phase-diagram {config.polarization.value}: "
               f"LH cells {n_lh}, RH cells {n_rh}, TR cells {n_tr}, masked {n_masked} "
               "(codes: LH=-1, RH=+1, TR=0, masked=2)")
    return table, summary, EXIT_OK


def _default_surface_detunings(medium: MediumConfig) -> list[float]:
    delta0 = resonance_frequency(medium)
    below = -0.5 * delta0 * HBAR / EV
    zeros = mu1_zero_detunings(medium)
    if zeros is None:
        return [below]
    mid = 0.5 * (zeros[0] + zeros[1]) * HBAR / EV
    above = 2.0 * zeros[1] * HBAR / EV
    return [below, mid, above]


def _cmd_surface(config: RunConfig):
    medium = MediumConfig(config.ring, lossy=False)
    delta0 = resonance_frequency(medium)
    detunings = (config.surface_detunings_ev
                 if config.surface_detunings_ev is not None
                 else _default_surface_detunings(medium))
    omegas, surfaces = [], []
    for det_ev in detunings:
        om = delta0 + det_ev * EV / HBAR
        if om <= 0:
            raise ConfigError(
                f"surface detuning {det_ev} eV puts omega below zero")
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
    summary = "surface: " + "; ".join(conics)
    return table, summary, EXIT_OK


def _cmd_bandwidth(config: RunConfig):
    conventions = (VolumeConvention.CYLINDER_4W, VolumeConvention.CYLINDER_2W)
    media = [MediumConfig(replace(config.ring, volume_convention=c)) for c in conventions]
    a, b = np.array([alpha_beta(medium) for medium in media]).T
    tau = np.array([critical_lifetime(medium) for medium in media])
    table = _table(
        volume_convention=[c.value for c in conventions],
        molecular_volume_m3=[molecular_volume(medium) for medium in media],
        eta_prefactor_rad_s=[eta_prefactor(medium) for medium in media],
        alpha=a, beta=b, bandwidth_rad_s=[bandwidth(medium) for medium in media],
        tau_c_s=tau, tau_c_ns=tau / NS, gamma_per_s=[config.ring.decay_rate] * 2,
    )
    summary = (
        f"bandwidth: tau_c {tau[0] / NS:.4g} ns (cylinder_4w) vs {tau[1] / NS:.4g} ns "
        "(cylinder_2w); the conventions differ by exactly a factor 2"
    )
    return table, summary, EXIT_OK


def _cmd_validate(config: RunConfig):
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
    _atomic_write(path, _blocked_chunks(table, config.format)
                  if isinstance(table, BlockedTable)
                  else _table_chunks(list(table.dtype.names), table, config.format))
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
    descriptions = {
        "spectrum": "band energies of all 2N states",
        "elements": "nonzero electric and magnetic dipole elements",
        "response": "eta, permittivity and permeability over a frequency sweep",
        "phase-diagram": "LH/RH/TR classification over a (theta, omega) grid",
        "surface": "wave-vector surface samples and conic class",
        "bandwidth": "negative-permeability bandwidth and critical lifetime",
        "validate": "cross-check closed forms against the dense numerics",
    }
    for name, desc in descriptions.items():
        cmd = sub.add_parser(name, help=desc)
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
