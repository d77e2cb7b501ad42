"""The four benchmark workloads, their operations and their output checks.

Each operation runs once per round and returns what `capture` turns into a
dict of arrays; `compare` checks that dict against the reference recorded
when the benchmark was introduced (see record.py).  Keys name how an
entry is compared:

* ``float/<col>``  every value within 1e-9 of the largest absolute reference
  value of that column, so a reordered sum passes and a wrong value fails;
* ``exact/<col>``  identical (non-float columns, exit codes, digests).

Sizes and physics are fixed here; the run seed only shuffles the order of
a round's operations.
"""

from __future__ import annotations

import hashlib
import io
import json
import lzma
import os
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9

SIZES = {
    "full": dict(pd_theta=256, pd_omega=512, response_omega=4096, elements_n=64,
                 sum_n=128, grid_theta=1024, grid_omega=4096),
    "smoke": dict(pd_theta=16, pd_omega=32, response_omega=64, elements_n=8,
                  sum_n=16, grid_theta=32, grid_omega=64),
}

WHY = {
    "tables": "CLI phase-diagram E as CSV and H as JSON plus a 4096-point response "
              "sweep: row building and emit dominate, and the scalar response loop",
    "validate": "CLI validate at the default molecule: lossy normal-incidence loop, "
                "dipole tables against the dense oracle; emits about 30 rows",
    "large_ring": "CLI elements at N=64 and the full Kubo sums at N=128: the dipole "
                  "tables do almost all the work",
    "grid_kernel": "library phase_diagram E and H on 1024x4096 cells with no file "
                   "output: the vectorised classifier and its temporaries",
}
WORKLOADS = tuple(WHY)

# host-speed kernels (hostspeed.py) whose slowdown tracks the workload's: the
# grid classifier is array arithmetic only, the others and set-up (imports)
# run mostly in the interpreter
ALL_KERNELS = ("python", "numpy", "format")
HOST_KERNELS = {**dict.fromkeys(WORKLOADS, ALL_KERNELS), "grid_kernel": ("numpy",)}


@dataclass
class CliOp:
    """One `cli.run_command` call on a generated JSON config."""

    name: str
    command: str
    config: dict
    fmt: str
    floats: tuple[str, ...]
    exact: tuple[str, ...] | None = None   # None: every non-float column

    def prepare(self, mo, tmpdir):
        self._cli = mo.cli
        self._path = os.path.join(tmpdir, f"{self.name}.{self.fmt}")
        self._text = json.dumps({**self.config, "format": self.fmt,
                                 "output_path": self._path})
        mo.cli.parse_config(self._text)   # fail in set-up, not in the first round

    def run(self):
        config = self._cli.parse_config(self._text)
        return self._cli.run_command(self.command, config, stdout=io.StringIO())

    def capture(self, exit_code) -> dict[str, np.ndarray]:
        with open(self._path, "rb") as handle:
            data = handle.read()
        os.unlink(self._path)
        header, columns = (_csv_columns if self.fmt == "csv" else _json_columns)(data)
        out = {"exact/exit_code": np.array([exit_code]),
               "exact/header": np.array(header)}
        for col, values in zip(header, columns):
            if col in self.floats:
                out[f"float/{col}"] = np.array(values, dtype=float)
            elif self.exact is None or col in self.exact:
                out[f"exact/{col}"] = np.array(values)
        return out


def _csv_columns(data: bytes):
    """Header and per-column token lists of a CSV table."""
    text = data.decode("utf-8")
    if not text.endswith("\n"):
        raise ValueError("CSV output does not end with a newline")
    first = text.index("\n")
    header = text[:first].split(",")
    n_rows = text.count("\n") - 1
    body = text[first + 1:-1]
    tokens = body.replace("\n", ",").split(",") if n_rows else []
    if len(tokens) != n_rows * len(header):
        raise ValueError("CSV rows differ in length from the header")
    return header, [tokens[i::len(header)] for i in range(len(header))]


def _json_columns(data: bytes):
    """Header and per-column value lists of a JSON table.

    Values keep their JSON type, so 1, 1.0 and true compare unequal.
    """
    table = json.loads(data)
    header = table["columns"]
    return header, [[row[col] for row in table["rows"]] for col in header]


@dataclass
class LibOp:
    """A direct library call on arguments built once from a generated config."""

    name: str
    config: dict
    setup: object     # (mo, RunConfig) -> argument tuple for call
    call: object      # (mo, *args) -> result
    digest: object    # result -> dict of arrays
    cells: int = 0

    def prepare(self, mo, tmpdir):
        self._mo = mo
        self._args = self.setup(mo, mo.cli.parse_config(json.dumps(self.config)))

    def run(self):
        return self.call(self._mo, *self._args)

    def capture(self, result):
        return self.digest(result)


def _full_sum_args(mo, config):
    medium = mo.response.MediumConfig(config.ring)
    omega = mo.response.resonance_frequency(medium) + 50.0 * config.ring.decay_rate
    return medium, omega


def _full_sum(mo, medium, omega):
    return (mo.response.epsilon_from_full_sum(medium, omega),
            mo.response.mu_from_full_sum(medium, omega))


def _grid_args(pol, n_theta, n_omega):
    def setup(mo, config):
        medium = mo.response.MediumConfig(config.ring)
        delta0 = mo.response.resonance_frequency(medium)
        span = 10.0 * mo.response.bandwidth(medium)
        theta = np.radians(np.linspace(0.0, 89.0, n_theta))
        omega = np.linspace(delta0 - span, delta0 + span, n_omega)
        return medium, mo.refraction.Polarization(pol), theta, omega
    return setup


def _grid(mo, medium, pol, theta, omega):
    return mo.refraction.phase_diagram(medium, pol, theta, omega)


def _grid_digest(diagram):
    codes = np.ascontiguousarray(diagram.codes, dtype=np.int8)
    return {"exact/shape": np.array(codes.shape),
            "exact/sha256": np.array([hashlib.sha256(codes.tobytes()).hexdigest()])}


PD_FLOATS = ("theta_deg", "omega_rad_s", "detuning_rad_s")
RESPONSE_FLOATS = tuple(f"{q}_{p}" for q in (
    "eta", "eps1", "mu1", "eps_xx", "eps_yz", "eps_zz", "mu_xx", "mu_yz", "mu_zz")
    for p in ("re", "im")) + ("omega_rad_s", "detuning_rad_s", "detuning_ev")
ELEMENT_FLOATS = tuple(f"{c}_{p}" for c in "xyz" for p in ("re", "im"))


def build(workload: str, size: str) -> list:
    """Operations of one round of `workload` at the `full` or `smoke` size."""
    s = SIZES[size]
    pd = {"theta_count": s["pd_theta"], "omega_count": s["pd_omega"]}
    if workload == "tables":
        return [
            CliOp("phase_diagram_csv", "phase-diagram", {**pd, "polarization": "E"},
                  "csv", PD_FLOATS),
            CliOp("phase_diagram_json", "phase-diagram", {**pd, "polarization": "H"},
                  "json", PD_FLOATS),
            CliOp("response_csv", "response", {"omega_count": s["response_omega"]},
                  "csv", RESPONSE_FLOATS),
        ]
    if workload == "validate":
        return [CliOp("validate", "validate", {}, "csv", (), exact=("name", "passed"))]
    if workload == "large_ring":
        return [
            CliOp("elements", "elements", {"n_per_ring": s["elements_n"]}, "csv",
                  ELEMENT_FLOATS),
            LibOp("full_sum", {"n_per_ring": s["sum_n"]}, _full_sum_args, _full_sum,
                  lambda r: {"float/eps": r[0], "float/mu": r[1]}),
        ]
    if workload == "grid_kernel":
        n_theta, n_omega = s["grid_theta"], s["grid_omega"]
        return [LibOp(f"grid_{pol}", {}, _grid_args(pol, n_theta, n_omega), _grid,
                      _grid_digest, cells=n_theta * n_omega) for pol in ("E", "H")]
    raise ValueError(f"unknown workload {workload!r}")


def compare(got: dict, ref: dict) -> list[str]:
    """Problems found comparing captured arrays with the reference arrays."""
    problems = []
    if set(got) != set(ref):
        problems.append(f"entries differ: missing {sorted(set(ref) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(ref))}")
    for key in sorted(set(got) & set(ref)):
        g, r = got[key], ref[key]
        if g.shape != r.shape:
            problems.append(f"{key}: shape {g.shape} != {r.shape}")
        elif key.startswith("float/"):
            finite = np.isfinite(r)
            tol = REL_TOL * (float(np.abs(r[finite]).max()) if finite.any() else 0.0)
            with np.errstate(invalid="ignore"):   # inf - inf
                same = (g == r) | (np.isnan(g) & np.isnan(r)) | (np.abs(g - r) <= tol)
            if not same.all():
                i = int(np.flatnonzero(~same.ravel())[0])
                problems.append(f"{key}: {(~same).sum()} values off by more than "
                                f"{tol:.3g}, first at {i}: {g.ravel()[i]!r} != "
                                f"{r.ravel()[i]!r}")
        elif g.dtype.kind != r.dtype.kind or not np.array_equal(g, r):
            problems.append(f"{key}: differs from the reference")
    return problems


def reference_key(size: str, op_name: str) -> str:
    return f"{size}.{op_name}"


def save_reference(path: str, ref: dict[str, dict[str, np.ndarray]]):
    flat = {f"{op}/{key}": arr for op, entries in ref.items()
            for key, arr in entries.items()}
    buf = io.BytesIO()
    np.savez(buf, **flat)
    with open(path, "wb") as handle:
        handle.write(lzma.compress(buf.getvalue(), preset=9))


def load_reference(path: str) -> dict[str, dict[str, np.ndarray]]:
    with open(path, "rb") as handle:
        data = lzma.decompress(handle.read())
    ref: dict[str, dict[str, np.ndarray]] = {}
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        for flat in npz.files:
            op, _, key = flat.partition("/")
            ref.setdefault(op, {})[key] = npz[flat]
    return ref
