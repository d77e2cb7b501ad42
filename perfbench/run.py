"""Benchmark of the mobius-optics library and CLI.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy.  Each
workload runs in this one process as a closed loop with one client: a round
runs every operation of the workload once, in an order shuffled by
``--seed``, and checks each output against ``perfbench/reference.npz.xz``.
One untimed warm-up round comes first; then rounds repeat until
``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``round_norm_s`` (median seconds of one round's operations), ``setup_s``
(median over fresh processes that import ``mobius_optics.cli``, parse the
workload's configs and load the reference) and ``peak_rss_mb``.  Both times
are rescaled to the reference host speed (see hostspeed.py).  ``--trace 1``
alternates plain and traced rounds and reports the per-layer metrics
(medians over traced rounds, per round) and ``trace.overhead_ratio``.
``--workload all`` runs every workload in its own process, in both modes.
BLAS and OpenMP pools are capped at one thread.  The last line of standard
output is the JSON result; the exit code is 1 when an output check failed.
"""

from __future__ import annotations

import os

THREAD_CAPS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                    "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)   # before numpy starts its thread pools

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.npz.xz"
SETUP_REPEATS = {"full": 5, "smoke": 1}
CHILD_TIMEOUT_S = 170


class ProgramMissing(RuntimeError):
    pass


def require_program():
    if not (SRC / "mobius_optics" / "__init__.py").is_file():
        raise ProgramMissing(f"no mobius_optics sources under {SRC}")


def import_program():
    """The mobius_optics package from this checkout's src/ directory."""
    require_program()
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("mobius_optics")
    if Path(package.__file__).resolve().parent != SRC / "mobius_optics":
        raise ProgramMissing(f"mobius_optics imported from {package.__file__}, not {SRC}")
    for module in ("cli", "response", "refraction"):
        importlib.import_module(f"mobius_optics.{module}")
    return package


def setup(workload, size, reference, tmpdir):
    """Import the program, parse every config of the workload, load the reference."""
    package = import_program()
    ops = wl.build(workload, size)
    for op in ops:
        op.prepare(package, tmpdir)
    ref = wl.load_reference(reference)
    return package, ops, ref


def size_of(args) -> str:
    return "smoke" if args.smoke else "full"


class Clock:
    """Rescales measured seconds to the reference host speed.

    The host factor is measured before the first interval and after each
    one; an interval is divided by the mean of the factors around it.
    """

    def __init__(self, kernels):
        self._speed = hostspeed.HostSpeed(kernels)
        self._last = self._speed.factor()
        self.factors = [self._last]

    def rescale(self, seconds: float) -> float:
        before, self._last = self._last, self._speed.factor()
        self.factors.append(self._last)
        return seconds / ((before + self._last) / 2.0)


def time_setups(args, clock) -> list[float]:
    """Rescaled wall seconds of fresh processes that only run `setup`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--reference", str(args.reference)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(SETUP_REPEATS[size_of(args)]):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        out.append(clock.rescale(time.perf_counter() - start))
    return out


@dataclass
class Rounds:
    """Wall seconds per operation of each round, and each round's rescaled total."""

    wall: list[dict[str, float]] = field(default_factory=list)
    rescaled: list[float] = field(default_factory=list)

    def median(self) -> float:
        return statistics.median(self.rescaled)


class Runner:
    """Runs rounds of a workload's operations and checks every output."""

    def __init__(self, ops, ref, size, seed):
        self.ops = ops
        self.ref = {op.name: ref.get(wl.reference_key(size, op.name)) for op in ops}
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0

    def run_op(self, op) -> float:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            elapsed = time.perf_counter() - start
            problems = [f"raised {exc!r}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                got = op.capture(result)
            except Exception as exc:  # unreadable output is a failed operation
                problems = [f"output unreadable: {exc!r}"]
            else:
                ref = self.ref[op.name]
                problems = (["no reference recorded"] if ref is None
                            else wl.compare(got, ref))
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {op.name}: " + "; ".join(problems), file=sys.stderr)
        gc.collect()
        return elapsed

    def round(self, shuffle=True) -> dict[str, float]:
        order = list(self.ops)
        if shuffle:
            self.rng.shuffle(order)
        return {op.name: self.run_op(op) for op in order}

    def timed_round(self, rounds: Rounds, clock: Clock):
        wall = self.round()
        rounds.wall.append(wall)
        rounds.rescaled.append(clock.rescale(sum(wall.values())))


def measure(args):
    size = size_of(args)
    setups = [] if args.trace else time_setups(args, Clock(wl.ALL_KERNELS))
    clock = Clock(wl.HOST_KERNELS[args.workload])
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch, prefix="run-")
    try:
        package, ops, ref = setup(args.workload, size, args.reference, tmpdir)
        runner = Runner(ops, ref, size, args.seed)
        tracer = spans.Tracer(package) if args.trace else None
        runner.round(shuffle=False)   # warm-up in a fixed order, checked, not timed
        plain, traced, layers = Rounds(), Rounds(), []
        clock.rescale(0.0)   # fresh host factor before the first timed round
        deadline = time.perf_counter() + args.seconds
        while not plain.wall or (tracer and not traced.wall) or time.perf_counter() < deadline:
            runner.timed_round(plain, clock)
            if tracer:
                tracer.reset()
                tracer.install()
                try:
                    runner.timed_round(traced, clock)
                finally:
                    tracer.uninstall()
                layers.append(tracer.layer_metrics())
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return runner, ops, clock, setups, plain, traced, layers


def op_details(ops, rounds: Rounds) -> dict[str, tuple[float, str]]:
    """Wall-clock medians per operation; grid operations as cells per second."""
    out = {"round_wall_s": (statistics.median(sum(r.values()) for r in rounds.wall), "s")}
    grid = [op for op in ops if getattr(op, "cells", 0)]
    for op in ops:
        if op not in grid:
            out[f"{op.name}_s"] = (statistics.median(r[op.name] for r in rounds.wall), "s")
    if grid:
        out["grid_cells_per_s"] = (statistics.median(
            op.cells / r[op.name] for op in grid for r in rounds.wall), "cells/s")
    return out


def result_metrics(args, spec, setups, plain, traced, layers):
    if args.trace:
        kind = "per_layer"
        values = {m["name"]: statistics.median_low(lm.get(m["name"], 0) for lm in layers)
                  for m in spec[kind]}
        values["trace.overhead_ratio"] = traced.median() / plain.median() - 1.0
    else:
        kind = "end_to_end"
        values = {"round_norm_s": plain.median(), "setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def report(args, runner, ops, clock, plain, traced, metrics):
    print(f"workload {args.workload} ({size_of(args)}), seed {args.seed}, "
          f"trace {args.trace}: {len(plain.wall)} plain and {len(traced.wall)} traced "
          f"rounds after one warm-up round; threads capped at 1")
    print(f"  rescaled round seconds: min {min(plain.rescaled):.4g}, median "
          f"{plain.median():.4g}, max {max(plain.rescaled):.4g}; host factor "
          f"min {min(clock.factors):.3g}, median {statistics.median(clock.factors):.3g}, "
          f"max {max(clock.factors):.3g}")
    details = {} if args.trace else op_details(ops, plain)
    details["fail_ratio"] = (runner.failed / runner.attempted, "failed/attempted")
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in details.items()]
    for name, value, unit in rows:
        print(f"  {name:<24} {value:>16.6g} {unit}")
    print("# detail " + json.dumps({k: {"value": v, "unit": u}
                                    for k, (v, u) in details.items()}))


def run_all(args) -> int:
    summary = {"machine": machine_info(), "seed": args.seed, "seconds": args.seconds,
               "size": size_of(args), "workloads": {}}
    status = 0
    for workload in wl.WORKLOADS:
        entry = summary["workloads"].setdefault(workload, {"why": wl.WHY[workload]})
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--reference", str(args.reference)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                if line.startswith("# detail "):
                    entry.setdefault("detail", {}).update(json.loads(line[9:]))
                else:
                    print(line)
            if proc.returncode != 0 or not lines:
                print(f"workload {workload} trace {trace} exited {proc.returncode}")
                status = 1
                continue
            entry[f"trace{trace}"] = json.loads(lines[-1])
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"ok": status == 0}))
    return status


def machine_info() -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": THREAD_CAPS, "host_speed_reference_s": hostspeed.REFERENCE_S}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up sample: every workload in seconds")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="recorded outputs to check against")
    parser.add_argument("--out", help="with --workload all: write the summary JSON here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
        if args.setup_probe:
            setup(args.workload, size_of(args), args.reference, str(ROOT / ".perfbench_tmp"))
            return 0
        if args.workload == "all":
            return run_all(args)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        runner, ops, clock, setups, plain, traced, layers = measure(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = result_metrics(args, spec, setups, plain, traced, layers)
    report(args, runner, ops, clock, plain, traced, metrics)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
