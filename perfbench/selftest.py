"""Self-test of the benchmark harness; takes well under a minute.

    python3 perfbench/selftest.py

Checks that
* the comparison passes a relative change of 1e-12 and fails one of 1e-6;
* every workload runs at the smoke size, plain and traced, with every
  metric of BENCHMARK.json and no failed operation;
* a reference with one value changed per operation makes every workload
  report failed operations and exit non-zero;
* a reference with every float scaled by 1 + 1e-12 still passes;
* in a directory holding only BENCHMARK.json and perfbench/ the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads as wl

SECONDS = "0.5"


def bench(args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=run.CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def smoke(workload, trace=0, reference=run.REFERENCE):
    return bench(["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                  "--trace", str(trace), "--smoke", "--reference", str(reference)])


def corrupted(entries: dict) -> dict:
    """The entries with one value changed: a float by 1e-6 of its scale, else a string."""
    floats = sorted(k for k in entries if k.startswith("float/"))
    if floats:
        key = floats[0]
        arr = entries[key].copy()
        arr.flat[0] += 1e-6 * max(float(np.abs(arr).max()), 1.0)
    else:
        key = sorted(k for k in entries if entries[k].dtype.kind == "U"
                     and k != "exact/header")[0]
        arr = entries[key].astype(object)
        arr.flat[0] = str(arr.flat[0]) + "?"
        arr = arr.astype(str)
    return {**entries, key: arr}


def jittered(entries: dict) -> dict:
    return {k: v * (1.0 + 1e-12) if k.startswith("float/") else v
            for k, v in entries.items()}


def check(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    base = {"float/x": np.array([0.0, 1.0, -3.0])}
    check(not wl.compare(jittered(base), base), "1e-12 relative change passes", failures)
    check(bool(wl.compare({"float/x": base["float/x"] + [0, 0, 3e-6]}, base)),
          "1e-6 relative change fails", failures)
    check(bool(wl.compare({"exact/c": np.array([1.0])}, {"exact/c": np.array([1])})),
          "1.0 where 1 was recorded fails", failures)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ref = wl.load_reference(str(run.REFERENCE))
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch, prefix="selftest-"))
    try:
        bad, soft = tmp / "corrupted.npz.xz", tmp / "jittered.npz.xz"
        smoke_ops = {k for k in ref if k.startswith("smoke.")}
        wl.save_reference(str(bad), {k: corrupted(v) if k in smoke_ops else v
                                     for k, v in ref.items()})
        wl.save_reference(str(soft), {k: jittered(v) for k, v in ref.items()})
        for workload in wl.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                code, res = smoke(workload, trace)
                names = {m["name"] for m in spec[kind]}
                check(code == 0 and res is not None and res["correct"]
                      and res["failed"] == 0 and set(res["metrics"]) == names,
                      f"{workload} smoke, trace {trace}: every {kind} metric, no failure",
                      failures)
            code, res = smoke(workload, reference=bad)
            check(code != 0 and res is not None and not res["correct"]
                  and res["failed"] > 0,
                  f"{workload} with a corrupted reference: fail_ratio "
                  f"{res and res['failed']}/{res and res['attempted']}, exit {code}",
                  failures)
            code, res = smoke(workload, reference=soft)
            check(code == 0 and res is not None and res["failed"] == 0,
                  f"{workload} with floats scaled by 1 + 1e-12 passes", failures)
        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res = bench(["--workload", "tables", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
        check(code != 0 and res is None,
              f"without the program: exit {code}, no result", failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
