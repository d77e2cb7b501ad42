"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py

Runs each operation of every workload once, at the full and the smoke
size, and writes perfbench/reference.npz.xz.  Run it only on a commit whose
outputs are known to be right; the checked-in file was recorded at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import sys
import tempfile

import run
import workloads as wl


def main() -> int:
    package = run.import_program()
    ref = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmpdir:
        for size in wl.SIZES:
            for workload in wl.WORKLOADS:
                for op in wl.build(workload, size):
                    op.prepare(package, tmpdir)
                    got = op.capture(op.run())
                    if "exact/exit_code" in got and got["exact/exit_code"][0] != 0:
                        raise SystemExit(f"{op.name} exited {got['exact/exit_code'][0]}")
                    if "exact/passed" in got and not (got["exact/passed"] == "1").all():
                        raise SystemExit(f"{op.name}: not every check passed")
                    ref[wl.reference_key(size, op.name)] = got
                    print(f"recorded {size} {op.name}: {len(got)} entries")
    wl.save_reference(str(run.REFERENCE), ref)
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
