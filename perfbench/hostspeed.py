"""Host speed factor: how much slower than the reference speed the host runs now.

On a shared host, other tenants slow every operation by a factor that drifts
over tens of seconds; on a shared 2-core VM the wall-clock median of a
20-second run moved by up to 40% from run to run.  Fixed kernels are timed between rounds: Python objects
and calls, numpy arithmetic, and float formatting.  None of them runs
program code, so a change to the program cannot change them.  The geometric
mean of their best-of-three times over `REFERENCE_S` is the factor; a time
divided by it is a time at the reference speed.  Each workload names the
kernels whose mix of interpreter and array work resembles its own.
"""

from __future__ import annotations

import math
import time

import numpy as np

# best-of-three kernel seconds on a quiet host (the machine in BASELINE.json)
REFERENCE_S = {"python": 0.0135, "numpy": 0.0057, "format": 0.0125}
_ARRAY = 262_144


class _Point:
    def __init__(self, x):
        self.x = x

    def scaled(self, y):
        return math.sin(self.x) * y + abs(y)


def _python():
    total = 0.0
    for i in range(20_000):
        total += _Point(i * 1e-3).scaled(1.5)
        total += len({"i": i, "s": str(i)}["s"])
    return total


def _numpy(a, b):
    for _ in range(8):
        np.sqrt(a, out=b)
        b *= 1.5
        b += a
        np.maximum(b, 3.0, out=b)
    return float(b.sum())


def _format():
    return len(",".join(format(i * 1.000001, ".17g") for i in range(20_000)))


class HostSpeed:
    """Times the named kernels; see `REFERENCE_S` for the names."""

    def __init__(self, kernels):
        a = np.arange(_ARRAY, dtype=float)
        b = np.empty_like(a)
        every = {"python": _python, "numpy": lambda: _numpy(a, b), "format": _format}
        self._kernels = {name: every[name] for name in kernels}

    def best_times(self) -> dict[str, float]:
        out = {}
        for name, kernel in self._kernels.items():
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - start)
            out[name] = best
        return out

    def factor(self) -> float:
        times = self.best_times()
        return math.exp(sum(math.log(times[k] / REFERENCE_S[k]) for k in times) / len(times))
