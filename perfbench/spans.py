"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function of the seven library
modules with a timing wrapper, both in the module that defines it and under
every name another module imported it as (``cli.phase_diagram``,
``refraction.response_tensors``, ...).  Calls made through a module alias
(``rf.lossy_lh_window``) or a call-time ``from .x import y`` resolve to the
wrapped definition.  A span opens only when a call crosses from one module
into another; a call within the module that is already running passes
straight through.  The ``cli`` layer is split into three sub-spans,
``cli.parse``, ``cli.run`` and ``cli.emit``, which open even when one cli
function calls another.

Spans and counters live in memory on the tracer; `uninstall` restores the
original functions.  Private helpers, class constructors and properties are
not wrapped: their time counts towards the span that called them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("ring", "dipole", "response", "refraction", "bruteforce", "validation", "cli")
CLI_SUBSPANS = {"parse_config": "cli.parse", "run_command": "cli.run", "emit_table": "cli.emit"}
FULL_SUMS = frozenset({"epsilon_from_full_sum", "mu_from_full_sum", "full_polarization",
                       "full_magnetization", "full_response_sums"})


def _nbytes(value) -> int:
    """Bytes held by the arrays in a returned value (computed, not measured)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(_nbytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def _count(counts: Counter, module: str, name: str, args, result):
    """Work counters recorded where the work crosses a layer boundary."""
    if module == "response":
        if name == "response_tensors" and np.ndim(args[1]) == 0:
            counts["response.scalar_calls"] += 1
        elif name in FULL_SUMS:
            counts["response.full_sum_calls"] += 1
    elif module == "dipole":
        if name in ("electric_element", "magnetic_element"):
            counts["dipole.element_calls"] += 1
        elif name in ("electric_table", "magnetic_table"):
            counts["dipole.table_entries"] += result.size
    elif module == "refraction" and name == "phase_diagram":
        counts["refraction.grid_cells"] += result.codes.size
    elif module == "bruteforce":
        counts["bruteforce.dense_bytes"] += _nbytes(result)
    elif module == "cli" and name == "emit_table":
        counts["cli.emit.rows"] += len(args[1])
        counts["cli.emit.bytes"] += len(result)


class Tracer:
    """Span stack, self times and counters of one traced stretch of work."""

    def __init__(self, package):
        self._modules = {m: getattr(package, m) for m in MODULES}
        self._patched: list[tuple[dict, str, object]] = []
        self._stack: list[list] = []   # [layer, module, start, child seconds]
        self.reset()

    def reset(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack.clear()

    def _wrap(self, fn, module: str, layer: str):
        name = fn.__name__
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == module and layer in (module, stack[-1][0]):
                return fn(*args, **kwargs)
            frame = [layer, module, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[2]
                stack.pop()
                self.self_s[layer] += duration - frame[3]
                self.spans[layer] += 1
                if stack:
                    stack[-1][3] += duration
            _count(self.counts, module, name, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public library function under all the names it is bound to."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, mod in self._modules.items():
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if not inspect.isfunction(value):
                    continue
                module = value.__module__.rpartition(".")[2]
                if module not in self._modules:
                    continue
                if module == owner and value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    layer = CLI_SUBSPANS.get(value.__name__, module) if module == "cli" else module
                    wrappers[value] = self._wrap(value, module, layer)
                self._patched.append((namespace, name, value))
                namespace[name] = wrappers[value]

    def uninstall(self):
        for namespace, name, original in reversed(self._patched):
            namespace[name] = original
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds and call counts per module, cli sub-spans, work counters."""
        out = {}
        for module in MODULES:
            layers = [k for k in self.spans if k == module or k.startswith(module + ".")]
            out[f"{module}.calls"] = sum(self.spans[k] for k in layers)
            out[f"{module}.self_s"] = sum(self.self_s[k] for k in layers)
        for layer in CLI_SUBSPANS.values():
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        return out
