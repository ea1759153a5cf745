"""Layer spans for an in-process run of the dualtriad CLI.

The tracer wraps dualtriad's public functions from outside: it rebinds each
one, in its own module and wherever another module imported it by name, to a
wrapper that records a span (name, start, end, parent, job).  Nothing under
src/ is edited, and `uninstall` puts every original back.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# Span name -> (module, attribute) pairs it wraps.  An attribute "Cls.name"
# is a method of a class in that module.
_POLY_ARITH = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__truediv__", "__pow__")
_SEQUENCES = ("fibonacci", "binomial", "q_int", "q_factorial", "q_binomial", "fibonomial",
              "catalan_entry", "stirling_first", "eulerian", "RootSequence.value",
              "RootSequence.prefix")
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli": [("cli", "main")],
    "output.emit": [("cli", "_emit")],
    "output.format": [("output", "OutputDocument.from_values")],
    "triads.generate": [("triads", n) for n in ("generate_named", "generate_from_banded", "lah_from_roots")],
    "triads.dual": [("triads", n) for n in ("dual_polynomials", "persistent_root_polys")],
    "triads.verify": [("triads", "verify_triad")],
    "exact.linear_combination": [("exact", "linear_combination")],
    "exact.poly_arith": [("exact", "Polynomial." + n) for n in _POLY_ARITH],
    "sequences": [("sequences", n) for n in _SEQUENCES],
    "dynsys.solve_f": [("dynsys", "solve_step_matrix")],
    "dynsys.phi": [("dynsys", "phi_from_step_matrix")],
    "dynsys.fit": [("dynsys", "fit_banded")],
    "dynsys.convolve": [("dynsys", "convolve_fibonomial")],
}
# Spans whose return value is kept for inspection after the job.
_KEEP_RESULT = ("triads.generate", "triads.verify")

PER_LAYER_UNITS = {
    "exact.linear_combination.s": "s",
    "exact.linear_combination.calls": "count",
    "exact.poly_arith.s": "s",
    "exact.poly_arith.calls": "count",
    "triads.verify.s": "s",
    "triads.verify.rows": "count",
    "triads.dual.s": "s",
    "triads.generate.s": "s",
    "sequences.s": "s",
    "sequences.calls": "count",
    "triads.entry_bits_max": "bits",
    "dynsys.solve_f.s": "s",
    "dynsys.phi.s": "s",
    "dynsys.fit.s": "s",
    "dynsys.convolve.s": "s",
    "output.format.s": "s",
    "output.emit.s": "s",
    "output.bytes": "bytes",
    "output.errors": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans as [name, start, end, parent index, job id, raised]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.results: list[tuple[str, object]] = []
        self.job = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, results, clock = self.spans, self._stack, self.results, time.perf_counter
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1], self.job, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if keep:
                results.append((name, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dualtriad" or n.startswith("dualtriad.")]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[f"dualtriad.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._restore.append((cls, method, raw))
                    setattr(cls, method, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, value))
                            setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def take_results(self) -> list[tuple[str, object]]:
        taken = list(self.results)
        self.results.clear()
        return taken


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int], int]:
    """Self time and call count per span name, and the number of exceptions
    that left the output layer.  Self time is a span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _job, _raised in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    output_errors = 0
    for i, (name, start, end, parent, _job, raised) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        calls[name] += 1
        if raised and name.startswith("output.") and not (parent >= 0 and spans[parent][0].startswith("output.")):
            output_errors += 1
    return self_s, calls, output_errors


def layer_metrics(spans: list[list], verify_rows: int, entry_bits_max: int,
                  output_bytes: int, overhead_s: float) -> dict[str, float]:
    self_s, calls, output_errors = self_times(spans)
    metrics: dict[str, float] = {
        "exact.linear_combination.calls": calls["exact.linear_combination"],
        "exact.poly_arith.calls": calls["exact.poly_arith"],
        "triads.verify.rows": verify_rows,
        "sequences.calls": calls["sequences"],
        "triads.entry_bits_max": entry_bits_max,
        "output.bytes": output_bytes,
        "output.errors": output_errors,
        "cli.self_s": self_s["cli"],
        "trace.overhead_s": overhead_s,
    }
    for name in LAYERS:
        if name != "cli":
            metrics[f"{name}.s"] = self_s[name]
    return {name: metrics[name] for name in PER_LAYER_UNITS}
