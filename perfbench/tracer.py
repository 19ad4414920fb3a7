"""Span and counter recording around dpratio's layer boundaries, from outside.

The tracer swaps wrappers into the module attributes that callers look up
(``dpratio.simulation.release``, ``dpratio.core.weighted_sums``, ...).  Each
wrapper records a span (name, start, end, parent) in memory and counts what
it can see in the call's arguments and return value.  No source file of the
program changes.  A layer whose wrapped names no longer exist is reported
absent, so the traced run survives refactors that fold or batch layers.

Wrappers see only the calling process: spans inside pool workers are out of
reach, so pooled workloads are traced single-process.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

#: Layer name -> (module, attribute) pairs the layer's callers look up.
LAYERS = {
    "core.read_dataset_csv": [("dpratio.cli", "read_dataset_csv")],
    "core.compute_sums": [
        ("dpratio.cli", "compute_sums_from_arrays"),
        ("dpratio.simulation", "compute_sums_from_arrays"),
    ],
    "kernels.weighted_sums": [("dpratio.core", "weighted_sums")],
    "simulation.generate_arrays": [("dpratio.simulation", "generate_arrays")],
    "simulation.run_experiment": [
        ("dpratio.cli", "run_experiment"),
        ("dpratio.simulation", "run_experiment"),
    ],
    "simulation.write_rows_csv": [("dpratio.cli", "write_rows_csv")],
    "mechanisms.release": [("dpratio.cli", "release"), ("dpratio.simulation", "release")],
    "inference.public": [("dpratio.cli", "public_estimate"), ("dpratio.simulation", "public_estimate")],
    "inference.no_correction": [
        ("dpratio.cli", "ci_no_correction"),
        ("dpratio.simulation", "ci_no_correction"),
    ],
    "inference.monte_carlo": [("dpratio.cli", "ci_monte_carlo"), ("dpratio.simulation", "ci_monte_carlo")],
    "inference.analytical": [("dpratio.cli", "ci_analytical"), ("dpratio.simulation", "ci_analytical")],
    "inference.draw_noise": [("dpratio.inference", "draw_noise")],
}

_MC = "inference.monte_carlo"


class Tracer:
    """In-memory spans plus counters taken at the wrapper boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.present: dict[str, bool] = {}
        self._stack: list[int] = []
        self._drawn: Counter = Counter()  # noise values drawn under each MC span

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        """Wrap every layer target that exists; record which layers exist."""
        for layer, targets in LAYERS.items():
            patched = False
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self._wrap(layer, fn))
                patched = True
            self.present[layer] = patched

    def _wrap(self, layer: str, fn):
        on_call = on_return = None
        if layer.startswith("inference.") and layer != "inference.draw_noise":
            on_return = self._count_flags
        if layer == "kernels.weighted_sums":
            on_call = self._count_kernel_rows
        elif layer == "inference.draw_noise":
            on_call = self._count_draws
        elif layer == "core.read_dataset_csv":
            on_return = self._count_parsed_rows
        elif layer == _MC and "draws" in inspect.signature(fn).parameters:
            params = inspect.signature(fn).parameters
            draws_at = list(params).index("draws")
            draws_default = params["draws"].default

            def on_return(index, args, kwargs, result):
                self._count_flags(index, args, kwargs, result)
                drawn = self._drawn.pop(index, 0)
                if drawn:
                    if len(args) > draws_at:
                        draws = args[draws_at]
                    else:
                        draws = kwargs.get("draws", draws_default)
                    # Each accepted replicate used one numerator and one denominator draw.
                    self.counts[_MC + ".draws_accepted"] += 2 * draws
                    self.counts[_MC + ".draws_completed"] += drawn

        counts_refusals = layer.startswith("inference.")
        calls_key = layer + ".calls"
        spans, stack, counts, drawn, clock = self.spans, self._stack, self.counts, self._drawn, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            span = [layer, 0.0, None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                drawn.pop(index, None)
                if counts_refusals:
                    counts[f"inference.refusals.{type(exc).__name__}"] += 1
                raise
            span[2] = clock()
            stack.pop()
            counts[calls_key] += 1
            if on_return is not None:
                on_return(index, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_flags(self, index, args, kwargs, result) -> None:
        for flag in getattr(result, "flags", ()):
            self.counts[f"inference.flags.{flag}"] += 1

    def _count_kernel_rows(self, args, kwargs) -> None:
        self.counts["kernels.weighted_sums.rows"] += len(args[0] if args else kwargs["y"])

    def _count_parsed_rows(self, index, args, kwargs, result) -> None:
        if isinstance(result, tuple):  # (y, s, w) columns
            self.counts["core.read_dataset_csv.rows"] += len(result[0])

    def _count_draws(self, args, kwargs) -> None:
        if self._stack and self.spans[self._stack[-1]][0] == _MC:
            size = args[3] if len(args) > 3 else kwargs.get("size")
            drawn = 1 if size is None else int(size)
            self.counts[_MC + ".draws_attempted"] += drawn
            self._drawn[self._stack[-1]] += drawn


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], float]:
    """Per-name self and total seconds, plus the summed root-span seconds.

    Self time is a span's duration minus the durations of its child spans;
    spans nest within one thread, so self times add up to the root time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    root_s = 0.0
    for (name, start, end, parent), children in zip(spans, child_time):
        self_s[name] += (end - start) - children
        total_s[name] += end - start
        if parent is None:
            root_s += end - start
    return dict(self_s), dict(total_s), root_s
