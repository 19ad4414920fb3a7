"""One benchmark operation in a fresh interpreter.

Protocol with ``run.py``: the spec arrives as a JSON argument.  The process
imports dpratio, runs a small warm-up call of the same entry point, prints
one ``ready`` line and waits for a line on stdin.  It then runs the
operation once, between two runs of a machine-speed probe, and prints one
JSON result line.  Everything the program itself prints is captured, so
stdout carries only the protocol.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import resource
import sys
import time

import numpy as np


def _cpu_seconds() -> float:
    """User+sys CPU of this process and of its children that were waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MiB.

    The own peak is read as ``VmHWM``, which starts afresh at exec; the
    rusage figure would also carry the spawning process's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


def _probe_s() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    It does not touch dpratio, so it measures how fast the machine runs at
    the moment, which on a shared host drifts by tens of percent in minutes.
    """
    start = time.perf_counter()
    acc = 0.0
    values = np.linspace(0.0, 1.0, 64)
    for i in range(20_000):
        acc += float(np.sum(values * (i % 7))) + math.fsum((0.1 * i, 1.5, -0.25))
        acc += len(str(i * 0.37).split("."))
    return time.perf_counter() - start


def _imports(module: str) -> bool:
    try:
        importlib.import_module(module)
    except ImportError:
        return False
    return True


def _call(call: dict, tracer=None):
    """Run one call of the entry point; return (exit status, output)."""
    import dpratio.cli
    import dpratio.simulation

    if call["kind"] == "experiment":
        config = dict(call["config"], epsilons=tuple(call["config"]["epsilons"]))
        # Looked up at call time so a tracer's wrapper is the one called.
        rows = dpratio.simulation.run_experiment(dpratio.simulation.SimulationConfig(**config))
        return 0, [row.to_json_dict() for row in rows]

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        if tracer is None:
            status = dpratio.cli.main(call["argv"])
        else:
            root = tracer.open("cli." + call["argv"][0])
            try:
                status = dpratio.cli.main(call["argv"])
            finally:
                tracer.close(root)
    return status, captured.getvalue()


def main() -> int:
    spec = json.loads(sys.argv[1])
    import dpratio

    _call(spec["warmup"])
    print("ready", flush=True)
    sys.stdin.readline()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    probe_before = _probe_s()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    status, output = _call(spec["call"], tracer)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    probe_after = _probe_s()

    result = {
        "status": status,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "probe_s": [probe_before, probe_after],
        "output": output,
        "facts": {"backend": getattr(dpratio, "BACKEND", None), "numba_imports": _imports("numba")},
    }
    if tracer is not None:
        with open(spec["spans_file"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["counts"] = dict(tracer.counts)
        result["present"] = tracer.present
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
