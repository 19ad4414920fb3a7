#!/usr/bin/env python3
"""Pipeline benchmark for dpratio, measured from outside the program.

Usage, from the repository root:

    python3 perfbench/run.py --workload acceptance_cell --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30      # every workload, one table

One operation is one call of the workload's entry point in a fresh
interpreter (``op.py``), with ``src/`` of this checkout on the import path.
The loop is closed: one client, the next operation starts when the previous
one has ended, so at most the operation's own process pool runs beside it.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: medians
over the run's operations of wall and CPU seconds of the call, set-up
seconds (interpreter start through ``import dpratio`` and a small warm-up
call of the same entry point) and peak resident memory.  ``--trace 1``
reports the per-layer metrics from a traced run (see ``tracer.py``), with
untraced operations of the same call taken in turn with the traced ones;
their difference is the tracing overhead.

The three times are reported at a reference machine speed.  On the shared
2-core VM this benchmark was defined on, machine speed drifted by 15-30%
over minutes, which no repetition within a run removes.  Each operation is
therefore bracketed by a fixed probe computation (``op.py``) and each time
is scaled by ``PROBE_REF_S / probe seconds``: seconds on a machine where
the probe takes ``PROBE_REF_S``.  The measured seconds and the probe are
printed beside them and kept in the result file.

Every operation's output is checked.  An operation fails if it raises,
exits non-zero or fails its check; the last stdout line is the JSON result,
and a detailed record with machine facts goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

OP_TIMEOUT_S = 60
PROBE_REF_S = 0.1
MIN_CYCLES = 3
EPSILONS = [0.2, 0.5, 1.0, 4.0]
REPLICATIONS = 1000

#: The acceptance suite's main cell (tests/test_acceptance.py).  Its master
#: seed is part of the cell: the acceptance targets below hold at that seed.
ACCEPTANCE_CONFIG = {
    "n": 5000,
    "epsilons": EPSILONS,
    "replications": REPLICATIONS,
    "mc_draws": 200,
    "master_seed": 20250801,
}
#: (method, epsilon) -> {field: (target, tolerance)}, as in the acceptance suite.
ACCEPTANCE_TARGETS = {
    ("public", None): {"width": (0.061, 0.003), "coverage": (0.951, 0.02), "score": (0.073, 0.008)},
    ("no_correction", 0.2): {"coverage": (0.231, 0.06)},
    ("monte_carlo", 0.5): {"width": (0.156, 0.02), "coverage": (0.952, 0.02)},
    ("analytical", 0.5): {"width": (0.156, 0.02), "coverage": (0.946, 0.02)},
}
DP_METHODS = ["no_correction", "monte_carlo", "analytical"]

ESTIMATE_ROWS = 1_000_000
W_CLIP = (1.0 / 3.0, 3.0)
POINT_RTOL = 1e-3
SIGMA_TOL = 6.0


def _csv_text(y: np.ndarray, s: np.ndarray, w: np.ndarray) -> str:
    # repr round-trips, so the CLI parses exactly the generated doubles.
    lines = [f"{int(a)},{b!r},{c!r}" for a, b, c in zip(y.tolist(), s.tolist(), w.tolist())]
    return "y,s,w\n" + "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Workloads: inputs, the call each operation makes, and its output check.
# A check returns (errors, fingerprint, refusals).  Fingerprints must match
# across the operations of one run: the program is deterministic given a
# seed.  Refusals (replications without an interval) are counted, not fatal.
# --------------------------------------------------------------------------


class AcceptanceCell:
    """run_experiment on the acceptance cell: kernel- and data-generation-bound."""

    name = "acceptance_cell"
    pooled = False

    def prepare(self, seed: int, work: Path) -> dict:
        return {"seed_note": "the cell keeps its acceptance master seed 20250801"}

    def call(self, op_dir: Path, threads: int | None = None) -> dict:
        return {"kind": "experiment", "config": ACCEPTANCE_CONFIG}

    def warmup(self, op_dir: Path) -> dict:
        return {"kind": "experiment", "config": dict(ACCEPTANCE_CONFIG, n=200, replications=2)}

    def check(self, output, op_dir: Path):
        rows = {(r["method"], r["epsilon"]): r for r in output}
        errors = []
        if len(output) != 1 + 3 * len(EPSILONS):
            errors.append(f"expected {1 + 3 * len(EPSILONS)} rows, got {len(output)}")
        for key, fields in ACCEPTANCE_TARGETS.items():
            row = rows.get(key)
            if row is None:
                errors.append(f"missing row {key}")
                continue
            for field, (target, tol) in fields.items():
                value = row[field]
                if value is None or abs(value - target) > tol:
                    errors.append(f"{key} {field}={value} outside {target}±{tol}")
        refusals = sum(r["refusals"] for r in output)
        return errors, json.dumps(output, sort_keys=True), refusals


class SimulateSmallN:
    """The simulate CLI at n=200, Laplace, both scales: inference- and release-bound."""

    name = "simulate_small_n"
    pooled = True

    def prepare(self, seed: int, work: Path) -> dict:
        self.seed = seed
        return {}

    def _argv(self, out: Path, n: int, replications: int, threads: int | None) -> list[str]:
        argv = ["simulate", "--output-dir", str(out), "--n", str(n), "--weighted",
                "--mechanism", "laplace", "--scale", "both",
                "--replications", str(replications), "--seed", str(self.seed)]
        for eps in EPSILONS:
            argv += ["--epsilon", repr(eps)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return argv

    def call(self, op_dir: Path, threads: int | None = None) -> dict:
        return {"kind": "cli", "argv": self._argv(op_dir / "out", 200, REPLICATIONS, threads)}

    def warmup(self, op_dir: Path) -> dict:
        return {"kind": "cli", "argv": self._argv(op_dir / "warmup", 20, 2, None)}

    def check(self, output, op_dir: Path):
        errors = []
        tables = sorted((op_dir / "out").glob("*.csv"))
        if len(tables) != 2:
            return [f"expected 2 cell CSVs (ratio, log), got {len(tables)}"], None, None
        digest = hashlib.sha256()
        refusals = 0
        expected = ["public"] + [m for _ in EPSILONS for m in DP_METHODS]
        for table in tables:
            data = table.read_bytes()
            digest.update(table.name.encode() + b"\0" + data)
            lines = data.decode().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            if [r[0] for r in rows] != expected:
                errors.append(f"{table.name}: row layout {[r[0] for r in rows]}")
                continue
            for r in rows:
                count = int(r[-1])
                if not 0 <= count <= REPLICATIONS:
                    errors.append(f"{table.name}: refusal count {count} out of range")
                refusals += count
                coverage = float(r[3])
                if count < REPLICATIONS and not 0.0 <= coverage <= 1.0:
                    errors.append(f"{table.name}: coverage {coverage} outside [0, 1]")
        return errors, digest.hexdigest(), refusals


class Estimate1M:
    """The estimate CLI on a weighted 10^6-row CSV: parse-bound, memory grows with n."""

    name = "estimate_1m"
    pooled = False

    def prepare(self, seed: int, work: Path) -> dict:
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Scores near 1 keep the label sum large, so at epsilon=1 the 1e-3
        # relative tolerance on the point is about six noise standard deviations.
        s = rng.beta(9.0, 1.0, ESTIMATE_ROWS)
        y = (rng.random(ESTIMATE_ROWS) < s / 1.1).astype(np.float64)
        w = np.clip(rng.standard_exponential(ESTIMATE_ROWS), *W_CLIP)
        text = _csv_text(y, s, w).encode()
        self.input = work / "estimate_input.csv"
        self.input.write_bytes(text)
        self.warmup_input = work / "estimate_warmup.csv"
        self.warmup_input.write_text(_csv_text(y[:100], s[:100], w[:100]))
        columns = {
            "sum_w": w, "sum_wy": w * y, "sum_ws": w * s, "sum_w2": w * w,
            "sum_wy2": w * y * y, "sum_ws2": w * s * s, "sum_wys": w * y * s,
        }
        self.exact = {name: math.fsum(col) for name, col in columns.items()}
        self.exact_ratio = self.exact["sum_ws"] / self.exact["sum_wy"]
        return {"input_sha256": hashlib.sha256(text).hexdigest(), "input_bytes": len(text)}

    def _argv(self, path: Path) -> list[str]:
        return ["estimate", "--input", str(path), "--binary",
                "--w-bounds", repr(W_CLIP[0]), repr(W_CLIP[1]),
                "--epsilon", "1", "--scale", "both", "--seed", str(self.seed)]

    def call(self, op_dir: Path, threads: int | None = None) -> dict:
        return {"kind": "cli", "argv": self._argv(self.input)}

    def warmup(self, op_dir: Path) -> dict:
        return {"kind": "cli", "argv": self._argv(self.warmup_input)}

    def check(self, output, op_dir: Path):
        doc = json.loads(output)
        released = doc["released"]
        errors = []
        for name, value in released["values"].items():
            sigma = math.sqrt(released["noise_variance"][name])
            if not abs(value - self.exact[name]) <= SIGMA_TOL * sigma:
                errors.append(f"{name}={value} not within {SIGMA_TOL} sigma of {self.exact[name]}")
        estimates = doc["estimates"]
        if len(estimates) != 6:
            errors.append(f"expected 6 estimates, got {len(estimates)}")
        for est in estimates:
            numbers = [est["point"], est["variance"], *est["ci"]]
            if not all(isinstance(x, float) and math.isfinite(x) for x in numbers):
                errors.append(f"non-finite estimate {est}")
                continue
            ratio = math.exp(est["point"]) if est["scale"] == "log" else est["point"]
            if abs(ratio / self.exact_ratio - 1.0) > POINT_RTOL:
                errors.append(f"{est['method']}/{est['scale']} point {ratio} vs exact {self.exact_ratio}")
        fingerprint = json.dumps([released, estimates], sort_keys=True)
        return errors, fingerprint, None


WORKLOADS = {w.name: w for w in (AcceptanceCell(), SimulateSmallN(), Estimate1M())}


# --------------------------------------------------------------------------
# Running operations
# --------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_op(workload, index: int, trace: bool, threads: int | None = None) -> dict:
    """One operation in a fresh process; returns its sample (``ok`` False on failure)."""
    op_dir = WORK / f"op{index}"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    spec = {
        "warmup": workload.warmup(op_dir),
        "call": workload.call(op_dir, threads),
        "trace": trace,
        "spans_file": str(op_dir / "spans.json"),
    }
    sample = {"ok": False}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py"), json.dumps(spec)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
    )
    try:
        if not select.select([proc.stdout], [], [], OP_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(proc.args, OP_TIMEOUT_S)
        ready = proc.stdout.readline()
        sample["setup_s"] = time.perf_counter() - start
        out, _ = proc.communicate("go\n", timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sample["error"] = f"timed out after {OP_TIMEOUT_S} s"
        return sample
    lines = out.strip().splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        sample["error"] = f"operation process exited with {proc.returncode}"
        return sample
    result = json.loads(lines[-1])
    sample["facts"] = result["facts"]
    sample.update(wall_s=result["wall_s"], cpu_s=result["cpu_s"], peak_rss_mb=result["peak_rss_mb"],
                  probe_s=statistics.fmean(result["probe_s"]))
    if result["status"] != 0:
        sample["error"] = f"entry point returned status {result['status']}"
        return sample
    try:
        errors, sample["fingerprint"], sample["refusals"] = workload.check(result["output"], op_dir)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        errors = [f"malformed output: {type(exc).__name__}: {exc}"]
    if errors:
        sample["error"] = "; ".join(errors[:5])
        return sample
    if trace:
        with open(spec["spans_file"], encoding="utf-8") as fh:
            sample["self_s"], sample["total_s"], sample["root_s"] = self_times(json.load(fh))
        sample["counts"] = result["counts"]
        sample["present"] = result["present"]
    shutil.rmtree(op_dir, ignore_errors=True)
    sample["ok"] = True
    return sample


def run_loop(workload, seconds: float, kinds: list[tuple[bool, int | None]]) -> list[list[dict]]:
    """Closed loop over ``kinds`` of operation, (traced, threads), taken in turn
    so that drift in machine speed affects each kind alike.  Cycles run while
    the next one is expected to end within ``seconds``, and at least MIN_CYCLES
    of them; returns the samples of each kind."""
    samples: list[list[dict]] = [[] for _ in kinds]
    cycles: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(cycles) < MIN_CYCLES or time.perf_counter() + statistics.median(cycles) <= deadline:
        start = time.perf_counter()
        for k, (trace, threads) in enumerate(kinds):
            samples[k].append(run_op(workload, len(cycles) * len(kinds) + k, trace, threads))
        cycles.append(time.perf_counter() - start)
    return samples


def _mark_divergent(samples: list[dict]) -> None:
    """Fail operations whose output differs from the first good one's."""
    reference = None
    for sample in samples:
        if not sample["ok"]:
            continue
        if reference is None:
            reference = sample["fingerprint"]
        elif sample["fingerprint"] != reference:
            sample["ok"] = False
            sample["error"] = "output differs from the first operation of the run"


# --------------------------------------------------------------------------
# Statistics and reporting
# --------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n > 10:
        k = n - 10  # ordered[k - 1] has exactly 10 samples above it
        tail = {"percentile": round(100.0 * k / n, 1), "value": ordered[k - 1]}
    return {"median": statistics.median(ordered), "samples": n, "tail": tail}


def at_reference_speed(sample: dict, key: str) -> float:
    """A measured time scaled to the speed at which the probe takes PROBE_REF_S."""
    return sample[key] * PROBE_REF_S / sample["probe_s"]


def end_to_end(samples: list[dict]) -> dict:
    """Statistics of each end-to-end measurement over the good operations."""
    if not samples:
        return {}
    stats = {}
    for key in ("wall_s", "cpu_s", "setup_s"):
        stats[key] = tail_percentile([at_reference_speed(s, key) for s in samples])
        stats[key].update(unit="s", measured_median=statistics.median(s[key] for s in samples))
    stats["peak_rss_mb"] = dict(tail_percentile([s["peak_rss_mb"] for s in samples]), unit="MB")
    stats["probe_s"] = dict(tail_percentile([s["probe_s"] for s in samples]), unit="s")
    return stats


def _layer_of(metric: str) -> str | None:
    """The tracer layer a per-layer metric depends on, or None if always present."""
    if metric.startswith(("inference.refusals.", "inference.flags.")):
        return "inference.*"
    for layer in sorted(LAYERS, key=len, reverse=True):
        if metric.startswith(layer + "."):
            return layer
    return None


def per_layer(traced: list[dict], untraced: list[dict], timed: list[dict], metric_names: list[str]):
    """Per-layer values, keyed by metric name, from the traced operation of
    median wall time (so its layer self times add up to its traced wall);
    tracing overhead from the medians of traced and untraced operations, at
    reference speed."""
    median_op = sorted(traced, key=lambda s: s["wall_s"])[(len(traced) - 1) // 2]
    self_s, total_s, counts = median_op["self_s"], median_op["total_s"], median_op["counts"]
    present = dict(median_op["present"])
    present["inference.*"] = any(v for k, v in present.items() if k.startswith("inference."))

    untraced_wall = statistics.median(at_reference_speed(s, "wall_s") for s in untraced)
    overhead = statistics.median(at_reference_speed(s, "wall_s") for s in traced) - untraced_wall
    timed_wall = statistics.median(s["wall_s"] for s in timed)
    timed_cpu = statistics.median(s["cpu_s"] for s in timed)
    read_s = total_s.get("core.read_dataset_csv", 0.0)
    kernel_s = total_s.get("kernels.weighted_sums", 0.0)
    kernel_rows = counts.get("kernels.weighted_sums.rows", 0)
    completed = counts.get("inference.monte_carlo.draws_completed", 0)
    values = {
        "core.read_dataset_csv.rows_per_s":
            counts.get("core.read_dataset_csv.rows", 0) / read_s if read_s else 0.0,
        "kernels.weighted_sums.rows": kernel_rows,
        "kernels.weighted_sums.bytes_computed": kernel_rows * 3 * 8,
        "kernels.weighted_sums.rows_per_s": kernel_rows / kernel_s if kernel_s else 0.0,
        "mechanisms.release.calls": counts.get("mechanisms.release.calls", 0),
        "inference.monte_carlo.draws_attempted": counts.get("inference.monte_carlo.draws_attempted", 0),
        "inference.monte_carlo.accept_ratio":
            counts.get("inference.monte_carlo.draws_accepted", 0) / completed if completed else 0.0,
        "simulation.pool.cpu_per_wall": timed_cpu / timed_wall,
        "trace.wall_s": median_op["root_s"],
        "trace.self_total_s": sum(self_s.values()),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced_wall,
    }
    metrics = {}
    for name in metric_names:
        layer = _layer_of(name)
        if layer is not None and not present.get(layer, False):
            metrics[name] = None
        elif name in values:
            metrics[name] = values[name]
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    extra = {k: v for k, v in counts.items()
             if k.startswith(("inference.refusals.", "inference.flags.")) and k not in metrics}
    return metrics, extra


def machine_facts(samples: list[dict]) -> dict:
    reported = next((s["facts"] for s in samples if "facts" in s), {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": reported.get("numba_imports"),
        "dpratio_backend": reported.get("backend"),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    notes = []
    # A traced run adds untraced operations at the traced settings (their
    # difference is the tracing overhead) and the traced operations.
    kinds = [(False, None)]
    if trace:
        threads = 1 if workload.pooled else None
        if threads:
            notes.append("traced at --threads 1: spans inside pool workers are out of reach")
            kinds.append((False, threads))
        kinds.append((True, threads))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        inputs = workload.prepare(seed, WORK)
        phases = run_loop(workload, seconds, kinds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    timed, untraced, traced = phases[0], phases[-2] if trace else [], phases[-1] if trace else []
    samples = [s for phase in phases for s in phase]
    _mark_divergent(samples)

    failed = sum(not s["ok"] for s in samples)
    stats = end_to_end([s for s in timed if s["ok"]])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "facts": machine_facts(samples), "inputs": inputs, "notes": notes,
        "attempted": len(samples), "failed": failed, "failed_share": failed / len(samples),
        "errors": [s["error"] for s in samples if not s["ok"]],
        "refusals_per_operation": sorted({s["refusals"] for s in samples if s["ok"]} - {None}),
        "end_to_end": stats,
        "wall_s_by_phase": {
            "timed": [s.get("wall_s") for s in timed],
            "probe": [s.get("probe_s") for s in timed],
            "untraced_at_trace_settings": [s.get("wall_s") for s in untraced] if trace else [],
            "traced": [s.get("wall_s") for s in traced],
        },
    }
    if not trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: (stats[k]["median"] if k in stats else None) for k in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        good_traced = [s for s in traced if s["ok"]]
        good_untraced = [s for s in untraced if s["ok"]]
        good_timed = [s for s in timed if s["ok"]]
        if good_traced and good_untraced and good_timed:
            metrics, extra = per_layer(good_traced, good_untraced, good_timed, list(units))
            result["unlisted_counts"] = extra
        else:
            metrics = {k: None for k in units}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result


def print_report(result: dict) -> None:
    facts = result["facts"]
    print(f"# {result['workload']}  seed={result['seed']}  trace={int(result['trace'])}  "
          f"cores={facts['cores']}  python={facts['python']}  numpy={facts['numpy']}  "
          f"numba imports={facts['numba_imports']}  backend={facts['dpratio_backend']}")
    for key, value in result["inputs"].items():
        print(f"  input {key} = {value}")
    for note in result["notes"]:
        print(f"  note: {note}")
    for key, stat in result["end_to_end"].items():
        unit, tail = stat["unit"], stat["tail"]
        text = f"  {key:<12} median {stat['median']:.4f} {unit}"
        if "measured_median" in stat:
            text += f" at reference speed (measured {stat['measured_median']:.4f} {unit})"
        text += f", n={stat['samples']}, "
        text += f"p{tail['percentile']:g} {tail['value']:.4f} {unit}" if tail else "no percentile has 10 samples beyond it"
        print(text)
    print(f"  failed_share = {result['failed_share']:.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for error in result["errors"]:
        print(f"  failure: {error}")
    for key, metric in result["metrics"].items():
        value = "null (layer absent)" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {key} = {value} {metric['unit']}")


def print_table(results: dict) -> None:
    """One row per workload: every end-to-end metric plus failed_share."""
    units = {key: metric["unit"] for r in results.values() for key, metric in r["metrics"].items()}
    columns = [f"{key} ({unit})" for key, unit in units.items()] + ["failed_share (ratio)"]
    print("# end-to-end medians; times in seconds at reference speed")
    print(f"{'workload':<18}" + "".join(f"{c:>22}" for c in columns))
    for name, r in results.items():
        cells = [f"{r['metrics'][key]['value']:>22.4f}" for key in units]
        cells.append(f"{r['failed'] / r['attempted']:>22.4f}")
        print(f"{name:<18}" + "".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "dpratio" / "__init__.py").is_file():
        print(f"error: no dpratio package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)

    results = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        print_report(result)
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        if result["attempted"] == result["failed"]:
            print(f"error: every operation of {name} failed", file=sys.stderr)
            return 1
        results[name] = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    if len(names) > 1 and not args.trace:
        print_table(results)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
