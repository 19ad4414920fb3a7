"""Command-line interface.

Two subcommands: ``estimate`` privatizes a CSV dataset and reports ratio
estimates with DP-corrected intervals; ``simulate`` runs the replicated
coverage experiments and writes per-cell CSV tables plus a combined JSON
report.  All handled failures exit with status 2 and a machine-readable
error document on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import Bounds, _usable_cores, sum_dataset_csv
# perfbench/tracer.py wraps these names; estimate no longer calls them.  Without
# them core.read_dataset_csv.* and core.compute_sums.self_s have no value, and
# CI's "Every benchmark workload ends in a complete result line" step fails at
# --trace 1.  They go with ROADMAP item 4's "delete what only the tracer keeps" step.
from .core import compute_sums_from_arrays, read_dataset_csv  # noqa: F401
from .errors import DPRatioError, InvalidConfigError
from .inference import (
    DEFAULT_LEVEL,
    DEFAULT_MC_DRAWS,
    DP_METHODS,
    Method,
    Scale,
    check_interval_settings,
    ci_analytical,
    ci_monte_carlo,
    ci_no_correction,
    public_estimate,
)
from .mechanisms import (
    MechanismKind, PrivacyBudget, calibrate, default_delta, release,
)
from .simulation import ExperimentRow, SimulationConfig, run_experiments, write_rows_csv


#: The config-file fields, each overridden by its flag; ``seed`` is the config's ``master_seed``.
_SIM_FIELDS = tuple("seed" if f.name == "master_seed" else f.name for f in fields(SimulationConfig))


def _build_parser() -> argparse.ArgumentParser:
    delta_defaults = ", ".join(f"{default_delta(kind):g} for {kind.value}" for kind in MechanismKind)
    parser = argparse.ArgumentParser(
        prog="dpratio",
        description="Differentially private ratio estimation and coverage experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="privatize a y,s[,w] CSV and estimate the ratio")
    est.add_argument("--input", required=True, type=Path, help="CSV file with header y,s[,w]")
    est.add_argument("--epsilon", required=True, type=float, help="total privacy budget epsilon")
    est.add_argument("--delta", type=float, default=None, help=f"total delta (default: {delta_defaults})")
    est.add_argument("--mechanism", choices=["gaussian", "laplace"], default="gaussian")
    est.add_argument("--scale", choices=["ratio", "log", "both"], default="ratio")
    est.add_argument("--level", type=float, default=DEFAULT_LEVEL, help="confidence level")
    est.add_argument("--mc-draws", type=int, default=DEFAULT_MC_DRAWS, help="Monte Carlo correction draws")
    est.add_argument("--seed", type=int, default=None, help="seed for all noise draws")
    est.add_argument("--binary", action="store_true",
                     help="declare binary labels (y in {0,1}, s in [0,1]); releases fewer sums")
    est.add_argument("--y-bounds", nargs=2, type=float, default=[0.0, 1.0], metavar=("LOW", "HIGH"))
    est.add_argument("--s-bounds", nargs=2, type=float, default=[0.0, 1.0], metavar=("LOW", "HIGH"))
    est.add_argument("--w-bounds", nargs=2, type=float, default=[1.0, 1.0], metavar=("LOW", "HIGH"))
    est.add_argument("--include-public", action="store_true",
                     help="also report the non-private baseline (needs --allow-non-dp)")
    est.add_argument("--allow-non-dp", action="store_true",
                     help="acknowledge that --include-public output is not differentially private")

    sim = sub.add_parser("simulate", help="run replicated coverage experiments")
    sim.add_argument("--output-dir", type=Path, default=Path("."), help="directory for CSV/JSON output")
    sim.add_argument("--config", type=Path, default=None,
                     help="JSON file with config fields; explicit flags take precedence")
    sim.add_argument("--n", type=int, default=None, help="sample size per replication")
    sim.add_argument("--epsilon", action="append", type=float, default=None, dest="epsilons",
                     help="privacy budget; repeat for a grid "
                     f"(default: {' '.join(map(str, SimulationConfig.epsilons))})")
    sim.add_argument("--delta", type=float, default=None, help=f"total delta (default: {delta_defaults})")
    sim.add_argument("--weighted", action=argparse.BooleanOptionalAction, default=None,
                     help="draw clipped-Exponential weights instead of unit weights")
    sim.add_argument("--mechanism", choices=["gaussian", "laplace"], default=None)
    sim.add_argument("--scale", choices=["ratio", "log", "both"], default=None)
    sim.add_argument("--true-ratio", type=float, default=None)
    sim.add_argument("--replications", type=int, default=None)
    sim.add_argument("--mc-draws", type=int, default=None)
    sim.add_argument("--level", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None,
                     help=f"master seed (default {SimulationConfig.master_seed})")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: usable cores); results do not depend on it")
    return parser


def _scales(value) -> list:
    """``both`` is the two scales; any other value is left to its user to parse."""
    return [Scale.RATIO, Scale.LOG] if value == "both" else [value]


def _run_estimate(args: argparse.Namespace) -> int:
    delta = default_delta(args.mechanism) if args.delta is None else args.delta
    budget = PrivacyBudget(args.epsilon, delta)
    check_interval_settings(args.level, args.mc_draws)
    if args.seed is not None and args.seed < 0:
        raise InvalidConfigError(f"seed must be non-negative, got {args.seed}")
    if args.include_public and not args.allow_non_dp:
        raise InvalidConfigError("--include-public requires --allow-non-dp")
    bounds = Bounds(*args.y_bounds, *args.s_bounds, *args.w_bounds, binary_y=args.binary)
    calibrate(bounds, budget, args.mechanism)  # every budget check, before the data is read

    sums = sum_dataset_csv(args.input, bounds)

    scales = _scales(args.scale)
    root = np.random.SeedSequence(args.seed)
    release_seq, *mc_seqs = root.spawn(1 + len(scales))
    released = release(sums, bounds, budget, args.mechanism, np.random.default_rng(release_seq))

    estimates = []
    public = []
    # Each scale's estimates in DP_METHODS order.  The calls stay spelled out:
    # perfbench/tracer.py times the inference layers through these names.
    for scale, mc_seq in zip(scales, mc_seqs):
        estimates.append(ci_no_correction(released, scale, args.level).to_json_dict())
        estimates.append(
            ci_monte_carlo(
                released, scale, args.level, args.mc_draws, np.random.default_rng(mc_seq)
            ).to_json_dict()
        )
        estimates.append(ci_analytical(released, scale, args.level).to_json_dict())
        if args.include_public:
            public.append(public_estimate(sums, scale, args.level).to_json_dict())

    doc = {"input": str(args.input), "released": released.to_json_dict(), "estimates": estimates}
    if args.include_public:
        doc["public_estimates"] = public
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0


def _sim_settings(args: argparse.Namespace) -> dict:
    """Config-file fields overlaid by the flags given, by field name.

    A missing or null field is left out, so it takes its SimulationConfig
    default; the file's ``seed`` is the config's ``master_seed``.
    """
    settings = {}
    if args.config is not None:
        with args.config.open(encoding="utf-8") as fh:
            try:
                settings = json.load(fh)
            except json.JSONDecodeError:
                raise
            except ValueError as exc:  # an integer of more digits than int() converts
                raise InvalidConfigError(f"config file holds a number too long to read: {exc}") from None
        if not isinstance(settings, dict):
            raise InvalidConfigError("config file must hold a JSON object")
        unknown = set(settings) - set(_SIM_FIELDS)
        if unknown:
            raise InvalidConfigError(f"unknown config fields: {sorted(unknown)}")
    for name in _SIM_FIELDS:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    return {
        "master_seed" if name == "seed" else name: value
        for name, value in settings.items()
        if value is not None
    }


def format_rows_table(config: SimulationConfig, rows: list[ExperimentRow]) -> str:
    """Human-readable summary: one block per cell, epsilon rows by method."""
    by_key = {(row.method, row.epsilon): row for row in rows}
    pub = by_key[(Method.PUBLIC, None)]
    lines = [
        f"mechanism={config.mechanism.value}  scale={config.scale.value}  n={config.n}  "
        f"weighted={'yes' if config.weighted else 'no'}  replications={config.replications}  "
        f"level={config.level:g}  effective n={pub.mean_effective_n:,.0f}",
        f"public method: width = {pub.mean_width:.3f}, coverage = {pub.coverage:.3f}, "
        f"score = {pub.mean_interval_score:.3f}",
        "",
        f"{'':>8}  " + "  ".join(f"{method.value:^23}" for method in DP_METHODS),
        f"{'epsilon':>8}  " + "  ".join(f"{'width':>7} {'cover':>7} {'score':>7}" for _ in DP_METHODS),
    ]
    for eps in config.epsilons:
        parts = [f"{eps:>8g}"]
        for method in DP_METHODS:
            row = by_key[(method, eps)]
            parts.append(f"{row.mean_width:>7.3f} {row.coverage:>7.3f} {row.mean_interval_score:>7.3f}")
        lines.append("  ".join(parts))
    refusals = sum(row.refusal_count for row in rows)
    if refusals:
        lines.append(f"(refused replications across cells: {refusals})")
    return "\n".join(lines)


def _cell_filename(config: SimulationConfig) -> str:
    weighted = "weighted" if config.weighted else "unweighted"
    return f"{config.mechanism.value}_{config.scale.value}_n{config.n}_{weighted}.csv"


def _run_simulate(args: argparse.Namespace) -> int:
    settings = _sim_settings(args)
    scales = _scales(settings.pop("scale", SimulationConfig.scale))
    threads = args.threads if args.threads is not None else _usable_cores()
    if threads < 1:
        raise InvalidConfigError(f"threads must be at least 1, got {threads}")

    configs = [SimulationConfig(scale=scale, **settings) for scale in scales]  # before any work
    results = run_experiments(configs, threads=threads)
    # Made only once the run succeeds, so a failed run leaves no directory behind.
    out_dir = args.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    for config, rows in zip(configs, results):
        write_rows_csv(rows, out_dir / _cell_filename(config))
        cells.append({"config": config.to_json_dict(), "rows": [r.to_json_dict() for r in rows]})
        print(format_rows_table(config, rows))
        print()

    report = out_dir / "report.json"
    with report.open("w", encoding="utf-8") as fh:
        json.dump({"cells": cells}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {report}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return _run_estimate(args)
        return _run_simulate(args)
    except (DPRatioError, OSError, json.JSONDecodeError, MemoryError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        line = getattr(exc, "line", None)
        if line is not None:
            error["line"] = line
        index = getattr(exc, "index", None)
        if index is not None:
            error["index"] = index
        print(json.dumps({"error": error}, indent=2))
        return 2


if __name__ == "__main__":
    sys.exit(main())
