"""Replicated synthetic-data experiments.

Generates calibration-style datasets (Beta(2, 2) scores, each the median
of three uniforms, Bernoulli labels, and optionally clipped-Exponential
weights), runs the public baseline and the DP interval methods of
:data:`~dpratio.inference.DP_METHODS` across a grid of privacy budgets, and
aggregates width, coverage, and interval score over replications.
:func:`_cells` names the report's (method, epsilon) cells in row order: the
public baseline, then every method at each epsilon in turn.

Each key (master_seed, purpose[, epsilon]) has one PCG64 stream
(:func:`_stream`), and replication r reads its row, of fixed length L, at
offset r L: 4n data uniforms (5n if weighted), k release uniforms, or
2 ``mc_draws`` for Monte Carlo, drawn whether or not the row is refused.
A block jumps each stream to its first row, so results are
bit-reproducible regardless of block cuts, worker count or execution
order, and adding epsilon values never perturbs existing streams.  The
scale is not part of the key, so cells that differ only in scale draw the
same data and releases: :func:`run_experiments` runs
them in one pass, sharing those draws.  Each stage runs on arrays over the
block: the datasets are drawn into (rows, n) matrices a chunk at a time and
summed in one pass per chunk, and release and inference, including one
draw of the Monte Carlo uniforms shared by the scales, run on the block's
sums; the Monte Carlo pass draws and scores a piece of rows at a time.
Much of a block's cost is paid once per block, so blocks are as few as a
cap allows: :func:`_block_cuts` gives each at most
max(1, _BLOCK_VALUES // mc_draws) replications and splits the
replications evenly.
"""

from __future__ import annotations

import csv
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import core
from .core import SUM_FIELDS, Bounds, _check_count, _check_sum_rows, _parse_member, kish_rows
from .errors import InvalidConfigError, InvalidIntervalError
from .inference import (
    DEFAULT_LEVEL, DEFAULT_MC_DRAWS, DP_METHODS, FLAGS, REFUSAL_CAUSES, EstimateBlock, Method,
    Refusal, Scale, _estimate_scales, check_interval_settings,
)
from .mechanisms import (
    MechanismKind, PrivacyBudget, ReleasedBlock, calibrate, default_delta, release_block,
)

#: Clipping range of the Exponential(1) weights in the weighted design.
WEIGHT_CLIP = (1.0 / 3.0, 3.0)

# Purpose tags of the stream keys.
_PURPOSE_DATA = 0
_PURPOSE_RELEASE = 1
_PURPOSE_MC = 2


#: Values per chunk of a block's datasets: a chunk holds max(1, _CHUNK_VALUES // n) of them.
_CHUNK_VALUES = 2**14
#: Cap on replications per block times Monte Carlo draws: a block holds at most
#: max(1, _BLOCK_VALUES // mc_draws) replications (see _block_cuts), 327 at
#: 200 draws.  It bounds the block's per-replication arrays (sums, releases,
#: estimates); the Monte Carlo pass runs a piece of rows at a time
#: (inference._PIECE_VALUES), so its memory does not grow with the block.
_BLOCK_VALUES = 2**16


def _check_true_ratio(true_ratio: float) -> None:
    """Labels are Bernoulli(s / true_ratio), so the ratio is finite and at least max s = 1."""
    if not (math.isfinite(true_ratio) and true_ratio >= 1.0):
        raise InvalidConfigError(
            f"true_ratio must be finite and at least the score upper bound 1, got {true_ratio}"
        )


def _number(name: str, value, kind: type = float):
    """``value`` as a ``kind``: an integer, or for a float any real number (numpy's too), never a bool."""
    if isinstance(value, numbers.Integral if kind is int else numbers.Real) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            raise InvalidConfigError(
                f"{name} must fit a double, got an integer of {int(value).bit_length()} bits"
            ) from None
    raise InvalidConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """One experiment cell: a (weighted, n, mechanism, scale) setting.

    Parses every field, types before ranges; ``mechanism`` and ``scale`` may
    be given as their values.  A ``None`` delta takes the mechanism's default
    (:func:`default_delta`).
    """

    n: int = 5000
    epsilons: tuple[float, ...] = (0.2, 0.5, 1.0, 4.0)
    delta: float | None = None
    weighted: bool = False
    mechanism: MechanismKind = MechanismKind.GAUSSIAN
    scale: Scale = Scale.RATIO
    true_ratio: float = 1.1
    replications: int = 1000
    mc_draws: int = DEFAULT_MC_DRAWS
    level: float = DEFAULT_LEVEL
    master_seed: int = 0

    def __post_init__(self) -> None:
        store = partial(object.__setattr__, self)
        for name in ("n", "replications", "mc_draws", "master_seed"):
            store(name, _number(name, getattr(self, name), int))
        if not isinstance(self.weighted, bool):
            raise InvalidConfigError(f"weighted must be true or false, got {self.weighted!r}")
        if not isinstance(self.epsilons, (list, tuple)):
            raise InvalidConfigError(f"epsilons must be a list of numbers, got {self.epsilons!r}")
        store("epsilons", tuple(_number("each of epsilons", eps) for eps in self.epsilons))
        store("mechanism", _parse_member(MechanismKind, self.mechanism, "mechanism"))
        store("scale", _parse_member(Scale, self.scale, "scale"))
        if self.delta is None:
            store("delta", default_delta(self.mechanism))
        for name in ("delta", "true_ratio", "level"):
            store(name, _number(name, getattr(self, name)))
        _check_count("n", self.n, 2)
        # The range earlier versions accepted, so that no valid config changes;
        # every row's stream offset then stays far inside PCG64's 2**128 period.
        if not 1 <= self.replications <= 2**32:
            raise InvalidConfigError(f"replications must lie in [1, 2**32], got {self.replications}")
        check_interval_settings(self.level, self.mc_draws)
        if not self.epsilons:
            raise InvalidConfigError("epsilons must be non-empty")
        if len(set(self.epsilons)) < len(self.epsilons):
            raise InvalidConfigError(f"epsilons must not repeat a value, got {list(self.epsilons)}")
        bounds = self.bounds
        for epsilon in self.epsilons:
            calibrate(bounds, PrivacyBudget(epsilon, self.delta), self.mechanism)
        _check_true_ratio(self.true_ratio)
        if not 0 <= self.master_seed < 2**64:
            raise InvalidConfigError("master_seed must be a 64-bit unsigned integer")

    @property
    def bounds(self) -> Bounds:
        if self.weighted:
            return Bounds.binary(w_low=WEIGHT_CLIP[0], w_high=WEIGHT_CLIP[1])
        return Bounds.binary_unweighted()

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc.update(
            epsilons=list(self.epsilons), mechanism=self.mechanism.value, scale=self.scale.value
        )
        return doc


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregate metrics for one (method, epsilon) cell."""

    method: Method
    epsilon: float | None
    mean_width: float
    coverage: float
    mean_interval_score: float
    mean_effective_n: float
    refusal_count: int
    flags: Mapping[str, int] = field(default_factory=dict)
    refusals_by_cause: Mapping[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def _clean(x: float) -> float | None:
            return None if math.isnan(x) else x

        return {
            "method": self.method.value,
            "epsilon": self.epsilon,
            "width": _clean(self.mean_width),
            "coverage": _clean(self.coverage),
            "score": _clean(self.mean_interval_score),
            "effective_n": _clean(self.mean_effective_n),
            "refusals": self.refusal_count,
            "refusals_by_cause": dict(self.refusals_by_cause),
            "flags": dict(self.flags),
        }


def generate_arrays(
    n: int, weighted: bool, true_ratio: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one synthetic dataset as (y, s, w) arrays.

    Scores are Beta(2, 2), drawn as the median of three uniforms, labels
    Bernoulli(s / true_ratio), and weights either all ones or Exponential(1)
    clipped to ``WEIGHT_CLIP``.  Draw order is fixed so streams are stable:
    one call of 4n uniforms, 5n if weighted, laid out as :func:`_datasets`
    reads them.
    """
    _check_count("n", n, 1)
    _check_true_ratio(true_ratio)
    y, s, w = np.empty(n), np.empty(n), np.empty(n) if weighted else np.ones(n)
    _datasets(rng.random((4 + weighted, n)), weighted, true_ratio, y, s, w)
    return y, s, w


def _datasets(
    u: np.ndarray, weighted: bool, true_ratio: float, y: np.ndarray, s: np.ndarray, w: np.ndarray | None
) -> None:
    """Turn uniforms ``u`` of shape (..., 4 or 5, n) into datasets in the
    caller's (..., n) arrays, settings unchecked; overwrites ``u``.  Per
    dataset, blocks of n: three whose median, the second order statistic of
    three uniforms and so Beta(2, 2), is ``s``; the labels' uniforms; and,
    if ``weighted``, the weights', mapped to Exponential(1) by -log1p(-u)
    (unit weights are not written, and ``w`` is not read).  Every step is
    elementwise, so a matrix of datasets gets the values each dataset would
    get on its own."""
    a, b, c, labels = (u[..., i, :] for i in range(4))
    np.minimum(a, b, out=y)
    np.maximum(a, b, out=a)
    np.minimum(a, c, out=a)
    np.maximum(y, a, out=s)  # max(min(a, b), min(max(a, b), c))
    np.less(labels, np.divide(s, true_ratio, out=a), out=y)
    if weighted:
        weights = u[..., 4, :]
        np.log1p(np.negative(weights, out=weights), out=w)
        np.negative(w, out=w)
        np.clip(w, WEIGHT_CLIP[0], WEIGHT_CLIP[1], out=w)


def _interval_scores(
    lower: np.ndarray, upper: np.ndarray, truth: float, alpha: float
) -> np.ndarray:
    miss = np.where(truth < lower, lower - truth, np.where(truth > upper, truth - upper, 0.0))
    return (upper - lower) + 2.0 / alpha * miss


def interval_score(lower: float, upper: float, truth: float, alpha: float) -> float:
    """Interval score: width plus 2/alpha-scaled penalty for a missed truth.

    The penalty applies only when the truth lies strictly outside the
    interval, so a truth exactly on an endpoint scores as covered.
    """
    if lower > upper:
        raise InvalidIntervalError(f"lower {lower} exceeds upper {upper}")
    if not 0.0 < alpha < 1.0:
        raise InvalidConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return float(_interval_scores(np.array([lower]), np.array([upper]), truth, alpha)[0])


def _block_cuts(replications: int, mc_draws: int) -> list[int]:
    """Where replications are cut into blocks: block i runs ``cuts[i]`` to ``cuts[i + 1] - 1``.

    A block holds at most max(1, _BLOCK_VALUES // mc_draws) replications,
    so its arrays, and memory, do not grow with the replication count.  The
    fewest blocks under that cap share the replications evenly (their sizes
    differ by at most one), whatever the thread count: rounding their count
    up to a multiple of a pool's workers measured no gain.
    """
    count = -(-replications // max(1, _BLOCK_VALUES // mc_draws))
    return [replications * i // count for i in range(count + 1)]


def _cells(epsilons: Sequence[float]) -> list[tuple[Method, float | None]]:
    """The (method, epsilon) cells of a report, in row order: the public
    baseline, then each epsilon's DP methods in :data:`DP_METHODS` order."""
    return [(Method.PUBLIC, None), *((method, eps) for eps in epsilons for method in DP_METHODS)]


class _BlockResult(NamedTuple):
    """Per-replication results of a block of replications.

    ``metrics`` has shape (B, cells, 3) with columns (width, covered,
    score), one cell per row of the output in :func:`_cells` order; refused
    cells are NaN.  ``refusal`` holds the (B, cells) :class:`Refusal` codes
    and ``flags`` the (B, cells, FLAGS) warning flags.
    """

    effective_n: np.ndarray
    metrics: np.ndarray
    refusal: np.ndarray
    flags: np.ndarray


def _stream(master_seed: int, purpose: int, epsilon: float | None, offset: int) -> np.random.Generator:
    """The PCG64 stream of key (``master_seed``, ``purpose``[, bits of
    ``epsilon``]), advanced ``offset`` values.  Keying on the bit pattern
    means editing an epsilon grid never shifts the other epsilons' streams.
    """
    # Imported here: it loads numpy.random, which ``import dpratio`` must not.
    from numpy.random import PCG64, Generator, SeedSequence

    key = (purpose,) if epsilon is None else (purpose, int(np.float64(epsilon).view(np.uint64)))
    rng = Generator(PCG64(SeedSequence(master_seed, spawn_key=key)))
    rng.bit_generator.advance(offset)
    return rng


def _block_sums(config: SimulationConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact (B, 7) sums and the Kish sizes of replications ``start`` to ``stop - 1``.

    Each chunk of rows is one call of the data stream, row r at offset r
    times 4n (5n if weighted), as :func:`generate_arrays` reads it.  Each
    chunk is turned into (rows, n) datasets and summed in one pass; the
    block's sums are then checked once.  The records are not: they lie
    within ``config.bounds`` by construction (scores in [0, 1), labels 0 or
    1, weights clipped or, under ``UNWEIGHTED5``, ones neither written nor
    read).  The results equal a per-replication loop bit for bit.
    """
    n, weighted = config.n, config.weighted
    profile = config.bounds.profile
    rng = _stream(config.master_seed, _PURPOSE_DATA, None, start * (4 + weighted) * n)
    exact = np.empty((stop - start, len(SUM_FIELDS)))
    chunk = min(max(1, _CHUNK_VALUES // n), stop - start)
    data, uniforms = np.empty((2 + weighted, chunk, n)), np.empty((chunk, 4 + weighted, n))
    for lo in range(0, stop - start, chunk):
        hi = min(lo + chunk, stop - start)
        rows = data[:, : hi - lo]
        y, s, w = rows[0], rows[1], rows[2] if weighted else None
        u = rng.random(out=uniforms[: hi - lo])
        _datasets(u, weighted, config.true_ratio, y, s, w)
        # Looked up on the module, where perfbench's tracer wraps the kernel.
        exact[lo:hi] = core.weighted_sums(y, s, w, profile)
    _check_sum_rows(exact, profile)
    return exact, kish_rows(exact)


def _run_block(
    config: SimulationConfig, scales: Sequence[Scale], start: int, stop: int
) -> list[_BlockResult]:
    """Replications ``start`` to ``stop - 1`` of ``config`` on each of ``scales``.

    The data, sums and releases are drawn once and shared by every scale,
    and so are each row's Monte Carlo uniforms: every scale maps a piece's
    uniforms to its replicates before the next piece is drawn.
    """
    bounds = config.bounds
    exact, effective_n = _block_sums(config, start, stop)

    public = ReleasedBlock.exact(exact, bounds.profile)
    # Each cell's estimates, one block per scale.
    columns = {(Method.PUBLIC, None): _estimate_scales(public, Method.PUBLIC, scales, config.level)}
    for eps in config.epsilons:
        released = release_block(
            exact, bounds, PrivacyBudget(eps, config.delta), config.mechanism,
            _stream(config.master_seed, _PURPOSE_RELEASE, eps, start * bounds.profile.size),
        )
        mc_rng = _stream(config.master_seed, _PURPOSE_MC, eps, start * 2 * config.mc_draws)
        for method in DP_METHODS:
            columns[(method, eps)] = _estimate_scales(
                released, method, scales, config.level, config.mc_draws, mc_rng
            )
    cells = _cells(config.epsilons)
    return [
        _block_result([columns[cell][k] for cell in cells], scale, config, effective_n)
        for k, scale in enumerate(scales)
    ]


def _block_result(
    estimates: Sequence[EstimateBlock], scale: Scale, config: SimulationConfig, effective_n: np.ndarray
) -> _BlockResult:
    """Score one scale's estimates against the true ratio on that scale."""
    truth = math.log(config.true_ratio) if scale is Scale.LOG else config.true_ratio
    lower = np.column_stack([e.ci_lower for e in estimates])
    upper = np.column_stack([e.ci_upper for e in estimates])
    covered = np.where(np.isnan(lower), np.nan, (lower <= truth) & (truth <= upper))
    score = _interval_scores(lower, upper, truth, 1.0 - config.level)
    return _BlockResult(
        effective_n=effective_n,
        metrics=np.stack([upper - lower, covered, score], axis=-1),
        refusal=np.column_stack([e.refusal for e in estimates]),
        flags=np.stack([e.flags for e in estimates], axis=1),
    )


def run_experiments(
    configs: Sequence[SimulationConfig], threads: int = 1
) -> list[list[ExperimentRow]]:
    """Run cells that differ only in ``scale`` in one pass; one row list per config.

    The scale is not part of any substream key, so such cells share their
    data, sums, releases and Monte Carlo uniforms, which are drawn once
    per replication; each result equals :func:`run_experiment` of its config.  Replications are
    split into the blocks :func:`_block_cuts` gives, whose results are
    concatenated in replication order, so neither the blocks nor ``threads``
    change the result.  With ``threads > 1`` the blocks run in one process pool.
    """
    if not configs:
        raise InvalidConfigError("run_experiments needs at least one config")
    base = configs[0]
    if any(replace(config, scale=base.scale) != base for config in configs):
        raise InvalidConfigError("configs run together must differ only in scale")
    reps = base.replications
    cuts = _block_cuts(reps, base.mc_draws)
    starts, stops = cuts[:-1], cuts[1:]
    run = partial(_run_block, base, tuple(config.scale for config in configs))
    # A one-block run with threads > 1 still forks one worker.  Run in this
    # process, a one-block call such as a small warm-up would load
    # numpy.random here (see _run_block) before later pools fork: that took
    # the pooled simulate_small_n benchmark's peak memory from 34.7 to 40.3 MB.
    if threads <= 1 or reps == 1:
        blocks = list(map(run, starts, stops))
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(starts))) as pool:
            blocks = list(pool.map(run, starts, stops))
    return [_cell_rows(config, [block[k] for block in blocks]) for k, config in enumerate(configs)]


def run_experiment(config: SimulationConfig, threads: int = 1) -> list[ExperimentRow]:
    """Run all replications of one cell and aggregate per (method, epsilon).

    Returns the public row first (epsilon-independent), then one row per
    (epsilon, method).  Degenerate replications are excluded from the means
    and surfaced through ``refusal_count`` and ``refusals_by_cause``;
    ``flags`` counts the estimates that carry each warning flag.  Output is
    a pure function of (config, master_seed), whatever ``threads`` is; with
    ``threads > 1`` the replication blocks run in a process pool.  The
    one-config case of :func:`run_experiments`.
    """
    return run_experiments([config], threads)[0]


def _cell_rows(config: SimulationConfig, blocks: Sequence[_BlockResult]) -> list[ExperimentRow]:
    """The rows of one cell from its blocks' per-replication results."""
    reps = config.replications
    effective, metrics, refusal, flags = (np.concatenate(parts) for parts in zip(*blocks))

    mean_effective = float(effective.mean())
    # Per cell, the count of each refusal code but NONE.
    causes = [np.bincount(codes, minlength=len(Refusal))[1:] for codes in refusal.T]

    def _aggregate(cell: int, method: Method, epsilon: float | None) -> ExperimentRow:
        block = metrics[:, cell, :]
        valid = ~np.isnan(block[:, 0])
        count = int(valid.sum())
        if count == 0:
            width = coverage = score = math.nan
        else:
            width = float(block[valid, 0].mean())
            coverage = float(block[valid, 1].mean())
            score = float(block[valid, 2].mean())
        return ExperimentRow(
            method=method,
            epsilon=epsilon,
            mean_width=width,
            coverage=coverage,
            mean_interval_score=score,
            mean_effective_n=mean_effective,
            refusal_count=reps - count,
            flags=dict(zip(FLAGS, flags[:, cell].sum(axis=0).tolist())),
            refusals_by_cause=dict(zip(REFUSAL_CAUSES, causes[cell].tolist())),
        )

    return [_aggregate(k, *cell) for k, cell in enumerate(_cells(config.epsilons))]


def write_rows_csv(rows: Sequence[ExperimentRow], path: str | Path) -> None:
    """Write aggregate rows as CSV (full float precision, byte-stable)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "epsilon", "width", "coverage", "score", "effective_n", "refusals"])
        for row in rows:
            writer.writerow(
                [
                    row.method.value,
                    "" if row.epsilon is None else repr(float(row.epsilon)),
                    repr(float(row.mean_width)),
                    repr(float(row.coverage)),
                    repr(float(row.mean_interval_score)),
                    repr(float(row.mean_effective_n)),
                    row.refusal_count,
                ]
            )
