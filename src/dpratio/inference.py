"""Ratio inference on released sums.

Point estimates, plug-in moments, delta-method variances on the ratio and
log-ratio scales, Wald intervals under three variance strategies, and the
two-ratio z-test.  Everything here is post-processing of released sums, so
it consumes no further privacy budget.

The math runs on arrays over a :class:`~dpratio.mechanisms.ReleasedBlock`
of B releases (:func:`estimate_block`); a rejected row becomes NaN with a
:class:`Refusal` code.  The ``ci_*`` functions run it on the one-row block
of a :class:`~dpratio.mechanisms.ReleasedSums` and raise the refusal instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from .core import SUM_FIELDS, Moments, SumVector
from .errors import (
    DegenerateDenominatorError,
    DegenerateNumeratorError,
    DegenerateVarianceError,
    InvalidConfigError,
    MonteCarloRedrawCapError,
    ScaleMismatchError,
)
from .mechanisms import ReleasedBlock, ReleasedSums, exact_release, noise_from_raw, raw_draws
# perfbench/tracer.py wraps this name: without it inference.draw_noise.self_s
# has no value, and CI's "Every benchmark workload ends in a complete result
# line" step fails at --trace 1.  It goes with ROADMAP item 4's "delete what
# only the tracer keeps" step.
from .mechanisms import draw_noise  # noqa: F401

_NORMAL = NormalDist()
_SUM_W, _SUM_WY, _SUM_WS, _SUM_W2, _SUM_WY2, _SUM_WS2, _SUM_WYS = range(len(SUM_FIELDS))

#: Default confidence level and Monte Carlo draw count of every interval entry point.
DEFAULT_LEVEL = 0.95
DEFAULT_MC_DRAWS = 200
#: A Monte Carlo row is refused once it rejects more than this many replicates per draw.
_REDRAW_CAP_PER_DRAW = 10


class Scale(str, Enum):
    RATIO = "ratio"
    LOG = "log"


class Method(str, Enum):
    PUBLIC = "public"
    NO_CORRECTION = "no_correction"
    MONTE_CARLO = "monte_carlo"
    ANALYTICAL = "analytical"


#: The DP interval methods, in the order every report lists them: the paper's three.
DP_METHODS = (Method.NO_CORRECTION, Method.MONTE_CARLO, Method.ANALYTICAL)


#: Warning flags an estimate can carry, in the order they are reported.
FLAGS = (
    "var_s_bar_floored",
    "var_y_bar_floored",
    "cov_outside_cauchy_schwarz",
    "variance_floored",
    "monte_carlo_redraw",
)
_MOMENT_FLAGS = 3  # the first three come from the plug-in moments


class Refusal(IntEnum):
    """Why a row of a block has no estimate.

    The first failing check names the cause, in the order: noisy label sum,
    log-scale numerator, noisy weight sum, zero mean, Monte Carlo redraws.
    """

    NONE = 0
    NONPOSITIVE_DENOMINATOR = 1  # noisy sum_wy or sum_w not positive, or a zero mean
    NONPOSITIVE_LOG_NUMERATOR = 2  # noisy sum_ws not positive on the log scale
    MONTE_CARLO_REDRAW_CAP = 3  # more than _REDRAW_CAP_PER_DRAW * draws replicates rejected


#: Refusal causes as reported, in code order.
REFUSAL_CAUSES = tuple(r.name.lower() for r in Refusal if r is not Refusal.NONE)


@dataclass(frozen=True)
class RatioEstimate:
    """A point estimate with variance and Wald interval on one scale."""

    point: float
    variance: float
    scale: Scale
    method: Method
    ci_lower: float
    ci_upper: float
    level: float
    flags: tuple[str, ...] = ()

    @property
    def width(self) -> float:
        return self.ci_upper - self.ci_lower

    def to_json_dict(self) -> dict:
        return {
            "point": self.point,
            "variance": self.variance,
            "scale": self.scale.value,
            "method": self.method.value,
            "ci": [self.ci_lower, self.ci_upper],
            "level": self.level,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class TwoRatioTest:
    """z-test of equality of two independently estimated ratios."""

    difference: float
    variance: float
    z_statistic: float
    p_value: float


class _MomentArrays(NamedTuple):
    mu_s: np.ndarray
    mu_y: np.ndarray
    var_s_bar: np.ndarray
    var_y_bar: np.ndarray
    cov_ys_bar: np.ndarray
    flags: np.ndarray  # (B, 3) booleans: the moment flags of FLAGS


class EstimateBlock(NamedTuple):
    """One method's estimates for every row of a block, as arrays.

    Rows with a ``refusal`` other than ``Refusal.NONE`` hold NaN and no
    flags; ``flags`` is a (B, len(FLAGS)) boolean matrix.
    """

    point: np.ndarray
    variance: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    refusal: np.ndarray
    flags: np.ndarray


def _refuse(refusal: np.ndarray, mask: np.ndarray, code: Refusal) -> None:
    """Record ``code`` for the masked rows that have no earlier refusal."""
    refusal[(refusal == 0) & mask] = int(code)


def _point_arrays(values: np.ndarray, scale: Scale, refusal: np.ndarray) -> np.ndarray:
    """Noisy score sum over noisy label sum, optionally on the log scale."""
    numerator = values[:, _SUM_WS]
    denominator = values[:, _SUM_WY]
    _refuse(refusal, ~(denominator > 0.0), Refusal.NONPOSITIVE_DENOMINATOR)
    ratio = numerator / denominator
    if scale is Scale.LOG:
        _refuse(refusal, ~(numerator > 0.0), Refusal.NONPOSITIVE_LOG_NUMERATOR)
        return np.log(ratio)
    return ratio


def _moment_arrays(values: np.ndarray, refusal: np.ndarray) -> _MomentArrays:
    """Plug-in means, variances, and covariance of the two weighted means.

    Negative variance plug-ins, which noisy sums can produce, are floored at
    zero and flagged; a covariance outside the Cauchy-Schwarz envelope is
    flagged but kept.
    """
    total_w = values[:, _SUM_W]
    _refuse(refusal, ~(total_w > 0.0), Refusal.NONPOSITIVE_DENOMINATOR)
    mu_y = values[:, _SUM_WY] / total_w
    mu_s = values[:, _SUM_WS] / total_w
    kish_inverse = values[:, _SUM_W2] / (total_w * total_w)
    var_s = kish_inverse * (values[:, _SUM_WS2] / total_w - mu_s * mu_s)
    var_y = kish_inverse * (values[:, _SUM_WY2] / total_w - mu_y * mu_y)
    cov = kish_inverse * (values[:, _SUM_WYS] / total_w - mu_y * mu_s)
    floored_s = var_s < 0.0
    floored_y = var_y < 0.0
    var_s = np.where(floored_s, 0.0, var_s)
    var_y = np.where(floored_y, 0.0, var_y)
    flags = np.column_stack([floored_s, floored_y, cov * cov > var_s * var_y])
    return _MomentArrays(mu_s, mu_y, var_s, var_y, cov, flags)


def _variance_arrays(
    m: _MomentArrays, scale: Scale, refusal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Delta-method variance on ``scale`` (floored at 0) and the floored mask."""
    if scale is Scale.RATIO:
        _refuse(refusal, m.mu_y == 0.0, Refusal.NONPOSITIVE_DENOMINATOR)
        mu_y2 = m.mu_y * m.mu_y
        raw = (
            m.var_s_bar / mu_y2
            - 2.0 * m.mu_s * m.cov_ys_bar / (mu_y2 * m.mu_y)
            + m.mu_s * m.mu_s * m.var_y_bar / (mu_y2 * mu_y2)
        )
    else:
        _refuse(refusal, (m.mu_s == 0.0) | (m.mu_y == 0.0), Refusal.NONPOSITIVE_DENOMINATOR)
        raw = (
            m.var_s_bar / (m.mu_s * m.mu_s)
            - 2.0 * m.cov_ys_bar / (m.mu_s * m.mu_y)
            + m.var_y_bar / (m.mu_y * m.mu_y)
        )
    floored = raw < 0.0
    return np.where(floored, 0.0, raw), floored


def check_interval_settings(level: float, draws: int | None = None) -> None:
    """The confidence level lies in (0, 1); Monte Carlo ``draws``, if given, are at least 2."""
    if not 0.0 < level < 1.0:
        raise InvalidConfigError(f"level must lie in (0, 1), got {level}")
    if draws is not None and draws < 2:
        raise InvalidConfigError(f"mc_draws must be at least 2, got {draws}")


def _wald_arrays(
    point: np.ndarray, variance: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """point +/- z_{(1+level)/2} * sqrt(variance), for a level already checked."""
    half = _NORMAL.inv_cdf(0.5 * (1.0 + level)) * np.sqrt(variance)
    return point - half, point + half


#: Monte Carlo values per piece: passes over a block's (rows, draws) replicates
#: take max(1, _PIECE_VALUES // draws) rows at a time, so their temporaries
#: stay this small however many rows the block has.
_PIECE_VALUES = 2**13


def _pieces(count: int, draws: int) -> list[slice]:
    """Consecutive slices of ``count`` rows, each of at most ``_PIECE_VALUES`` draws (or one row)."""
    step = max(1, _PIECE_VALUES // draws)
    return [slice(a, a + step) for a in range(0, count, step)]


def _noisy_halves(released: ReleasedBlock) -> tuple[int, int, np.ndarray]:
    """The halves ``lo:hi`` of a (numerator, denominator) pair that carry
    noise, and their variances as a column.  As in draw_noise, a sum without
    noise, or a release without a mechanism, draws nothing, so the drawn
    halves are a contiguous slice and the stream matches per-sum calls."""
    var_s, var_y = released.variance("sum_ws"), released.variance("sum_wy")
    lo = 0 if released.mechanism is not None and var_s > 0.0 else 1
    hi = 2 if released.mechanism is not None and var_y > 0.0 else 1
    return lo, hi, np.array([var_s, var_y])[lo:hi, None]


class _FirstPass(NamedTuple):
    """The first Monte Carlo pass over the rows ``rows`` of a block.

    ``ratios`` holds each row's ``draws`` re-noised numerator over
    denominator, ``num_ok`` and ``den_ok`` whether those sums are positive:
    10 bytes a draw, all a pass keeps.  ``filled[scale]`` counts each row's
    draws that ``scale`` accepts, for each scale the pass serves.  The
    generators are left just past the pass; what one scale redraws after
    it, a later scale reads from a :class:`_Record`.
    """

    rows: np.ndarray
    ratios: np.ndarray
    num_ok: np.ndarray
    den_ok: np.ndarray
    filled: dict[Scale, np.ndarray]


def _first_pass(
    released: ReleasedBlock,
    rows: np.ndarray,
    draws: int,
    rngs: Sequence[np.random.Generator],
    scales: Sequence[Scale],
) -> _FirstPass:
    """Each row fills its (numerator, denominator) draws with one call on its
    generator ``rngs[row]``, then one transform per piece of rows maps them to
    noise.  Every step is elementwise or per row, so the pieces give the
    values one pass over all rows would."""
    mechanism = released.mechanism
    lo, hi, variances = _noisy_halves(released)
    shape = (len(rows), draws)
    first = _FirstPass(
        rows, np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool),
        {scale: np.empty(len(rows), dtype=np.intp) for scale in scales},
    )
    for piece in _pieces(len(rows), draws):
        part = rows[piece]
        noisy = np.zeros((len(part), 2, draws))
        if lo < hi:
            drawn = noisy[:, lo:hi]
            for row, out in zip(part.tolist(), drawn):
                raw_draws(rngs[row], mechanism, out=out)
            noise_from_raw(drawn, mechanism, variances)
        noisy_num, noisy_den = noisy[:, 0], noisy[:, 1]
        noisy_num += released.values[part, _SUM_WS, None]
        noisy_den += released.values[part, _SUM_WY, None]
        num_ok = np.greater(noisy_num, 0.0, out=first.num_ok[piece])
        den_ok = np.greater(noisy_den, 0.0, out=first.den_ok[piece])
        for scale, filled in first.filled.items():
            ok = den_ok if scale is Scale.RATIO else num_ok & den_ok
            # A count over the whole piece is much faster than one per row.
            filled[piece] = draws if np.count_nonzero(ok) == ok.size else np.count_nonzero(ok, axis=1)
        np.divide(noisy_num, noisy_den, out=first.ratios[piece])
    return first


def _mean_square_deviation(replicates: np.ndarray, point: np.ndarray, scale: Scale) -> np.ndarray:
    """Each row's mean squared deviation of its ``replicates`` from its ``point``,
    on ``scale``; overwrites ``replicates``.  Each row is reduced on its own,
    so a row's result does not depend on the rows beside it."""
    if scale is Scale.LOG:
        np.log(replicates, out=replicates)
    replicates -= point[:, None]
    return np.mean(np.square(replicates, out=replicates), axis=1)


def _first_pass_extras(
    first: _FirstPass, scale: Scale, point: np.ndarray, rows: np.ndarray, draws: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What one scale takes from the first pass for ``rows``, a subset of its rows.

    A replicate with a non-positive denominator (or numerator, on the log
    scale) is rejected.  The rows without a rejection get their correction
    here, read a piece of rows at a time, in the returned block-length
    ``extra``.  The others are returned as ``owners`` (their block rows),
    ``held`` (their accepted replicates first, then room for those they
    lack) and ``filled`` (how many they hold), for :func:`_redraw_rounds`.
    """
    extra = np.zeros(len(point))
    at = np.searchsorted(first.rows, rows)
    filled = first.filled[scale][at]
    full = filled == draws
    done = np.flatnonzero(full)  # positions in ``rows``
    for piece in _pieces(len(done), draws):
        part = done[piece]
        extra[rows[part]] = _mean_square_deviation(first.ratios[at[part]], point[rows[part]], scale)
    pending = np.flatnonzero(~full)
    held = np.zeros((len(pending), draws))
    filled = filled[pending]
    for piece in _pieces(len(pending), draws):
        part = at[pending[piece]]
        ok = first.den_ok[part]
        if scale is Scale.LOG:
            ok &= first.num_ok[part]
        held[piece][np.arange(draws) < filled[piece, None]] = first.ratios[part][ok]
    return extra, rows[pending], held, filled


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i]``, ..., ``starts[i] + lengths[i] - 1`` for each i in turn.

    A running sum of steps of 1, with a jump at the head of each segment:
    one array of the result's size, where a repeat and an arange take two.
    """
    some = lengths > 0
    starts, lengths = starts[some], lengths[some]
    ends = np.cumsum(lengths)
    index = np.ones(ends[-1] if len(ends) else 0, dtype=np.intp)
    if len(index):
        index[0] = starts[0]
        index[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(index, out=index)


class _Record:
    """The raw draws the redraw rounds took from each row's generator after the
    first pass, in stream order.

    Row r's are ``flat[offset[r]:offset[r] + length[r]]``, rows in block
    order, and its generator sits just past them.  A scale that redraws
    after another reads a row's draws here by stream position and takes
    from the generator only what lies beyond.
    """

    def __init__(self, size: int) -> None:
        self.flat = np.empty(0)
        self.offset = np.zeros(size, dtype=np.intp)
        self.length = np.zeros(size, dtype=np.intp)

    def extend(self, taken: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Append the draws ``taken`` holds, and empty it: per round, in stream
        order, a (values, rows, lengths) triple in which row ``rows[i]`` drew
        the next ``lengths[i]`` of ``values`` where its record ended."""
        held = np.flatnonzero(self.length)
        taken.insert(0, (self.flat, held, self.length[held]))
        rows, lengths = (np.concatenate(column) for column in list(zip(*taken))[1:])
        # Each segment goes to its row, after the row's earlier ones.
        order = np.argsort(rows, kind="stable")
        starts = np.empty_like(lengths)
        starts[order] = np.cumsum(lengths[order]) - lengths[order]
        self.flat = np.empty(int(lengths.sum()))
        done = 0
        while taken:  # one part at a time, each freed once copied
            values, _, part_lengths = taken.pop(0)
            self.flat[_segments(starts[done:done + len(part_lengths)], part_lengths)] = values
            done += len(part_lengths)
        self.length = np.bincount(rows, lengths, minlength=len(self.length)).astype(np.intp)
        self.offset = np.cumsum(self.length) - self.length


def _redraw_rounds(
    released: ReleasedBlock,
    scale: Scale,
    owners: np.ndarray,
    held: np.ndarray,
    filled: np.ndarray,
    rngs: Sequence[np.random.Generator],
    record: _Record | None,
    taken: list | None,
) -> np.ndarray:
    """Fill each row of ``held`` with the replicates it lacks, in place (``filled``
    too); return which rows are capped.

    Redraws run in rounds over every row that still lacks replicates: each
    row takes the k replicates it lacks, k raw draws per noisy sum,
    numerator first, from the next 2k (or k) positions of its stream past
    the first pass (the stream of a per-row loop, so the generators must be
    distinct).  It reads the part of them that ``record`` holds and draws
    the rest with one call on its generator ``rngs[owners[i]]``; those draws
    are appended to ``taken``, if given, in :meth:`_Record.extend`'s form.
    A boolean mask splits the round's draws into numerator and denominator
    rows, in order, one transform maps them to noise, and each row's
    accepted replicates follow the ones it holds.  A row that rejects more
    than ``_REDRAW_CAP_PER_DRAW * draws`` replicates is capped and writes
    nothing in that round.
    """
    mechanism = released.mechanism
    lo, hi, variances = _noisy_halves(released)
    m = hi - lo
    draws = held.shape[1]
    capped = np.zeros(len(owners), dtype=bool)
    numerator = released.values[owners, _SUM_WS]
    denominator = released.values[owners, _SUM_WY]
    live = np.arange(len(owners))  # rows of ``held`` that still lack replicates
    rejected = draws - filled
    position = np.zeros(len(owners), dtype=np.intp)  # each live row's stream past the first pass
    read = record is not None and len(record.flat) > 0
    cap = _REDRAW_CAP_PER_DRAW * draws
    flat = held.reshape(-1)  # replicate j of held row i is flat[i * draws + j]
    while len(live):
        k = draws - filled
        ends = np.cumsum(k)
        starts = ends - k
        noise = np.zeros((2, ends[-1]))
        if m:
            # Row r's m * k[r] draws are raw[m * starts[r]:m * ends[r]]: the
            # first ``have`` from the record, the rest from its generator.
            raw = np.empty(m * ends[-1])
            need, starts_m, block_rows = m * k, m * starts, owners[live]
            if read:
                have = np.clip(record.length[block_rows] - position, 0, need)
                recorded = _segments(record.offset[block_rows] + position, have)
                raw[_segments(starts_m, have)] = record.flat[recorded]
                del recorded
                short = np.flatnonzero(have < need)
                drawing, a, b = block_rows[short], (starts_m + have)[short], (starts_m + need)[short]
            else:
                drawing, a, b = block_rows, starts_m, starts_m + need
            for row, a_row, b_row in zip(drawing.tolist(), a.tolist(), b.tolist()):
                raw_draws(rngs[row], mechanism, out=raw[a_row:b_row])
            if taken is not None:
                taken.append((raw[_segments(a, b - a)] if read else raw, drawing, b - a))
            position += need
            if m == 1:
                noise[lo] = raw
            else:  # row r's draws are its k[r] numerator draws, then its k[r] denominator draws
                numerator_draw = np.repeat(np.tile([True, False], len(k)), np.repeat(k, 2))
                np.compress(numerator_draw, raw, out=noise[0])
                np.compress(~numerator_draw, raw, out=noise[1])
            del raw
            noise_from_raw(noise[lo:hi], mechanism, variances)
        more_num, more_den = noise
        more_num += np.repeat(numerator[live], k)
        more_den += np.repeat(denominator[live], k)
        accept = more_den > 0.0
        if scale is Scale.LOG:
            accept &= more_num > 0.0
        accepted = np.add.reduceat(accept, starts, dtype=np.intp)
        rejected += k - accepted
        over = rejected > cap
        if over.any():
            capped[live[over]] = True
            accept &= np.repeat(~over, k)  # a capped row writes nothing
            accepted[over] = 0
        # A row's accepted replicates follow its filled ones, in draw order.
        first_place = np.cumsum(accepted) - accepted  # the row's first place among the accepted
        target = np.repeat(live * draws + filled - first_place, accepted)
        target += np.arange(len(target))
        flat[target] = np.divide(more_num, more_den, out=more_num)[accept]
        filled += accepted
        going = ~over & (filled < draws)
        live, filled, rejected, position = live[going], filled[going], rejected[going], position[going]
    return capped


def _monte_carlo_extras(
    released: ReleasedBlock,
    cells: Sequence[tuple[Scale, np.ndarray, np.ndarray]],
    draws: int,
    rngs: Sequence[np.random.Generator],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Injected variance of the point estimates, estimated by re-noising.

    Each cell is a (scale, point estimates, rows to correct) triple.  For
    each such row, ``draws`` fresh noise pairs for the score and label sums
    are drawn from the row's own generator at the release variances
    (numerator first) and added to the noisy sums.  That first pass is the
    same on every scale, so it is made once (:func:`_first_pass`), over the
    union of the cells' rows; each cell then runs its own redraws
    (:func:`_redraw_rounds`) on the stream past that pass, so each cell sees
    the stream it would see on its own.  The cells that reject the most
    first-pass replicates redraw first, and each but the last records the
    draws it takes from the generators (:class:`_Record`), so a later cell
    reads most of its redraws instead of drawing them.  The last cell's
    rounds run after the first pass is released.  Returns, per cell in the
    given order, the mean squared deviation from the point estimate and the
    redraw and cap masks, all of block length.
    """
    size = len(released.values)
    drawn = np.zeros(size, dtype=bool)
    for _, _, rows in cells:
        drawn[rows] = True
    union = np.flatnonzero(drawn)
    if (released.variance("sum_ws") == 0.0 and released.variance("sum_wy") == 0.0) or len(union) == 0:
        return [(np.zeros(size), np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)) for _ in cells]
    first = _first_pass(released, union, draws, rngs, [scale for scale, _, _ in cells])
    filled = [first.filled[scale][np.searchsorted(union, rows)].sum() for scale, _, rows in cells]
    order = sorted(range(len(cells)), key=lambda i: filled[i] - draws * len(cells[i][2]))
    record = _Record(size) if len(cells) > 1 else None
    extras = [None] * len(cells)
    for n, i in enumerate(order):
        scale, point, rows = cells[i]
        extra, owners, held, held_filled = _first_pass_extras(first, scale, point, rows, draws)
        last = n == len(order) - 1
        if last:
            del first  # the last cell's rounds need only the rows it holds
        taken = None if last else []
        capped = _redraw_rounds(released, scale, owners, held, held_filled, rngs, record, taken)
        # A capped row's replicates are incomplete; its refusal discards the result.
        extra[owners] = _mean_square_deviation(held, point[owners], scale)
        del held
        if taken:
            record.extend(taken)
        redrawn, capped_rows = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        redrawn[owners] = True
        capped_rows[owners[capped]] = True
        extras[i] = extra, redrawn, capped_rows
    return extras


def estimate_block(
    released: ReleasedBlock,
    method: Method,
    scale: Scale = Scale.RATIO,
    level: float = DEFAULT_LEVEL,
    draws: int = DEFAULT_MC_DRAWS,
    rngs: Sequence[np.random.Generator] | None = None,
) -> EstimateBlock:
    """Point estimates and Wald intervals of one method for every row.

    ``Method.PUBLIC`` is the no-correction pipeline, meant for exact sums.
    ``Method.MONTE_CARLO`` needs ``rngs``, one distinct generator per row;
    a row draws from its generator only if it was not refused before.
    """
    return _estimate_scales(released, method, (scale,), level, draws, rngs)[0]


def _estimate_scales(
    released: ReleasedBlock,
    method: Method,
    scales: Sequence[Scale],
    level: float = DEFAULT_LEVEL,
    draws: int = DEFAULT_MC_DRAWS,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[EstimateBlock]:
    """:func:`estimate_block` on each of ``scales``, one Monte Carlo first pass for all.

    ``rngs`` holds one generator per row, each at the start of its stream.
    Each scale's result equals :func:`estimate_block` of that scale on fresh
    generators.
    """
    check_interval_settings(level, draws if method is Method.MONTE_CARLO else None)
    values = released.values
    if method is Method.MONTE_CARLO and (rngs is None or len(rngs) < len(values)):
        raise InvalidConfigError(
            f"monte carlo needs one generator per row: got {0 if rngs is None else len(rngs)} "
            f"for {len(values)} rows"
        )
    points, variances, refusals, flags = [], [], [], []
    with np.errstate(all="ignore"):
        for scale in scales:
            refusal = np.zeros(len(values), dtype=np.int8)
            flag = np.zeros((len(values), len(FLAGS)), dtype=bool)
            point = _point_arrays(values, scale, refusal)
            moments = _moment_arrays(values, refusal)
            flag[:, :_MOMENT_FLAGS] = moments.flags
            if method is Method.ANALYTICAL:
                # Release noise is independent of the data: it adds its variance to
                # the score-sum and label-sum terms and leaves the covariance alone.
                w2 = values[:, _SUM_W] * values[:, _SUM_W]
                moments = moments._replace(
                    var_s_bar=moments.var_s_bar + released.variance("sum_ws") / w2,
                    var_y_bar=moments.var_y_bar + released.variance("sum_wy") / w2,
                )
            variance, flag[:, _MOMENT_FLAGS] = _variance_arrays(moments, scale, refusal)
            points.append(point)
            variances.append(variance)
            refusals.append(refusal)
            flags.append(flag)
        if method is Method.MONTE_CARLO:
            cells = [(scale, point, np.flatnonzero(refusal == 0))
                     for scale, point, refusal in zip(scales, points, refusals)]
            extras = _monte_carlo_extras(released, cells, draws, rngs)
            for i, (extra, redrawn, capped) in enumerate(extras):
                flags[i][:, _MOMENT_FLAGS + 1] = redrawn
                _refuse(refusals[i], capped, Refusal.MONTE_CARLO_REDRAW_CAP)
                variances[i] = variances[i] + extra
    blocks = []
    for point, variance, refusal, flag in zip(points, variances, refusals, flags):
        refused = refusal != 0
        point = np.where(refused, np.nan, point)
        variance = np.where(refused, np.nan, variance)
        flag[refused] = False
        lower, upper = _wald_arrays(point, variance, level)
        blocks.append(EstimateBlock(point, variance, lower, upper, refusal, flag))
    return blocks


# --------------------------------------------------------------------------
# One release: the block engine on a block of one row.
# --------------------------------------------------------------------------


def _estimate_one(
    released: ReleasedSums,
    method: Method,
    scale: Scale,
    level: float,
    draws: int = DEFAULT_MC_DRAWS,
    rng: np.random.Generator | None = None,
) -> RatioEstimate:
    """``method`` on the one-row block of ``released``; a refusal raises, and so
    does a variance or interval end that is not finite."""
    if method is Method.MONTE_CARLO and rng is None:
        rng = np.random.default_rng()
    block = estimate_block(released.block, method, scale, level, draws, [rng])
    code, v = block.refusal[0], released.values
    if code == Refusal.NONPOSITIVE_DENOMINATOR:
        raise DegenerateDenominatorError(
            f"noisy denominator not positive: sum_wy = {v['sum_wy']}, sum_w = {v['sum_w']}"
        )
    if code == Refusal.NONPOSITIVE_LOG_NUMERATOR:
        raise DegenerateNumeratorError(f"noisy sum_ws = {v['sum_ws']} is not positive")
    if code == Refusal.MONTE_CARLO_REDRAW_CAP:
        raise MonteCarloRedrawCapError(
            f"monte carlo resampling exceeded {_REDRAW_CAP_PER_DRAW * draws} rejected replicates"
        )
    variance, lower, upper = (float(a[0]) for a in (block.variance, block.ci_lower, block.ci_upper))
    if not all(math.isfinite(x) for x in (variance, lower, upper)):
        raise DegenerateVarianceError(
            f"{method.value} variance {variance!r} or interval ({lower!r}, {upper!r}) on the "
            f"{scale.value} scale is not finite"
        )
    return RatioEstimate(
        point=float(block.point[0]),
        variance=variance,
        scale=scale,
        method=method,
        ci_lower=lower,
        ci_upper=upper,
        level=level,
        flags=tuple(f for f, on in zip(FLAGS, block.flags[0]) if on),
    )


def ratio_variance(m: Moments) -> float:
    """Delta-method variance of the ratio of the two means (floored at 0)."""
    arrays = _MomentArrays(
        *(np.array([x]) for x in (m.mu_s, m.mu_y, m.var_s_bar, m.var_y_bar, m.cov_ys_bar)),
        flags=np.zeros((1, _MOMENT_FLAGS), dtype=bool),
    )
    refusal = np.zeros(1, dtype=np.int8)
    with np.errstate(all="ignore"):
        variance, _ = _variance_arrays(arrays, Scale.RATIO, refusal)
    if refusal[0]:
        raise DegenerateDenominatorError("ratio-scale variance undefined at a zero mean")
    return float(variance[0])


def ci_no_correction(
    released: ReleasedSums, scale: Scale = Scale.RATIO, level: float = DEFAULT_LEVEL
) -> RatioEstimate:
    """Wald interval that ignores the noise injected by the release.

    The noisy sums are treated as if they were exact: plug-in moments feed
    the delta-method variance directly.  Expect under-coverage at small
    sample sizes or small budgets.
    """
    return _estimate_one(released, Method.NO_CORRECTION, scale, level)


def ci_monte_carlo(
    released: ReleasedSums,
    scale: Scale = Scale.RATIO,
    level: float = DEFAULT_LEVEL,
    draws: int = DEFAULT_MC_DRAWS,
    rng: np.random.Generator | None = None,
) -> RatioEstimate:
    """Wald interval with the injected variance estimated by simulation.

    Fresh noise pairs for the score and label sums are drawn at the original
    release variances and stacked on top of the already-noisy sums; the mean
    squared deviation of the re-noised ratios from the point estimate is
    added to the no-correction variance.  Replicates with a non-positive
    denominator (or non-positive ratio on the log scale) are redrawn, up to
    ten times ``draws`` rejections.
    """
    return _estimate_one(released, Method.MONTE_CARLO, scale, level, draws, rng)


def ci_analytical(
    released: ReleasedSums, scale: Scale = Scale.RATIO, level: float = DEFAULT_LEVEL
) -> RatioEstimate:
    """Wald interval with the injected variance added in closed form.

    The release noise is independent of the data, so it adds its variance to
    the score-sum and label-sum variance terms and leaves the covariance
    alone.  On the mean scale that correction is the noise variance divided
    by the squared released weight total; the corrected moments then feed
    the usual delta-method variance.  Noise in the remaining released sums
    is not corrected for.
    """
    return _estimate_one(released, Method.ANALYTICAL, scale, level)


def public_estimate(
    sums: SumVector, scale: Scale = Scale.RATIO, level: float = DEFAULT_LEVEL
) -> RatioEstimate:
    """Non-private baseline: the no-correction pipeline on the exact sums."""
    return _estimate_one(exact_release(sums), Method.PUBLIC, scale, level)


def two_ratio_test(a: RatioEstimate, b: RatioEstimate) -> TwoRatioTest:
    """Two-sided z-test of equality of two independent ratio estimates."""
    if a.scale is not b.scale:
        raise ScaleMismatchError(f"cannot compare {a.scale.value} and {b.scale.value} estimates")
    variance = a.variance + b.variance
    if not variance > 0.0:
        raise DegenerateVarianceError("combined variance must be positive")
    difference = a.point - b.point
    z = difference / math.sqrt(variance)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return TwoRatioTest(difference=difference, variance=variance, z_statistic=z, p_value=p_value)
