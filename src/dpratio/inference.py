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

from .core import SUM_FIELDS, Moments, SumVector, _check_count, _parse_member
from .errors import (
    DegenerateDenominatorError,
    DegenerateNumeratorError,
    DegenerateVarianceError,
    InvalidConfigError,
    MonteCarloRedrawCapError,
    ScaleMismatchError,
)
from .mechanisms import (
    MechanismKind, ReleasedBlock, ReleasedSums, exact_release, noise_from_raw, noise_scale,
    nonpositive_chance, raw_draws, unit_noise,
)
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
    """The confidence level lies in (0, 1); Monte Carlo ``draws``, if given,
    are at least 2 and no more than numpy can size (:func:`core._check_count`)."""
    if not 0.0 < level < 1.0:
        raise InvalidConfigError(f"level must lie in (0, 1), got {level}")
    if draws is not None:
        _check_count("mc_draws", draws, 2)


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


#: Standard deviations past its expected redraws that a row reads ahead.
_READ_AHEAD_SDS = 2.0


def _read_ahead(released: ReleasedBlock, rows: np.ndarray, draws: int) -> np.ndarray:
    """How many raw draws each of ``rows`` takes past its first pass, before
    its redraw rounds, from the release and ``draws`` alone.

    A replicate is rejected with the chance p that its denominator, or on the
    log scale its numerator, is not positive
    (:func:`~dpratio.mechanisms.nonpositive_chance`).  The log scale rejects
    more, so p is its chance wherever it draws the row (a positive released
    numerator), and the ratio scale's elsewhere.  A row then redraws
    T - draws replicates, T the trials to its ``draws``-th acceptance: mean
    draws * p / (1 - p), standard deviation sqrt(draws * p) / (1 - p).  It
    reads ahead that mean plus ``_READ_AHEAD_SDS`` deviations, one raw draw
    per noisy sum and replicate, at most the redraws the cap allows, and
    nothing where fewer than half a replicate is expected.  Scales do not
    enter, so a row's stream is the same in a pass over any of them.
    """
    lo, hi, _ = _noisy_halves(released)
    if lo == hi:
        return np.zeros(len(rows), dtype=np.intp)
    mechanism = released.mechanism
    numerator, denominator = released.values[rows, _SUM_WS], released.values[rows, _SUM_WY]
    accept = 1.0 - nonpositive_chance(denominator, mechanism, released.variance("sum_wy"))
    log_rejects = nonpositive_chance(numerator, mechanism, released.variance("sum_ws"))
    accept *= np.where(numerator > 0.0, 1.0 - log_rejects, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rejected = draws * (1.0 - accept)
        mean = rejected / accept
        ahead = np.minimum(np.ceil(mean + _READ_AHEAD_SDS * np.sqrt(rejected) / accept),
                           _REDRAW_CAP_PER_DRAW * draws)
    return (hi - lo) * np.where(mean >= 0.5, ahead, 0.0).astype(np.intp)


def _schedule_point(length: np.ndarray, need: np.ndarray, noisy: int, draws: int) -> np.ndarray:
    """The first point at or past ``need`` of each row's stream schedule from ``length`` on.

    A row's stream past its first pass grows from its read-ahead L by
    L -> 2 L + ``noisy`` (raw draws per replicate), up to ``noisy`` times
    the larger of ``draws`` and the cap.  No round reads past that: a round
    ends a row's read at ``noisy`` times the replicates it has rejected,
    at most ``draws`` in the first round and the cap in a later one.
    """
    top = noisy * max(_REDRAW_CAP_PER_DRAW, 1) * draws
    length = np.array(length, dtype=np.intp)
    short = length < need
    while short.any():
        length[short] = np.minimum(2 * length[short] + noisy, top)
        short = length < need
    return length


def _with_room(used: int) -> int:
    """A stream buffer's size for ``used`` draws: an eighth more lets streams
    grow in place.  Much more costs memory even unwritten: freeing a large
    array raises malloc's mmap threshold, so later arrays come from the heap,
    which keeps their pages resident."""
    return used + used // 8


class _Streams:
    """Each row's draws past its first pass, read ahead into one flat buffer.

    Row ``rows[i]``'s stream holds ``length[i]`` draws at ``values[start[i]:]``,
    taken from its generator in stream order: :func:`_read_ahead` draws first,
    drawn in the first pass, and then as far as :meth:`gather` extends it.
    They are held as unit noise (:func:`~dpratio.mechanisms.unit_noise`), so a
    round only scales what it reads.  Every scale reads the stream from
    position 0, so a row's generator ends at the schedule point
    (:func:`_schedule_point`) of the longest read.
    """

    def __init__(self, released: ReleasedBlock, rows: np.ndarray, draws: int,
                 rngs: Sequence[np.random.Generator]) -> None:
        lo, hi, _ = _noisy_halves(released)
        self.rows, self.rngs, self.mechanism = rows, rngs, released.mechanism
        self.noisy, self.draws = hi - lo, draws
        self.length = _read_ahead(released, rows, draws)
        self.start = np.cumsum(self.length) - self.length
        self.used = int(self.length.sum())
        self.values = np.empty(_with_room(self.used))

    def draw(self, piece: slice, out: np.ndarray) -> None:
        """Fill ``out``, one array per row of ``rows[piece]``, with each row's
        first-pass raw draws, then draw its read-ahead right after them."""
        starts = self.start[piece].tolist()
        ends = (self.start[piece] + self.length[piece]).tolist()
        for row, first, a, b in zip(self.rows[piece].tolist(), out, starts, ends):
            raw_draws(self.rngs[row], self.mechanism, out=first)
            if a < b:
                raw_draws(self.rngs[row], self.mechanism, out=self.values[a:b])
        if starts[0] < ends[-1]:  # the piece's rows are consecutive, and so are their streams
            unit_noise(self.values[starts[0]:ends[-1]], self.mechanism)

    def gather(self, at: np.ndarray, position: np.ndarray, k: np.ndarray, starts: np.ndarray,
               out: np.ndarray) -> None:
        """Fill ``out``, a round's (noisy sums, sum(k)) unit noise, with the
        ``noisy * k[r]`` draws of stream ``at[r]`` from ``position[r]`` on: its
        k[r] draws for the first noisy sum, then k[r] for the second, at
        places ``starts[r]`` on.  A stream the read runs past is extended first."""
        need = position + self.noisy * k
        past = np.flatnonzero(need > self.length[at])
        if len(past):
            self._extend(at[past], need[past])
        index = np.repeat(self.start[at] + position - starts, k)
        index += np.arange(len(index))
        for n, half in enumerate(out):
            if n:
                index += np.repeat(k, k)
            np.take(self.values, index, out=half)

    def _extend(self, at: np.ndarray, need: np.ndarray) -> None:
        """Grow the streams ``rows[at]`` to their schedule points past ``need``,
        one generator call each; they move past the last stream."""
        length = _schedule_point(self.length[at], need, self.noisy, self.draws)
        used, self.used = self.used, self.used + int(length.sum())
        if self.used > len(self.values):
            values = np.empty(_with_room(self.used))
            values[:used] = self.values[:used]
            self.values = values
        values = self.values
        moved = used + np.cumsum(length) - length
        for i, old, new, have, grown in zip(at.tolist(), self.start[at].tolist(), moved.tolist(),
                                            self.length[at].tolist(), length.tolist()):
            values[new:new + have] = values[old:old + have]
            fresh = values[new + have:new + grown]
            unit_noise(raw_draws(self.rngs[self.rows[i]], self.mechanism, out=fresh), self.mechanism)
        self.start[at], self.length[at] = moved, length


class _FirstPass(NamedTuple):
    """The first Monte Carlo pass over the rows ``rows`` of a block.

    ``ratios`` holds each row's ``draws`` re-noised numerator over
    denominator, and ``level`` how many of its scales' conditions each
    replicate meets: 0 where the denominator is not positive, 1 where only
    it is, 2 where the numerator is too.  The ratio scale accepts level 1
    and up, the log scale level 2: 9 bytes a draw, all a pass keeps.
    ``filled[scale]`` counts each row's draws that ``scale`` accepts, for
    each scale the pass serves.  What the scales redraw after it comes from
    :class:`_Streams`, whose read-ahead the pass draws.
    """

    rows: np.ndarray
    ratios: np.ndarray
    level: np.ndarray
    filled: dict[Scale, np.ndarray]


def _first_pass(released: ReleasedBlock, scales: Sequence[Scale], streams: _Streams) -> _FirstPass:
    """Each row ``streams.rows[i]`` fills its (numerator, denominator) draws
    and its read-ahead (:meth:`_Streams.draw`), then one transform per piece
    of rows maps the draws to noise.  Every step is elementwise or per row,
    so the pieces give the values one pass over all rows would."""
    rows, draws = streams.rows, streams.draws
    lo, hi, variances = _noisy_halves(released)
    shape = (len(rows), draws)
    first = _FirstPass(
        rows, np.empty(shape), np.empty(shape, dtype=np.uint8),
        {scale: np.empty(len(rows), dtype=np.intp) for scale in scales},
    )
    for piece in _pieces(len(rows), draws):
        part = rows[piece]
        noisy = np.zeros((len(part), 2, draws)) if hi - lo < 2 else np.empty((len(part), 2, draws))
        if lo < hi:
            drawn = noisy[:, lo:hi]
            streams.draw(piece, drawn)
            noise_from_raw(drawn, released.mechanism, variances)
        noisy_num, noisy_den = noisy[:, 0], noisy[:, 1]
        noisy_num += released.values[part, _SUM_WS, None]
        noisy_den += released.values[part, _SUM_WY, None]
        den_ok = noisy_den > 0.0
        both_ok = (noisy_num > 0.0) & den_ok
        np.add(den_ok, both_ok, out=first.level[piece], dtype=np.uint8)
        for scale, filled in first.filled.items():
            ok = den_ok if scale is Scale.RATIO else both_ok
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What one scale takes from the first pass for ``rows``, a subset of its rows.

    A replicate with a non-positive denominator (or numerator, on the log
    scale) is rejected.  The rows without a rejection get their correction
    here, read a piece of rows at a time, in the returned block-length
    ``extra``.  The others are returned as ``owners`` (their block rows) and
    ``filled`` (how many replicates the pass gave them), for
    :func:`_redraw_rounds`.
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
    return extra, rows[pending], filled[pending]


def _redrawn_extras(
    first: _FirstPass, scale: Scale, point: np.ndarray, owners: np.ndarray, filled: np.ndarray,
    redraws: np.ndarray, extra: np.ndarray,
) -> None:
    """The correction of the rows ``owners`` that redraw, into ``extra``.  A
    piece of rows at a time, each row's replicates are the ``filled[i]`` the
    first pass gave it, then its redraws (:func:`_redraw_rounds`)."""
    draws = first.ratios.shape[1]
    at = np.searchsorted(first.rows, owners)
    ends = np.cumsum(draws - filled)
    for piece in _pieces(len(owners), draws):
        part = at[piece]
        replicates = np.empty((len(part), draws))
        head = np.arange(draws) < filled[piece, None]
        replicates[head] = first.ratios[part][first.level[part] > (scale is Scale.LOG)]
        tail = redraws[ends[piece][0] - (draws - filled[piece][0]):ends[piece][-1]]
        replicates[np.logical_not(head, out=head)] = tail
        extra[owners[piece]] = _mean_square_deviation(replicates, point[owners[piece]], scale)


def _redraw_rounds(
    released: ReleasedBlock, scale: Scale, owners: np.ndarray, filled: np.ndarray, streams: _Streams
) -> tuple[np.ndarray, np.ndarray]:
    """Redraw the replicates the first pass left each row ``owners[i]`` short
    of ``draws`` (it gave ``filled[i]``); return them, row after row in draw
    order, and which rows are capped.

    Redraws run in rounds over every row that still lacks replicates: each
    row takes the k replicates it lacks, k raw draws per noisy sum,
    numerator first, from the next 2k (or k) positions of its stream past
    the first pass (the stream of a per-row loop, so the generators must be
    distinct).  One :meth:`_Streams.gather` reads the round's unit noise
    straight into its numerator and denominator rows, one product scales
    them to the release variances, and each row's accepted replicates follow
    the ones it has.  A row that rejects more than
    ``_REDRAW_CAP_PER_DRAW * draws`` replicates is capped and writes nothing
    in that round; its places past the last it filled stay 0.
    """
    lo, hi, variances = _noisy_halves(released)
    factor = noise_scale(released.mechanism, variances)  # unit noise to each half's noise
    draws = streams.draws
    lack = draws - filled
    redraws = np.zeros(int(lack.sum()))
    slot = np.cumsum(lack) - draws  # replicate j >= filled[i] of row i is redraws[slot[i] + j]
    capped = np.zeros(len(owners), dtype=bool)
    sums = released.values[owners][:, [_SUM_WS, _SUM_WY]].T  # (numerator, denominator) per row
    at = np.searchsorted(streams.rows, owners)  # their streams
    live = np.arange(len(owners))  # the rows that still lack replicates
    rejected = draws - filled
    position = np.zeros(len(owners), dtype=np.intp)  # each live row's stream past the first pass
    cap = _REDRAW_CAP_PER_DRAW * draws
    while len(live):
        k = draws - filled
        ends = np.cumsum(k)
        starts = ends - k
        noise = np.zeros((2, ends[-1])) if hi - lo < 2 else np.empty((2, ends[-1]))
        if lo < hi:
            streams.gather(at[live], position, k, starts, noise[lo:hi])
            position += (hi - lo) * k
            noise[lo:hi] *= factor
        noise += np.repeat(sums[:, live], k, axis=1)
        more_num, more_den = noise
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
        target = np.repeat(slot[live] + filled - first_place, accepted)
        target += np.arange(len(target))
        redraws[target] = np.divide(more_num, more_den, out=more_num)[accept]
        filled = filled + accepted
        going = ~over & (filled < draws)
        live, filled, rejected, position = live[going], filled[going], rejected[going], position[going]
    return redraws, capped


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
    union of the cells' rows, and right after its draws each row reads its
    stream ahead (:func:`_read_ahead`, sized from the release and ``draws``
    alone) into one buffer (:class:`_Streams`).  Each cell then runs its
    own redraws (:func:`_redraw_rounds`), in the given order, reading each
    row's stream from position 0 out of that buffer; a read past it extends
    the row's stream to the next point of a fixed schedule.  So each cell
    reads the stream it would see on its own, and a generator stops at the
    schedule point of the longest cell's read.  A cell keeps only its
    redraws; its replicates are put together from them and the first pass a
    piece of rows at a time (:func:`_redrawn_extras`).  Returns, per cell,
    the mean squared deviation from the point estimate and the redraw and
    cap masks, all of block length.
    """
    size = len(released.values)
    drawn = np.zeros(size, dtype=bool)
    for _, _, rows in cells:
        drawn[rows] = True
    union = np.flatnonzero(drawn)
    if (released.variance("sum_ws") == 0.0 and released.variance("sum_wy") == 0.0) or len(union) == 0:
        return [(np.zeros(size), np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)) for _ in cells]
    streams = _Streams(released, union, draws, rngs)
    first = _first_pass(released, [scale for scale, _, _ in cells], streams)
    extras = []
    for scale, point, rows in cells:
        extra, owners, filled = _first_pass_extras(first, scale, point, rows, draws)
        redraws, capped = _redraw_rounds(released, scale, owners, filled, streams)
        # A capped row's replicates are incomplete; its refusal discards the result.
        _redrawn_extras(first, scale, point, owners, filled, redraws, extra)
        redrawn, capped_rows = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        redrawn[owners] = True
        capped_rows[owners[capped]] = True
        extras.append((extra, redrawn, capped_rows))
    return extras


def estimate_block(
    released: ReleasedBlock,
    method: Method | str,
    scale: Scale | str = Scale.RATIO,
    level: float = DEFAULT_LEVEL,
    draws: int = DEFAULT_MC_DRAWS,
    rngs: Sequence[np.random.Generator] | None = None,
) -> EstimateBlock:
    """Point estimates and Wald intervals of one method for every row.

    ``method`` and ``scale`` are members or their values.  ``Method.PUBLIC``
    is the no-correction pipeline, meant for exact sums.
    ``Method.MONTE_CARLO`` needs ``rngs``, one distinct generator per row;
    a row draws from its generator only if it was not refused before.  Its
    redraws are read ahead, so a generator stops at the row's schedule point
    (:func:`_schedule_point`), past where a per-row redraw loop would stop;
    the estimates do not depend on how far.
    """
    return _estimate_scales(released, method, (scale,), level, draws, rngs)[0]


def _estimate_scales(
    released: ReleasedBlock,
    method: Method | str,
    scales: Sequence[Scale | str],
    level: float = DEFAULT_LEVEL,
    draws: int = DEFAULT_MC_DRAWS,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[EstimateBlock]:
    """:func:`estimate_block` on each of ``scales``, one Monte Carlo first pass for all.

    ``rngs`` holds one generator per row, each at the start of its stream.
    Each scale's result equals :func:`estimate_block` of that scale on fresh
    generators.  The method, scales and the block's mechanism are parsed
    here, for every entry point.
    """
    method = _parse_member(Method, method, "method")
    scales = [_parse_member(Scale, scale, "scale") for scale in scales]
    if released.mechanism is not None:
        released = released._replace(mechanism=_parse_member(MechanismKind, released.mechanism, "mechanism"))
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
    scale: Scale | str,
    level: float,
    draws: int = DEFAULT_MC_DRAWS,
    rng: np.random.Generator | None = None,
) -> RatioEstimate:
    """``method`` on the one-row block of ``released``; a refusal raises, and so
    does a variance or interval end that is not finite."""
    scale = _parse_member(Scale, scale, "scale")
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
    released: ReleasedSums, scale: Scale | str = Scale.RATIO, level: float = DEFAULT_LEVEL
) -> RatioEstimate:
    """Wald interval that ignores the noise injected by the release.

    The noisy sums are treated as if they were exact: plug-in moments feed
    the delta-method variance directly.  Expect under-coverage at small
    sample sizes or small budgets.
    """
    return _estimate_one(released, Method.NO_CORRECTION, scale, level)


def ci_monte_carlo(
    released: ReleasedSums,
    scale: Scale | str = Scale.RATIO,
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
    ten times ``draws`` rejections.  Redraws are read ahead, so ``rng`` is
    left at a schedule point past where a one-at-a-time redraw loop would
    leave it (see :func:`estimate_block`).
    """
    return _estimate_one(released, Method.MONTE_CARLO, scale, level, draws, rng)


def ci_analytical(
    released: ReleasedSums, scale: Scale | str = Scale.RATIO, level: float = DEFAULT_LEVEL
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
    sums: SumVector, scale: Scale | str = Scale.RATIO, level: float = DEFAULT_LEVEL
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
