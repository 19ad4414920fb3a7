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
    MechanismKind, ReleasedBlock, ReleasedSums, exact_release, noise_from_raw, raw_draws,
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


#: Monte Carlo values per piece: the Monte Carlo pass draws and scores
#: max(1, _PIECE_VALUES // draws) rows at a time, so its arrays stay this
#: small however many rows the block has.
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


def _redraw_cap(draws: int) -> int:
    """The redraw pairs a row may read: a row that needs more is capped."""
    return int(_REDRAW_CAP_PER_DRAW * draws)


#: Standard deviations past its expected trials that a short row draws.
_EXTENSION_SDS = 2.0


def _extension(accepted: np.ndarray, drawn: np.ndarray, draws: int) -> np.ndarray:
    """How many more redraw pairs each short row draws, from its own counts:
    its strictest scale accepts ``accepted`` of its ``drawn`` pairs, fewer
    than ``draws``, and ``drawn - draws`` is short of the cap.

    At the acceptance rate q = accepted / drawn the r = draws - accepted
    pairs it lacks take r / q trials on average, with standard deviation
    sqrt(r (1 - q)) / q; the row draws that mean plus ``_EXTENSION_SDS``
    deviations, rounded up.  That is at least one pair, and never past the
    cap: a row that has accepted nothing (q = 0) takes all the room left.
    """
    lack = draws - accepted
    rate = accepted / drawn
    with np.errstate(divide="ignore"):
        trials = np.ceil((lack + _EXTENSION_SDS * np.sqrt(lack * (1.0 - rate))) / rate)
    return np.minimum(trials, draws + _redraw_cap(draws) - drawn).astype(np.intp)


def _ratio_level(numerator: np.ndarray, denominator: np.ndarray, ratios: np.ndarray,
                 level: np.ndarray) -> None:
    """Each pair's ratio and level: 0 where the denominator is not positive,
    1 where only it is, 2 where the numerator is too.  The ratio scale
    accepts level 1 and up, the log scale level 2."""
    den_ok = denominator > 0.0
    np.add(den_ok, (numerator > 0.0) & den_ok, out=level, dtype=np.uint8)
    np.divide(numerator, denominator, out=ratios)


def _redraw_pairs(
    released: ReleasedBlock, rows: np.ndarray, counts: np.ndarray,
    generators: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Ratios and levels of ``counts[i]`` fresh redraw pairs of each row
    ``rows[i]``, row after row, drawn with one call of ``generators[i]``:
    pair after pair, one draw per noisy sum, numerator first."""
    lo, hi, variances = _noisy_halves(released)
    raw = np.empty((int(counts.sum()), hi - lo))
    stops = np.cumsum(counts).tolist()
    for rng, a, b in zip(generators, [0, *stops], stops):
        raw_draws(rng, released.mechanism, out=raw[a:b])
    pairs = np.repeat(released.values[rows][:, [_SUM_WS, _SUM_WY]], counts, axis=0)
    pairs[:, lo:hi] += noise_from_raw(raw, released.mechanism, variances.T)
    ratios, level = np.empty(len(pairs)), np.empty(len(pairs), dtype=np.uint8)
    _ratio_level(pairs[:, 0], pairs[:, 1], ratios, level)
    return ratios, level


def _segment_counts(flags: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """How many of ``flags`` are set in each of the consecutive segments of ``lengths``."""
    counts = np.zeros(len(lengths), dtype=np.intp)
    full = lengths > 0  # reduceat reads an empty segment as the next flag
    if full.any():
        counts[full] = np.add.reduceat(flags, (np.cumsum(lengths) - lengths)[full], dtype=np.intp)
    return counts


def _mean_square_deviation(replicates: np.ndarray, point: np.ndarray, scale: Scale) -> np.ndarray:
    """Each row's mean squared deviation of its ``replicates`` from its ``point``,
    on ``scale``; overwrites ``replicates``.  Each row is reduced on its own,
    so a row's result does not depend on the rows beside it."""
    if scale is Scale.LOG:
        np.log(replicates, out=replicates)
    replicates -= point[:, None]
    return np.mean(np.square(replicates, out=replicates), axis=1)


def _monte_carlo_extras(
    released: ReleasedBlock,
    cells: Sequence[tuple[Scale, np.ndarray, np.ndarray]],
    draws: int,
    rngs: Sequence[np.random.Generator],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Injected variance of the point estimates, estimated by re-noising.

    Each cell is a (scale, point estimates, rows to correct) triple.  Each
    such row has one sequence of (numerator, denominator) noise pairs from
    its own generator, at the release variances, added to the noisy sums:
    pair j < ``draws`` is numerator j and denominator j of its first pass,
    ``draws`` numerators then ``draws`` denominators drawn with one
    generator call, and each later pair, a redraw, takes the next draw of
    each noisy sum, numerator first.  A scale's replicates are its first
    pass with each pair it rejects replaced, in turn, by the next redraw
    pair it accepts: the first ``draws`` pairs it accepts.  A row whose
    pairs hold fewer is capped and keeps its first pass; its refusal
    discards the result.

    The cells share the pairs, drawn as far as the strictest scale drawing
    each row needs: while a row's pairs hold fewer than ``draws`` that it
    accepts, and fewer redraw pairs than the cap, the row draws the redraw
    pairs :func:`_extension` gives for its counts so far, with one
    generator call.  How far past them a row draws moves only where its
    generator stops, never an estimate.  The rows are drawn and scored a
    piece at a time (:func:`_pieces`), and nothing of a piece is kept: a
    row's draws depend only on its own counts and each row is reduced on
    its own, so pieces change no value.  Returns, per cell, the mean
    squared deviation from the point estimate and the redraw and cap
    masks, all of block length.
    """
    size = len(released.values)
    members, strict = [], np.zeros(size, dtype=bool)
    for scale, _, rows in cells:
        member = np.zeros(size, dtype=bool)
        member[rows] = True
        strict |= member & (scale is Scale.LOG)
        members.append(member)
    results = [(np.zeros(size), np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)) for _ in cells]
    union = np.flatnonzero(np.logical_or.reduce(members))
    if (released.variance("sum_ws") == 0.0 and released.variance("sum_wy") == 0.0) or len(union) == 0:
        return results
    lo, hi, variances = _noisy_halves(released)
    mechanism, noisy, cap = released.mechanism, hi - lo, _redraw_cap(draws)
    for piece in _pieces(len(union), draws):
        rows = union[piece]
        generators = [rngs[row] for row in rows.tolist()]
        first = np.zeros((len(rows), 2, draws)) if noisy < 2 else np.empty((len(rows), 2, draws))
        if noisy:
            for rng, out in zip(generators, first):
                raw_draws(rng, mechanism, out=out[lo:hi])
            noise_from_raw(first[:, lo:hi], mechanism, variances)
        first += released.values[rows][:, [_SUM_WS, _SUM_WY], None]
        ratios, level = np.empty((len(rows), draws)), np.empty((len(rows), draws), dtype=np.uint8)
        _ratio_level(first[:, 0], first[:, 1], ratios, level)
        # Extend the rows short of accepted pairs until each is done or capped.
        piece_strict = strict[rows]
        accepted = np.count_nonzero(level > piece_strict[:, None], axis=1)
        redraws = np.zeros(len(rows), dtype=np.intp)
        rounds = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0, dtype=np.uint8))]
        short = np.arange(len(rows))
        while len(short := short[(accepted[short] < draws) & (redraws[short] < cap)]):
            more = _extension(accepted[short], draws + redraws[short], draws)
            new_ratios, new_level = _redraw_pairs(
                released, rows[short], more, [generators[i] for i in short.tolist()]
            )
            accepted[short] += _segment_counts(new_level > np.repeat(piece_strict[short], more), more)
            redraws[short] += more
            rounds.append((np.repeat(short, more), new_ratios, new_level))
        # Each round's pairs are row after row; a stable sort puts each row's rounds together.
        owners, redraw_ratios, redraw_level = map(np.concatenate, zip(*rounds))
        if len(rounds) > 2:
            order = np.argsort(owners, kind="stable")
            redraw_ratios, redraw_level = redraw_ratios[order], redraw_level[order]
        for (scale, point, _), (extra, redrawn, capped) in zip(cells, results):
            log = scale is Scale.LOG
            first_ok = level > log
            lack = draws - np.count_nonzero(first_ok, axis=1)
            replicates = ratios.copy()
            if lack.any():
                ok = redraw_level > log
                found = _segment_counts(ok, redraws)
                fill = np.where(found < lack, 0, lack)
                # Each redraw pair's rank among its row's accepted ones.
                rank = np.cumsum(ok) - np.repeat(np.cumsum(found) - found, redraws)
                taken = ok & (rank <= np.repeat(fill, redraws))
                replicates[~first_ok & (fill[:, None] > 0)] = redraw_ratios[taken]
                redrawn[rows], capped[rows] = lack > 0, found < lack
            extra[rows] = _mean_square_deviation(replicates, point[rows], scale)
    for member, (extra, redrawn, capped) in zip(members, results):
        extra[~member], redrawn[~member], capped[~member] = 0.0, False, False
    return results


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
    redraw pairs come in batches sized from its own counts
    (:func:`_extension`), so a generator can stop past the last pair the
    row takes; the estimates do not depend on how far.  The rows are drawn
    and scored a piece at a time, so the pass's memory does not grow with
    the block.
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
    denominator (or non-positive ratio on the log scale) are redrawn, one
    fresh pair at a time, numerator first, up to ten times ``draws``
    rejections.  Redraws come in batches, so ``rng`` can be left past the
    last pair taken (see :func:`estimate_block`).
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
