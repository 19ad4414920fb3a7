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
# perfbench/tracer.py wraps this name; it goes with ROADMAP item 5.
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


class _FirstPass(NamedTuple):
    """The first Monte Carlo pass over the rows ``rows`` of a block.

    ``ratios`` holds each row's ``draws`` re-noised numerator over
    denominator, ``num_ok`` and ``den_ok`` whether those sums are positive.
    Only the halves ``lo:hi`` (numerator 0, denominator 1) carry noise, at
    ``variances``.  ``states`` holds the generator state, just past the
    pass, of each row a scale has redrawn, for the scales that redraw it later.
    """

    rows: np.ndarray
    ratios: np.ndarray
    num_ok: np.ndarray
    den_ok: np.ndarray
    lo: int
    hi: int
    variances: np.ndarray
    states: dict[int, dict]


def _first_pass(
    released: ReleasedBlock, rows: np.ndarray, draws: int, rngs: Sequence[np.random.Generator]
) -> _FirstPass:
    """Each row fills its (numerator, denominator) draws with one call on its
    generator ``rngs[row]``, then one transform maps them all to noise.  As in
    draw_noise, a sum without noise draws nothing, so the drawn halves are the
    contiguous slice lo:hi and the stream matches per-sum calls."""
    mechanism = released.mechanism
    var_s, var_y = released.variance("sum_ws"), released.variance("sum_wy")
    lo = 0 if mechanism is not None and var_s > 0.0 else 1
    hi = 2 if mechanism is not None and var_y > 0.0 else 1
    variances = np.array([var_s, var_y])[lo:hi, None]
    noisy = np.zeros((len(rows), 2, draws))
    if lo < hi:
        drawn = noisy[:, lo:hi]
        for row, out in zip(rows.tolist(), drawn):
            raw_draws(rngs[row], mechanism, out=out)
        noise_from_raw(drawn, mechanism, variances)
    noisy_num, noisy_den = noisy[:, 0], noisy[:, 1]
    noisy_num += released.values[rows, _SUM_WS, None]
    noisy_den += released.values[rows, _SUM_WY, None]
    return _FirstPass(
        rows, noisy_num / noisy_den, noisy_num > 0.0, noisy_den > 0.0, lo, hi, variances, {}
    )


def _redraw_rounds(
    released: ReleasedBlock,
    first: _FirstPass,
    scale: Scale,
    point: np.ndarray,
    rows: np.ndarray,
    draws: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The correction of one scale for ``rows``, a subset of the first pass's.

    A replicate with a non-positive denominator (or numerator, on the log
    scale) is redrawn.  Redraws run in rounds over every row that still
    lacks replicates: each row draws the pairs it lacks with one call on its
    own generator (the stream of a per-row loop, so the generators must be
    distinct), one transform maps the round to noise, and each row's
    accepted replicates follow the ones it holds.  A row that rejects more
    than ``_REDRAW_CAP_PER_DRAW * draws`` replicates is capped and writes
    nothing in that round.  The first scale to redraw a row saves its
    generator's state in ``first.states``; a later scale restores it, so
    each scale redraws from where the first pass left the stream.
    """
    extra = np.zeros(len(point))
    redrawn = np.zeros(len(point), dtype=bool)
    capped = np.zeros(len(point), dtype=bool)
    mechanism, lo, hi, variances = released.mechanism, first.lo, first.hi, first.variances
    m = hi - lo
    at = np.searchsorted(first.rows, rows)
    ok = first.den_ok[at]
    if scale is Scale.LOG:
        ok &= first.num_ok[at]
    replicates = first.ratios[at]

    # Rows with rejections move their accepted replicates to the front.
    filled = ok.sum(axis=1)
    replicates[np.arange(draws) < filled[:, None]] = replicates[ok]
    pending = np.flatnonzero(filled < draws)  # positions in ``rows``
    redrawn[rows[pending]] = True
    for row in rows[pending].tolist():
        if row in first.states:
            rngs[row].bit_generator.state = first.states[row]
        else:
            first.states[row] = rngs[row].bit_generator.state
    numerator = released.values[rows, _SUM_WS]
    denominator = released.values[rows, _SUM_WY]
    filled = filled[pending]
    rejected = draws - filled
    cap = _REDRAW_CAP_PER_DRAW * draws
    flat = replicates.reshape(-1)  # replicate (i, j) is flat[i * draws + j]
    while len(pending):
        # Each pending row draws the k replicates it lacks with one generator
        # call, k draws per noisy sum, numerator first, as draw_noise would.
        k = draws - filled
        ends = np.cumsum(k)
        starts = ends - k
        seg = np.repeat(np.arange(len(pending)), k)  # the pending row of each replicate
        noise = np.zeros((2, ends[-1]))
        if m:
            raw = np.empty(m * ends[-1])
            for row, a, b in zip(rows[pending].tolist(), (m * starts).tolist(), (m * ends).tolist()):
                raw_draws(rngs[row], mechanism, out=raw[a:b])
            # Replicate j of row r reads its half-h draw at j + (m-1)*starts[r] + h*k[r].
            at = np.arange(ends[-1]) + (m - 1) * starts[seg]
            noise[lo:hi] = raw[at + np.arange(m)[:, None] * k[seg]]
            noise_from_raw(noise[lo:hi], mechanism, variances)
        noise[0] += numerator[pending[seg]]
        noise[1] += denominator[pending[seg]]
        more_num, more_den = noise
        accept = more_den > 0.0
        if scale is Scale.LOG:
            accept &= more_num > 0.0
        write = np.flatnonzero(accept)
        owner = seg[write]
        accepted = np.bincount(owner, minlength=len(pending))
        rejected += k - accepted
        over = rejected > cap
        # A row's accepted replicates follow its filled ones, in draw order.
        first_place = np.cumsum(accepted) - accepted  # the row's first place in ``write``
        target = (pending * draws + filled - first_place)[owner] + np.arange(len(write))
        ratios = more_num[write] / more_den[write]
        if over.any():
            capped[rows[pending[over]]] = True
            target, ratios = target[~over[owner]], ratios[~over[owner]]  # a capped row writes nothing
        flat[target] = ratios
        filled += accepted
        going = ~over & (filled < draws)
        pending, filled, rejected = pending[going], filled[going], rejected[going]

    if scale is Scale.LOG:
        np.log(replicates, out=replicates)
    replicates -= point[rows, None]
    extra[rows] = np.mean(np.square(replicates, out=replicates), axis=1)
    return extra, redrawn, capped


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
    (:func:`_redraw_rounds`) from where that pass left the row's generator
    ``rngs[row]``, so each cell sees the stream it would see on its own.
    Returns, per cell, the mean squared deviation from the point estimate
    and the redraw and cap masks, all of block length.
    """
    size = len(released.values)
    drawn = np.zeros(size, dtype=bool)
    for _, _, rows in cells:
        drawn[rows] = True
    union = np.flatnonzero(drawn)
    if (released.variance("sum_ws") == 0.0 and released.variance("sum_wy") == 0.0) or len(union) == 0:
        return [(np.zeros(size), np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)) for _ in cells]
    first = _first_pass(released, union, draws, rngs)
    return [_redraw_rounds(released, first, scale, point, rows, draws, rngs) for scale, point, rows in cells]


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
    """``method`` on the one-row block of ``released``; a refusal raises."""
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
    return RatioEstimate(
        point=float(block.point[0]),
        variance=float(block.variance[0]),
        scale=scale,
        method=method,
        ci_lower=float(block.ci_lower[0]),
        ci_upper=float(block.ci_upper[0]),
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
