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

from .core import SUM_W, SUM_W2, SUM_WS, SUM_WS2, SUM_WY, SUM_WY2, SUM_WYS
from .core import Moments, SumVector, _check_count, _parse_member
from .errors import (
    DegenerateDenominatorError,
    DegenerateNumeratorError,
    DegenerateVarianceError,
    InvalidConfigError,
    ScaleMismatchError,
)
from .mechanisms import (
    MechanismKind, ReleasedBlock, ReleasedSums, exact_release, lower_tail_mass, truncated_noise,
)
# perfbench/tracer.py wraps this name: without it inference.draw_noise.self_s
# has no value, and CI's "Every benchmark workload ends in a complete result
# line" step fails at --trace 1.  It goes with ROADMAP item 4's "delete what
# only the tracer keeps" step.
from .mechanisms import draw_noise  # noqa: F401

_NORMAL = NormalDist()

#: Default confidence level and Monte Carlo draw count of every interval entry point.
DEFAULT_LEVEL = 0.95
DEFAULT_MC_DRAWS = 200


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
    "monte_carlo_truncated",
)
_MOMENT_FLAGS = 3  # the first three come from the plug-in moments


class Refusal(IntEnum):
    """Why a row of a block has no estimate.

    The first failing check names the cause, in the order: noisy label sum,
    log-scale numerator, noisy weight sum, zero mean.
    """

    NONE = 0
    NONPOSITIVE_DENOMINATOR = 1  # noisy sum_wy or sum_w not positive, or a zero mean
    NONPOSITIVE_LOG_NUMERATOR = 2  # noisy sum_ws not positive on the log scale


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
    numerator = values[:, SUM_WS]
    denominator = values[:, SUM_WY]
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
    total_w = values[:, SUM_W]
    _refuse(refusal, ~(total_w > 0.0), Refusal.NONPOSITIVE_DENOMINATOR)
    mu_y = values[:, SUM_WY] / total_w
    mu_s = values[:, SUM_WS] / total_w
    kish_inverse = values[:, SUM_W2] / (total_w * total_w)
    var_s = kish_inverse * (values[:, SUM_WS2] / total_w - mu_s * mu_s)
    var_y = kish_inverse * (values[:, SUM_WY2] / total_w - mu_y * mu_y)
    cov = kish_inverse * (values[:, SUM_WYS] / total_w - mu_y * mu_s)
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


def _noisy_halves(released: ReleasedBlock) -> tuple[int, int]:
    """The halves ``lo:hi`` of a (numerator, denominator) pair that carry
    noise.  As in draw_noise, a sum without noise, or a release without a
    mechanism, draws nothing, so the drawn halves are a contiguous slice."""
    lo = 0 if released.mechanism is not None and released.noise_variance[SUM_WS] > 0.0 else 1
    hi = 2 if released.mechanism is not None and released.noise_variance[SUM_WY] > 0.0 else 1
    return lo, hi


def _replicates(
    sums: np.ndarray, uniforms: np.ndarray | None, released: ReleasedBlock, column: int, truncated: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's noisy sum plus fresh noise at the release variance of ``column``,
    one replicate per uniform, conditioned to be positive if ``truncated``,
    and the noise mass each row's condition cuts off.  A sum without noise
    (``uniforms`` None) is its own replicate.  Rounding at the cut can leave
    a truncated replicate at or below 0, so it is raised to the spacing of
    the doubles at its sum, the finest step a sum plus noise resolves."""
    if uniforms is None:
        return sums[:, None], np.zeros(len(sums))
    mechanism, variance = released.mechanism, float(released.noise_variance[column])
    mass = lower_tail_mass(mechanism, variance, sums) if truncated else np.zeros(len(sums))
    replicates = truncated_noise(uniforms, mechanism, variance, mass[:, None])
    replicates += sums[:, None]
    if truncated:
        np.maximum(replicates, np.spacing(sums)[:, None], out=replicates)
    return replicates, mass


def _mean_square_deviation(replicates: np.ndarray, point: np.ndarray, scale: Scale) -> np.ndarray:
    """Each row's mean squared deviation of its ``replicates`` from its ``point``,
    on ``scale``; overwrites ``replicates``.  Each row is reduced on its own,
    so a row's result does not depend on the rows beside it."""
    if scale is Scale.LOG:
        np.log(replicates, out=replicates)
    replicates -= point[:, None]
    return np.mean(np.square(replicates, out=replicates), axis=1)


def _row_uniforms(released: ReleasedBlock, draws: int) -> int:
    """The uniforms one Monte Carlo row reads: ``draws`` per noisy sum."""
    lo, hi = _noisy_halves(released)
    return (hi - lo) * draws


def _read_rows(rng: np.random.Generator, rows: list[int], first: int, out: np.ndarray) -> None:
    """Fill ``out[i]`` with row ``rows[i]``'s uniforms, at offset row
    times out[i].size, ``rng`` standing at row ``first`` <= rows[0]: one
    call per run of consecutive rows, the rows between passed over."""
    width = out[0].size
    runs = [i for i in range(1, len(rows)) if rows[i] != rows[i - 1] + 1]
    for a, b in zip([0, *runs], [*runs, len(rows)]):
        if rows[a] > first:
            rng.bit_generator.advance((rows[a] - first) * width)
        rng.random(out=out[a:b])
        first = rows[b - 1] + 1


def _score_piece(
    released: ReleasedBlock, cells: Sequence[tuple[Scale, np.ndarray, np.ndarray]], rows: np.ndarray,
    draws: int, rng: np.random.Generator, first: int, results: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """:func:`_monte_carlo_extras` on one piece of ``rows``, with ``rng`` at
    row ``first``, into ``results``; nothing of the piece outlives the call."""
    lo, hi = _noisy_halves(released)
    uniforms = np.empty((len(rows), hi - lo, draws))
    _read_rows(rng, rows.tolist(), first, uniforms)
    sums = released.values[rows]
    denominators, cut = _replicates(sums[:, SUM_WY], uniforms[:, -1] if hi == 2 else None,
                                    released, SUM_WY, True)
    for (scale, point, member), (extra, truncated) in zip(cells, results):
        inside = member[rows]
        at = rows[inside]
        numerators, numerator_cut = _replicates(sums[inside, SUM_WS], uniforms[inside, 0] if lo == 0 else None,
                                                released, SUM_WS, scale is Scale.LOG)
        replicates = np.divide(numerators, denominators[inside])
        extra[at] = _mean_square_deviation(replicates, point[at], scale)
        truncated[at] = 1.0 - (1.0 - cut[inside]) * (1.0 - numerator_cut) >= 1.0 / draws


def _monte_carlo_extras(
    released: ReleasedBlock,
    cells: Sequence[tuple[Scale, np.ndarray, np.ndarray]],
    draws: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Injected variance of the point estimates, estimated by re-noising.

    Each cell is a (scale, point estimates, mask of the rows to correct)
    triple.  Row i reads its :func:`_row_uniforms` at offset i times their
    count, numerators first; a row no cell corrects is passed over, and
    ``rng`` ends just past the last row read.  Every scale maps the same
    uniforms.  Uniform j of a sum gives its replicate j by inverse CDF
    (:func:`~dpratio.mechanisms.truncated_noise`): the noisy sum plus fresh
    noise at its release variance, conditioned to be positive for the
    denominator, and for the numerator on the log scale.  The two sums'
    noise is independent, so that is the law of the replicates positive
    sums accept.  The rows are drawn and scored a piece at a time
    (:func:`_pieces`), each reduced on its own, so pieces change no value.

    Returns, per cell, the mean squared deviation from the point estimate
    and the truncation flag, of block length: set where the mass the scale
    cuts off, 1 - (1 - F(-y)) (1 - F(-s) on the log scale), is at least
    1 / ``draws``.
    """
    size = len(released.values)
    results = [(np.zeros(size), np.zeros(size, dtype=bool)) for _ in cells]
    union = np.flatnonzero(np.logical_or.reduce([member for _, _, member in cells]))
    lo, hi = _noisy_halves(released)
    if lo == hi:
        return results
    first = 0
    for piece in _pieces(len(union), draws):
        rows = union[piece]
        _score_piece(released, cells, rows, draws, rng, first, results)
        first = int(rows[-1]) + 1
    return results


def estimate_block(
    released: ReleasedBlock,
    method: Method | str,
    scale: Scale | str = Scale.RATIO,
    level: float = DEFAULT_LEVEL,
    draws: int = DEFAULT_MC_DRAWS,
    rng: np.random.Generator | None = None,
) -> EstimateBlock:
    """Point estimates and Wald intervals of one method for every row.

    ``method`` and ``scale`` are members or their values.  ``Method.PUBLIC``
    is the no-correction pipeline, meant for exact sums.
    ``Method.MONTE_CARLO`` needs ``rng``: row i reads ``draws`` uniforms
    per noisy sum at offset i times that count, unless refused before.
    The rows are drawn and scored a piece at a time, so the pass's memory
    does not grow with the block.
    """
    return _estimate_scales(released, method, (scale,), level, draws, rng)[0]


def _estimate_scales(
    released: ReleasedBlock,
    method: Method | str,
    scales: Sequence[Scale | str],
    level: float = DEFAULT_LEVEL,
    draws: int = DEFAULT_MC_DRAWS,
    rng: np.random.Generator | None = None,
) -> list[EstimateBlock]:
    """:func:`estimate_block` on each of ``scales``, one Monte Carlo draw for all.

    ``rng`` stands at the start of row 0's uniforms.  Each scale's result
    equals :func:`estimate_block` of that scale on a generator in the same
    state.  The method, scales and the block's mechanism are parsed here,
    for every entry point.
    """
    method = _parse_member(Method, method, "method")
    scales = [_parse_member(Scale, scale, "scale") for scale in scales]
    if released.mechanism is not None:
        released = released._replace(mechanism=_parse_member(MechanismKind, released.mechanism, "mechanism"))
    check_interval_settings(level, draws if method is Method.MONTE_CARLO else None)
    values = released.values
    if method is Method.MONTE_CARLO and rng is None:
        raise InvalidConfigError(f"monte carlo needs a generator for its {len(values)} rows, got None")
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
                w2 = values[:, SUM_W] * values[:, SUM_W]
                moments = moments._replace(
                    var_s_bar=moments.var_s_bar + released.noise_variance[SUM_WS] / w2,
                    var_y_bar=moments.var_y_bar + released.noise_variance[SUM_WY] / w2,
                )
            variance, flag[:, _MOMENT_FLAGS] = _variance_arrays(moments, scale, refusal)
            points.append(point)
            variances.append(variance)
            refusals.append(refusal)
            flags.append(flag)
        if method is Method.MONTE_CARLO:
            cells = [(scale, point, refusal == 0) for scale, point, refusal in zip(scales, points, refusals)]
            extras = _monte_carlo_extras(released, cells, draws, rng)
            for i, (extra, truncated) in enumerate(extras):
                flags[i][:, _MOMENT_FLAGS + 1] = truncated
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
    block = estimate_block(released.block, method, scale, level, draws, rng)
    code, v = block.refusal[0], released.values
    if code == Refusal.NONPOSITIVE_DENOMINATOR:
        raise DegenerateDenominatorError(
            f"noisy denominator not positive: sum_wy = {v['sum_wy']}, sum_w = {v['sum_w']}"
        )
    if code == Refusal.NONPOSITIVE_LOG_NUMERATOR:
        raise DegenerateNumeratorError(f"noisy sum_ws = {v['sum_ws']} is not positive")
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

    Fresh noise for the score and label sums is drawn at the original
    release variances and stacked on top of the already-noisy sums; the mean
    squared deviation of the re-noised ratios from the point estimate is
    added to the no-correction variance.  Each re-noised denominator (and,
    on the log scale, numerator) is drawn conditioned to be positive, by
    inverse CDF from one uniform, so ``rng`` yields exactly ``draws``
    uniforms per noisy sum, numerators first.
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
