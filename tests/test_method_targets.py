"""What the Monte Carlo method estimates, checked against quadrature.

On the log scale a row's Monte Carlo extra estimates
E[(log S* - log Y* - point)^2], where S* and Y* are independent, each a
noisy sum plus fresh noise at its release variance, conditioned to be
positive.  That equals Var log S* + Var log Y* + (E log S* - E log Y* -
point)^2, and each term is a one-dimensional integral.  The trapezoid
rule in t = log x computes them, because the integrand in t is smooth and
decays on both sides.

On the ratio scale the target is infinite: the noise density is positive
at 0, so E[1/Y*^2] diverges, and the extra grows with the draw count
wherever the denominator sits a few noise deviations above zero.
"""

import math

import numpy as np
import pytest

import dpratio as d
from dpratio import inference
from dpratio.core import SUM_FIELDS

_MECHANISMS = [d.MechanismKind.GAUSSIAN, d.MechanismKind.LAPLACE]
_POINTS = 400_001


def _released(mechanism, sum_ws, sum_wy, var_ws, var_wy, rows=1):
    """A block of ``rows`` equal releases with these noisy sums and noise variances."""
    values = {f: 1.0 for f in SUM_FIELDS}
    values.update(sum_ws=sum_ws, sum_wy=sum_wy)
    variance = {f: 0.0 for f in SUM_FIELDS}
    variance.update(sum_ws=var_ws, sum_wy=var_wy)
    return d.ReleasedBlock(
        np.tile([values[f] for f in SUM_FIELDS], (rows, 1)),
        np.array([variance[f] for f in SUM_FIELDS]),
        mechanism, d.PrivacyBudget(1.0), d.Profile.FULL7,
    )


def _log_moments(mechanism, x, variance):
    """Mean and variance of log X*, where X* is ``x`` plus noise of the
    mechanism at ``variance``, conditioned to be positive."""
    sd = math.sqrt(variance)
    t = np.linspace(-40.0, math.log(x + 60.0 * sd), _POINTS)
    noise = np.exp(t) - x
    if mechanism is d.MechanismKind.GAUSSIAN:
        density = np.exp(-0.5 * np.square(noise / sd))
    else:
        density = np.exp(-np.abs(noise) * (math.sqrt(2.0) / sd))
    weight = density * np.exp(t)  # the density of t = log X*, up to a constant

    def integral(f):
        return (t[1] - t[0]) * (f.sum() - 0.5 * (f[0] + f[-1]))

    total = integral(weight)
    mean = integral(t * weight) / total
    return mean, integral(np.square(t - mean) * weight) / total


def _log_target(mechanism, sum_ws, sum_wy, var_ws, var_wy):
    """The quadrature of E[(log S* - log Y* - point)^2]."""
    mean_s, var_s = _log_moments(mechanism, sum_ws, var_ws)
    mean_y, var_y = _log_moments(mechanism, sum_wy, var_wy)
    point = math.log(sum_ws / sum_wy)
    return var_s + var_y + (mean_s - mean_y - point) ** 2


def _squared_deviations(released, scale, draws, seeds):
    """Each row's Monte Carlo squared deviations, one row per seed: the
    replicates the pass reduces, as it hands them to _mean_square_deviation."""
    reduce = inference._mean_square_deviation
    rows = []

    def watched(replicates, point, scale):
        deviations = np.log(replicates) if scale is d.Scale.LOG else replicates.copy()
        rows.extend(np.square(deviations - point[:, None]))
        return reduce(replicates, point, scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_mean_square_deviation", watched)
        d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws,
                         rng=np.random.default_rng(list(seeds)))
    return np.array(rows)


#: (noisy sum_ws, noisy sum_wy, noise variance of each): denominator SNRs
#: of about 3.3, 2 and 45.
_LOG_CELLS = [(60.0, 100.0, 400.0, 900.0), (30.0, 40.0, 400.0, 400.0), (500.0, 900.0, 400.0, 400.0)]


class TestLogScaleTarget:
    """At 2·10^5 draws each row's log-scale extra lies within 4 of its own
    standard errors of the quadrature."""

    @pytest.mark.parametrize("cell", _LOG_CELLS, ids=lambda c: f"{c[0]:g}-{c[1]:g}")
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_extra_matches_quadrature(self, mechanism, cell):
        target = _log_target(mechanism, *cell)
        deviations = _squared_deviations(_released(mechanism, *cell, rows=3), d.Scale.LOG, 200_000, range(3))
        extra = deviations.mean(axis=1)
        error = deviations.std(axis=1) / math.sqrt(deviations.shape[1])
        assert (np.abs(extra - target) < 4.0 * error).all(), (target, extra, error)


class TestRatioScaleGrowth:
    """The ratio-scale extra has no finite target near zero: over 40 rows
    its median grows at least fivefold per tenfold draws at SNR 2, and over
    400 rows it moves less than 5% at SNR 45."""

    DRAWS = (200, 2_000, 20_000)

    def _medians(self, mechanism, cell, rows):
        released = _released(mechanism, *cell, rows=rows)
        return np.array([
            np.median(_squared_deviations(released, d.Scale.RATIO, draws, range(rows)).mean(axis=1))
            for draws in self.DRAWS
        ])

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_grows_at_snr_2(self, mechanism):
        medians = self._medians(mechanism, (30.0, 40.0, 400.0, 400.0), 40)
        assert (medians[1:] >= 5.0 * medians[:-1]).all(), medians

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_settles_at_snr_45(self, mechanism):
        medians = self._medians(mechanism, (500.0, 900.0, 400.0, 400.0), 400)
        assert (np.abs(medians / medians[0] - 1.0) < 0.05).all(), medians
