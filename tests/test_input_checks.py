"""Each input check refuses what it owns, with its own error type and message."""

import math
import re

import numpy as np
import pytest

import dpratio as d

_NEGATIVE_VARIANCE = dict(mu_s=0.5, mu_y=0.5, var_s_bar=-1e-9, var_y_bar=0.0, cov_ys_bar=0.0)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: d.Bounds(y_high=math.inf), d.InvalidConfigError, "bounds must be finite", id="bound-inf"),
    pytest.param(lambda: d.Bounds(s_low=math.nan), d.InvalidConfigError, "bounds must be finite", id="bound-nan"),
    pytest.param(lambda: d.Bounds(y_low=0.8, y_high=0.2), d.InvalidConfigError,
                 "label bounds require 0 <= y_low <= y_high", id="y-bounds-order"),
    pytest.param(lambda: d.Bounds(s_low=0.8, s_high=0.2), d.InvalidConfigError,
                 "score bounds require 0 <= s_low <= s_high", id="s-bounds-order"),
    pytest.param(lambda: d.Moments(**_NEGATIVE_VARIANCE), d.InvalidSumsError,
                 "moment variances must be floored at zero before construction", id="moments-negative-variance"),
    pytest.param(lambda: d.SumVector(2.0, 1.0, math.inf, 2.0, 1.0, 1.0, 1.0, d.Profile.FULL7), d.InvalidSumsError,
                 "sums must be finite", id="sums-not-finite"),
    pytest.param(lambda: d.SumVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, d.Profile.FULL7), d.InvalidSumsError,
                 "sum_w must be positive for non-empty data", id="sum-w-zero"),
    pytest.param(lambda: d.compute_sums_from_arrays(np.ones(3), np.ones(2), np.ones(3), d.Bounds()),
                 d.InvalidConfigError, "y, s, w must be one-dimensional arrays of equal length", id="array-shapes"),
    pytest.param(lambda: d.draw_noise(np.random.default_rng(0), d.MechanismKind.GAUSSIAN, -1.0), ValueError,
                 "noise_variance must be non-negative", id="noise-variance-negative"),
    pytest.param(lambda: d.interval_score(0.0, 1.0, 0.5, 1.0), d.InvalidConfigError,
                 "alpha must lie in (0, 1), got 1.0", id="alpha-one"),
    pytest.param(lambda: d.interval_score(0.0, 1.0, 0.5, 0.0), d.InvalidConfigError,
                 "alpha must lie in (0, 1), got 0.0", id="alpha-zero"),
])
def test_refuses(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_monte_carlo_without_a_generator_draws_from_fresh_entropy():
    rng = np.random.default_rng(3)
    y = (rng.random(500) < 0.5).astype(float)
    sums = d.compute_sums_from_arrays(y, rng.random(500), np.ones(500), d.Bounds.binary())
    released = d.release(sums, d.Bounds.binary(), d.PrivacyBudget(4.0, 1e-6), d.MechanismKind.GAUSSIAN, rng)
    estimate = d.ci_monte_carlo(released, draws=50)
    assert estimate.method is d.Method.MONTE_CARLO
    assert all(math.isfinite(x) for x in (estimate.point, estimate.variance, estimate.ci_lower, estimate.ci_upper))
    assert estimate.ci_lower < estimate.point < estimate.ci_upper
