import math
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpratio as d
from dpratio import inference
from dpratio.core import SUM_FIELDS, SUM_WY


def make_released(values, noise=None, mechanism=d.MechanismKind.GAUSSIAN,
                  profile=d.Profile.FULL7):
    vals = {f: 1.0 for f in SUM_FIELDS}
    vals.update(values)
    nv = {f: 0.0 for f in SUM_FIELDS}
    if noise:
        nv.update(noise)
    block = d.ReleasedBlock(
        np.array([[vals[f] for f in SUM_FIELDS]]), np.array([nv[f] for f in SUM_FIELDS]),
        mechanism, d.PrivacyBudget(1.0, 1e-6), profile,
    )
    return d.ReleasedSums(block)


def plug_in_moments(released):
    """The block engine's plug-in moments of a one-row release, and its refusal code."""
    refusal = np.zeros(1, dtype=np.int8)
    with np.errstate(all="ignore"):
        m = inference._moment_arrays(released.block.values, refusal)
    flags = tuple(f for f, on in zip(d.FLAGS, m.flags[0]) if on)
    return d.Moments(*(float(x[0]) for x in m[:5]), flags), refusal[0]


def log_ratio_variance(m):
    """The block engine's log-scale delta-method variance of one set of moments."""
    arrays = inference._MomentArrays(
        *(np.array([x]) for x in (m.mu_s, m.mu_y, m.var_s_bar, m.var_y_bar, m.cov_ys_bar)),
        np.zeros((1, inference._MOMENT_FLAGS), dtype=bool),
    )
    refusal = np.zeros(1, dtype=np.int8)
    variance, _ = inference._variance_arrays(arrays, d.Scale.LOG, refusal)
    assert refusal[0] == d.Refusal.NONE
    return float(variance[0])


def point_estimate(released, scale=d.Scale.RATIO):
    """The block engine's point estimate of a one-row release, and its refusal code."""
    refusal = np.zeros(1, dtype=np.int8)
    with np.errstate(all="ignore"):
        point = inference._point_arrays(released.block.values, scale, refusal)
    return float(point[0]), refusal[0]


def wald_interval(point, variance, level):
    lower, upper = inference._wald_arrays(np.array([point]), np.array([variance]), level)
    return float(lower[0]), float(upper[0])


def seeded_release(seed, epsilon=0.5, n=2000, weighted=False,
                   mechanism=d.MechanismKind.GAUSSIAN):
    rng = np.random.default_rng(seed)
    y, s, w = d.generate_arrays(n, weighted, 1.1, rng)
    bounds = d.Bounds.binary(w_low=1 / 3, w_high=3.0) if weighted else d.Bounds.binary_unweighted()
    sums = d.compute_sums_from_arrays(y, s, w, bounds)
    delta = 1e-6 if mechanism is d.MechanismKind.GAUSSIAN else 0.0
    released = d.release(sums, bounds, d.PrivacyBudget(epsilon, delta), mechanism, rng)
    return sums, released, rng


class TestPlugInMoments:
    def test_hand_computed_example(self):
        sums = d.compute_sums(
            [d.Record(0, 0.4), d.Record(1, 0.6)], d.Bounds.binary_unweighted()
        )
        m, refusal = plug_in_moments(d.exact_release(sums))
        assert refusal == d.Refusal.NONE
        assert m.mu_s == pytest.approx(0.5, rel=1e-15)
        assert m.mu_y == pytest.approx(0.5, rel=1e-15)
        assert m.var_s_bar == pytest.approx(0.005, rel=1e-12)
        assert m.var_y_bar == pytest.approx(0.125, rel=1e-12)
        assert m.cov_ys_bar == pytest.approx(0.025, rel=1e-12)
        assert m.flags == ()

    def test_invariant_to_weight_rescaling(self):
        rng = np.random.default_rng(2)
        y, s = rng.random(50), rng.random(50)
        w = rng.uniform(1.0, 2.0, 50)
        bounds = d.Bounds(0, 1, 0, 1, 0.1, 50.0)
        base, _ = plug_in_moments(d.exact_release(d.compute_sums_from_arrays(y, s, w, bounds)))
        scaled, _ = plug_in_moments(
            d.exact_release(d.compute_sums_from_arrays(y, s, 7.0 * w, bounds))
        )
        for f in ("mu_s", "mu_y", "var_s_bar", "var_y_bar", "cov_ys_bar"):
            assert getattr(scaled, f) == pytest.approx(getattr(base, f), rel=1e-12)

    def test_constant_score_has_zero_variance(self):
        records = [d.Record(1, 0.3), d.Record(0, 0.3), d.Record(1, 0.3)]
        m, _ = plug_in_moments(d.exact_release(d.compute_sums(records, d.Bounds.binary_unweighted())))
        assert m.var_s_bar == pytest.approx(0.0, abs=1e-16)

    def test_negative_plug_in_variance_floored_and_flagged(self):
        released = make_released(
            {"sum_w": 100.0, "sum_w2": 100.0, "sum_ws": 80.0, "sum_ws2": 10.0,
             "sum_wy": 50.0, "sum_wy2": 50.0, "sum_wys": 40.0}
        )
        m, _ = plug_in_moments(released)
        assert m.var_s_bar == 0.0
        assert "var_s_bar_floored" in m.flags

    def test_degenerate_weight_total(self):
        released = make_released({"sum_w": -3.0})
        assert plug_in_moments(released)[1] == d.Refusal.NONPOSITIVE_DENOMINATOR
        with pytest.raises(d.DegenerateDenominatorError):
            d.ci_no_correction(released)


class TestDeltaMethodVariances:
    MOMENTS = d.Moments(mu_s=1.0, mu_y=2.0, var_s_bar=0.04, var_y_bar=0.09, cov_ys_bar=0.01)

    def test_ratio_variance_example(self):
        assert d.ratio_variance(self.MOMENTS) == pytest.approx(0.013125, rel=1e-12)

    def test_ratio_variance_zero_numerator_mean(self):
        m = d.Moments(0.0, 2.0, 0.04, 0.09, 0.01)
        assert d.ratio_variance(m) == pytest.approx(0.04 / 4.0, rel=1e-12)

    def test_ratio_variance_degenerate(self):
        with pytest.raises(d.DegenerateDenominatorError):
            d.ratio_variance(d.Moments(1.0, 0.0, 0.04, 0.09, 0.01))

    def test_log_variance_example(self):
        assert log_ratio_variance(self.MOMENTS) == pytest.approx(0.0525, rel=1e-12)

    def test_log_variance_perfect_dependence(self):
        m = d.Moments(2.0, 2.0, 0.04, 0.04, 0.04)
        assert log_ratio_variance(m) == 0.0

    def test_log_matches_ratio_variance_over_r_squared(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            mu_s, mu_y = rng.uniform(0.5, 3.0, 2)
            var_s, var_y = rng.uniform(1e-4, 1.0, 2)
            rho = rng.uniform(-0.9, 0.9)
            m = d.Moments(mu_s, mu_y, var_s, var_y, rho * math.sqrt(var_s * var_y))
            r = mu_s / mu_y
            assert log_ratio_variance(m) == pytest.approx(
                d.ratio_variance(m) / (r * r), rel=1e-12
            )

    def test_brute_force_sampling_oracle(self):
        # Small denominator CV, so the first-order approximation must hold tightly.
        mu_s, mu_y = 1.0, 2.0
        var_s, var_y = 0.002, 0.004
        cov = 0.4 * math.sqrt(var_s * var_y)
        m = d.Moments(mu_s, mu_y, var_s, var_y, cov)
        assert math.sqrt(var_y) / mu_y < 0.05

        rng = np.random.default_rng(123)
        chol = np.linalg.cholesky(np.array([[var_s, cov], [cov, var_y]]))
        z = rng.standard_normal((1_000_000, 2)) @ chol.T
        ratios = (mu_s + z[:, 0]) / (mu_y + z[:, 1])
        assert d.ratio_variance(m) == pytest.approx(float(ratios.var()), rel=0.05)


class TestPointEstimate:
    def test_direct_ratio(self):
        released = make_released({"sum_ws": 110.0, "sum_wy": 100.0})
        assert point_estimate(released) == (1.1, d.Refusal.NONE)

    def test_zero_noise_release_matches_public_ratio(self):
        sums, _, _ = seeded_release(5)
        released = d.exact_release(sums)
        assert point_estimate(released)[0] == sums.sum_ws / sums.sum_wy

    def test_log_scale(self):
        released = make_released({"sum_ws": 110.0, "sum_wy": 100.0})
        assert point_estimate(released, d.Scale.LOG)[0] == pytest.approx(math.log(1.1), rel=1e-15)

    def test_degenerate_denominator(self):
        released = make_released({"sum_ws": 10.0, "sum_wy": 0.0})
        assert point_estimate(released)[1] == d.Refusal.NONPOSITIVE_DENOMINATOR
        with pytest.raises(d.DegenerateDenominatorError):
            d.ci_no_correction(released)

    def test_degenerate_numerator_on_log_scale(self):
        released = make_released({"sum_ws": -1.0, "sum_wy": 100.0})
        assert point_estimate(released, d.Scale.LOG)[1] == d.Refusal.NONPOSITIVE_LOG_NUMERATOR
        with pytest.raises(d.DegenerateNumeratorError):
            d.ci_no_correction(released, d.Scale.LOG)

    def test_mean_point_estimate_near_truth_at_generous_budget(self):
        # n=10000, epsilon=4: the noisy point estimate stays centred on 1.1.
        points = []
        for rep in range(1000):
            _, released, _ = seeded_release(rep, epsilon=4.0, n=10_000)
            points.append(point_estimate(released)[0])
        assert abs(np.mean(points) - 1.1) < 0.01


class TestWaldInterval:
    def test_zero_variance_degenerate(self):
        assert wald_interval(1.1, 0.0, 0.95) == (1.1, 1.1)

    def test_reference_interval(self):
        lo, hi = wald_interval(1.1, 0.0004, 0.95)
        assert lo == pytest.approx(1.06080, abs=5e-6)
        assert hi == pytest.approx(1.13920, abs=5e-6)

    def test_one_sigma_level(self):
        lo, hi = wald_interval(0.0, 1.0, 0.6827)
        assert hi - lo == pytest.approx(2.0, abs=1e-3)

    def test_invalid_level(self):
        with pytest.raises(d.InvalidConfigError):
            d.estimate_block(make_released({}).block, d.Method.NO_CORRECTION, level=1.0)
        with pytest.raises(d.InvalidConfigError):
            d.ci_analytical(make_released({}), level=1.0)


class TestZeroNoiseReduction:
    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    def test_all_methods_bit_identical_to_public(self, scale):
        sums, _, _ = seeded_release(7)
        released = d.exact_release(sums)
        public = d.public_estimate(sums, scale)
        mc_rng = np.random.default_rng(0)
        for est in (
            d.ci_no_correction(released, scale),
            d.ci_monte_carlo(released, scale, rng=mc_rng),
            d.ci_analytical(released, scale),
        ):
            assert est.point == public.point
            assert est.variance == public.variance
            assert est.ci_lower == public.ci_lower
            assert est.ci_upper == public.ci_upper


class TestMonteCarloCI:
    def test_large_draw_convergence_to_delta_formula(self):
        released = make_released(
            {"sum_w": 5000.0, "sum_wy": 2273.0, "sum_ws": 2500.0, "sum_w2": 5000.0,
             "sum_wy2": 2273.0, "sum_ws2": 1500.0, "sum_wys": 1364.0},
            noise={"sum_ws": 400.0, "sum_wy": 400.0},
        )
        num, den = 2500.0, 2273.0
        delta_extra = 400.0 / den**2 + num**2 * 400.0 / den**4
        base = d.ci_no_correction(released).variance

        extras = []
        for seed in range(4):
            est = d.ci_monte_carlo(released, draws=200_000, rng=np.random.default_rng(seed))
            extras.append(est.variance - base)
        extras = np.array(extras)
        spread = (extras.max() - extras.min()) / extras.mean()
        assert spread < 0.02
        assert extras.mean() == pytest.approx(delta_extra, rel=0.03)

    def test_variance_never_below_no_correction(self):
        for seed in range(20):
            _, released, rng = seeded_release(seed, epsilon=0.2)
            nc = d.ci_no_correction(released)
            mc = d.ci_monte_carlo(released, rng=rng)
            assert mc.variance >= nc.variance

    def test_truncated_flag_where_the_cut_mass_reaches_one_per_draw(self):
        # A noisy sum_wy 0.25 noise deviations above zero: the denominator's
        # noise mass below -sum_wy is 0.40, far above 1/500.  At 45
        # deviations it is below 1e-300.
        released = make_released(
            {"sum_w": 100.0, "sum_wy": 5.0, "sum_ws": 6.0, "sum_w2": 100.0,
             "sum_wy2": 5.0, "sum_ws2": 1.0, "sum_wys": 1.0},
            noise={"sum_ws": 400.0, "sum_wy": 400.0},
        )
        est = d.ci_monte_carlo(released, draws=500, rng=np.random.default_rng(3))
        assert "monte_carlo_truncated" in est.flags
        assert math.isfinite(est.variance)
        far = make_released({"sum_wy": 900.0, "sum_ws": 500.0}, noise={"sum_ws": 400.0, "sum_wy": 400.0})
        est = d.ci_monte_carlo(far, d.Scale.LOG, draws=500, rng=np.random.default_rng(3))
        assert "monte_carlo_truncated" not in est.flags

    def test_block_rows_equal_scalar_api(self):
        # Both noisy sums near zero on the log scale: about three replicates
        # in four would have been rejected, and every row is corrected.
        released = make_released(
            {"sum_ws": 1e-3, "sum_wy": 1e-3}, noise={"sum_ws": 1.0, "sum_wy": 1.0}
        )
        rows = 64
        one = released.block
        block = d.estimate_block(
            one._replace(values=np.repeat(one.values, rows, axis=0)),
            d.Method.MONTE_CARLO, d.Scale.LOG, draws=2, rng=np.random.default_rng(5),
        )
        for i in range(rows):
            # Row i reads the 2 x 2 uniforms at offset 4i of the block's stream.
            est = d.ci_monte_carlo(released, d.Scale.LOG, draws=2, rng=_advanced(5, 4 * i))
            assert block.refusal[i] == d.Refusal.NONE
            assert block.variance[i] == est.variance
            assert tuple(f for f, on in zip(d.FLAGS, block.flags[i]) if on) == est.flags
            assert "monte_carlo_truncated" in est.flags

    @pytest.mark.parametrize("scale, variance", [
        (d.Scale.RATIO, {d.MechanismKind.GAUSSIAN: 0.07065658615791673, d.MechanismKind.LAPLACE: 0.07410598053512556}),
        (d.Scale.LOG, {d.MechanismKind.GAUSSIAN: 0.304428239182963, d.MechanismKind.LAPLACE: 0.3481087410469151}),
    ])
    @pytest.mark.parametrize("mechanism", list(d.MechanismKind))
    def test_one_release_variance_is_pinned(self, mechanism, scale, variance):
        # One release reads 2 x draws uniforms in one call, numerators first,
        # and leaves its generator just past them.  The variances are pinned
        # to a relative 1e-12: they take numpy's log, which can differ in the
        # last place across numpy builds.
        released = make_released(
            {"sum_w": 200.0, "sum_wy": 100.0, "sum_ws": 60.0, "sum_w2": 200.0,
             "sum_wy2": 100.0, "sum_ws2": 30.0, "sum_wys": 35.0},
            noise={"sum_ws": 400.0, "sum_wy": 400.0}, mechanism=mechanism,
        )
        rng = np.random.default_rng(7)
        est = d.ci_monte_carlo(released, scale, draws=50, rng=rng)
        assert est.variance == pytest.approx(variance[mechanism], rel=1e-12)
        assert rng.bit_generator.state == _advanced(7, 100).bit_generator.state

    def test_requires_at_least_two_draws(self):
        _, released, rng = seeded_release(1)
        with pytest.raises(d.InvalidConfigError):
            d.ci_monte_carlo(released, draws=1, rng=rng)


_STANDARD_NORMAL = NormalDist()
_TINY, _BELOW_ONE = np.finfo(np.float64).tiny, float(np.nextafter(1.0, 0.0))


def _cut_mass(mechanism, variance, x):
    """The noise mass below -x: 0.5 erfc(x / sqrt(2 variance)) or 0.5 exp(-x / b)."""
    if mechanism is d.MechanismKind.GAUSSIAN:
        return 0.5 * math.erfc(x / math.sqrt(2.0 * variance))
    return 0.5 * math.exp(-x / math.sqrt(variance / 2.0))


def _reference_replicates(mechanism, variance, x, uniforms, truncated):
    """The replicates of one noisy sum ``x`` from its uniforms, value by value,
    and the mass its truncation cuts off.

    Uniform u maps to x + F^-1(p), p = p0 + u (1 - p0) clamped to
    [tiny, 1 - 2^-53], where p0 is the noise mass below -x if ``truncated``
    and 0 if not.  F^-1 is the standard library's normal quantile for
    Gaussian noise, and b log(2p) or -b log(2(1 - p)) for Laplace noise of
    scale b.  A truncated replicate is at least the spacing of the doubles
    at x.
    """
    p0 = _cut_mass(mechanism, variance, x) if truncated else 0.0
    values = []
    for u in uniforms.tolist():
        p = min(max(u * (1.0 - p0) + p0, _TINY), _BELOW_ONE)
        if mechanism is d.MechanismKind.GAUSSIAN:
            noise = _STANDARD_NORMAL.inv_cdf(p) * math.sqrt(variance)
        else:
            b = math.sqrt(variance / 2.0)
            noise = float(b * np.log(2.0 * p) if p < 0.5 else -b * np.log(2.0 * (1.0 - p)))
        values.append(max(x + noise, float(np.spacing(x))) if truncated else x + noise)
    return np.array(values), p0


def _advanced(seed, values):
    """A fresh generator of ``seed`` advanced ``values`` values: where a row
    at that offset of the stream starts reading."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(values)
    return rng


def _at(rng, values):
    """A copy of ``rng`` advanced ``values`` values; ``rng`` does not move."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    copy.bit_generator.advance(values)
    return copy


def _per_row_monte_carlo_extra(released, scale, point, rows, draws, rng):
    """The Monte Carlo correction of the ``rows`` a mask selects, row by row:
    the reference for the sampler.

    Row ``row`` reads ``draws`` uniforms per noisy sum, numerators first, in
    one call of a copy of ``rng`` advanced to the row's offset, ``row``
    times that count.  A sum without noise, or any sum of a release without
    a mechanism, reads none and is its own replicate.  The denominator is
    truncated to positive replicates, and so is the numerator on the log
    scale.  A row is flagged where the mass cut off, 1 - (1 - p0 of sum_wy)
    (1 - p0 of sum_ws), is at least 1 / ``draws``.
    """
    extra = np.zeros(len(point))
    truncated = np.zeros(len(point), dtype=bool)
    mechanism = released.mechanism
    sums = [(SUM_FIELDS.index(name), released.variance(name), name == "sum_wy" or scale is d.Scale.LOG)
            for name in ("sum_ws", "sum_wy")]
    noisy = [mechanism is not None and variance > 0.0 for _, variance, _ in sums]
    if not any(noisy):
        return extra, truncated
    for row in np.flatnonzero(rows):
        uniforms = iter(_at(rng, int(row) * sum(noisy) * draws).random((sum(noisy), draws)))
        (numerators, p0_s), (denominators, p0_y) = (
            _reference_replicates(mechanism, variance, float(released.values[row, col]), next(uniforms), cut)
            if drawn else (np.full(draws, released.values[row, col]), 0.0)
            for (col, variance, cut), drawn in zip(sums, noisy)
        )
        replicates = numerators / denominators
        if scale is d.Scale.LOG:
            replicates = np.log(replicates)
        extra[row] = np.mean(np.square(replicates - point[row]))
        truncated[row] = 1.0 - (1.0 - p0_y) * (1.0 - p0_s) >= 1.0 / draws
    return extra, truncated


def _per_row_monte_carlo_extras(released, cells, draws, rng):
    """The per-row loop on each (scale, point, row mask) cell, each row from
    its offset of ``rng``'s stream: what the batched pass of one cell must
    equal.  Then ``rng`` is moved just past the last row any cell reads."""
    extras = [_per_row_monte_carlo_extra(released, scale, point, rows, draws, rng)
              for scale, point, rows in cells]
    union = np.flatnonzero(np.logical_or.reduce([rows for _, _, rows in cells]))
    if len(union):
        rng.bit_generator.advance((int(union[-1]) + 1) * inference._row_uniforms(released, draws))
    return extras


def _simulated_release(mechanism, bounds, epsilon, rows=16, n=100, weighted=True, seed=5):
    """A block of releases of synthetic datasets of ``n`` records under ``bounds``."""
    exact = []
    for row in range(rows):
        y, s, w = d.generate_arrays(n, weighted, 1.1, np.random.default_rng([seed, row]))
        if bounds.s_high == 0.0:
            s = np.zeros(n)
        sums = d.compute_sums_from_arrays(y, s, w, bounds).as_dict()
        exact.append([sums[f] for f in SUM_FIELDS])
    delta = 1e-6 if mechanism is d.MechanismKind.GAUSSIAN else 0.0
    rng = np.random.default_rng(seed + 1)
    return d.release_block(np.array(exact), bounds, d.PrivacyBudget(epsilon, delta), mechanism, rng)


_MECHANISMS = [d.MechanismKind.GAUSSIAN, d.MechanismKind.LAPLACE]
_WEIGHTED = d.Bounds.binary(w_low=1 / 3, w_high=3.0)


def _near_zero(released, numerator, denominator):
    """``released`` with both noisy sums of every row this many noise deviations above zero."""
    values = released.values.copy()
    sd = math.sqrt(released.variance("sum_wy"))
    values[:, SUM_FIELDS.index("sum_ws")] = numerator * sd
    values[:, SUM_FIELDS.index("sum_wy")] = denominator * sd
    return released._replace(values=values)


class TestBatchedMonteCarloPass:
    """estimate_block's Monte Carlo method against a per-row, per-value
    reference that reads each row from its offset of the same stream; the
    generator must end in the same state.

    Laplace results must match bit for bit.  The reference takes Gaussian
    quantiles from the standard library, whose AS241 calls the C library's
    log; numpy's vectorised log can differ from it in the last place (on
    AVX-512 builds about 1 tail value in 2,000), which moves a quantile by
    at most 2 ulps, so Gaussian variances and interval ends must match to
    a relative 1e-12 and everything else bit for bit.
    """

    def _check(self, monkeypatch, released, scale, draws):
        def run():
            rng = np.random.default_rng(7)
            est = d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws, rng=rng)
            return est, rng.bit_generator.state

        batched, batched_states = run()
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_monte_carlo_extras", _per_row_monte_carlo_extras)
            expected, expected_states = run()
        rounded = released.mechanism in (d.MechanismKind.GAUSSIAN, "gaussian")
        for name, got, want in zip(batched._fields, batched, expected):
            assert got.dtype == want.dtype, name
            if rounded and name in ("variance", "ci_lower", "ci_upper"):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True, err_msg=name)
            else:
                assert got.tobytes() == want.tobytes(), name
        assert batched_states == expected_states
        return batched

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_truncation_heavy_block(self, monkeypatch, mechanism, scale):
        # Epsilon 0.02 on 100 weighted records: refusals and rows whose
        # truncation cuts off at least 1 / 1,000 of the noise are common.
        released = _simulated_release(mechanism, _WEIGHTED, 0.02, rows=64)
        est = self._check(monkeypatch, released, scale, 1000)
        assert est.flags[:, d.FLAGS.index("monte_carlo_truncated")].any()
        assert (est.refusal == d.Refusal.NONE).any()

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_sum_without_noise_draws_nothing(self, monkeypatch, mechanism, scale):
        # Score bounds (0, 0) give sum_ws no noise, so only the denominator
        # draws.  A positive numerator in its place makes the replicates
        # depend on the denominator's draws; the mirror case gives sum_wy no
        # noise instead.
        released = _simulated_release(mechanism, d.Bounds(0, 1, 0, 0), 0.02, rows=32, weighted=False)
        assert released.variance("sum_ws") == 0.0 < released.variance("sum_wy")
        self._check(monkeypatch, released, scale, 1000)
        positive = released.values.copy()
        positive[:, SUM_FIELDS.index("sum_ws")] = 30.0
        est = self._check(monkeypatch, released._replace(values=positive), scale, 1000)
        assert est.flags[:, d.FLAGS.index("monte_carlo_truncated")].any()
        noisy = _simulated_release(mechanism, _WEIGHTED, 0.05)
        quiet_y = noisy.noise_variance.copy()
        quiet_y[SUM_FIELDS.index("sum_wy")] = 0.0
        self._check(monkeypatch, noisy._replace(noise_variance=quiet_y), scale, 1000)
        # Without a mechanism (a release read back from JSON may lack one)
        # no sum draws, whatever its variance.
        self._check(monkeypatch, noisy._replace(mechanism=None), scale, 1000)

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_sums_at_the_cut(self, monkeypatch, mechanism):
        # Both noisy sums 1e-6 noise deviations above zero at 3 draws, the
        # other sums 20: each truncation cuts off almost half of its noise.
        released = _simulated_release(mechanism, _WEIGHTED, 0.05, rows=200, n=20)
        released = _near_zero(released._replace(values=np.full_like(released.values, 20.0)), 1e-6, 1e-6)
        for scale in (d.Scale.RATIO, d.Scale.LOG):
            est = self._check(monkeypatch, released, scale, 3)
            assert (est.refusal == d.Refusal.NONE).all()
            assert est.flags[:, d.FLAGS.index("monte_carlo_truncated")].all()

    @settings(max_examples=40, deadline=None)
    @given(
        mechanism=st.sampled_from(_MECHANISMS),
        scale=st.sampled_from([d.Scale.RATIO, d.Scale.LOG]),
        epsilon=st.floats(0.01, 0.2),
        draws=st.integers(2, 500),
        rows=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        offset=st.one_of(st.none(), st.floats(0.0, 3.0)),
        quiet=st.sampled_from([None, "sum_ws", "sum_wy", "mechanism"]),
    )
    def test_matches_per_row_reference(self, mechanism, scale, epsilon, draws, rows, seed, offset, quiet):
        released = _simulated_release(mechanism, _WEIGHTED, epsilon, rows=rows, seed=seed)
        if offset is not None:
            # Both noisy sums ``offset`` noise deviations above zero (a sum
            # of 0 is refused).
            released = _near_zero(released, offset, offset)
        if quiet == "mechanism":
            released = released._replace(mechanism=None)
        elif quiet is not None:
            variance = released.noise_variance.copy()
            variance[SUM_FIELDS.index(quiet)] = 0.0
            released = released._replace(noise_variance=variance)
        self._check(pytest.MonkeyPatch(), released, scale, draws)


class _Counted:
    """A generator that counts its calls and the values they read and, given
    a ``value``, yields only it."""

    def __init__(self, rng, value=None):
        self.rng, self.value, self.calls, self.values = rng, value, 0, 0
        self.bit_generator = rng.bit_generator

    def random(self, size=None, out=None):
        self.calls += 1
        values = self.rng.random(size, out=out)
        self.values += np.size(values)
        if self.value is not None:
            values[...] = self.value
        return values


class TestGeneratorReads:
    """The Monte Carlo pass reads ``draws`` uniforms per noisy sum for each
    row that a scale corrects, one call per run of consecutive such rows;
    the rows between runs are passed over, not drawn, and the generator ends
    just past the last row read."""

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    @pytest.mark.parametrize("quiet", [None, "sum_ws", "sum_wy", "mechanism"])
    def test_one_call_per_run_of_rows(self, mechanism, quiet):
        # Epsilon 0.02 on 100 weighted records: some rows are refused on
        # both scales, some only on the log scale.
        rows, draws = 64, 50
        released = _simulated_release(mechanism, _WEIGHTED, 0.02, rows=rows)
        noisy = 2
        if quiet == "mechanism":
            released, noisy = released._replace(mechanism=None), 0
        elif quiet is not None:
            variance = released.noise_variance.copy()
            variance[SUM_FIELDS.index(quiet)] = 0.0
            released, noisy = released._replace(noise_variance=variance), 1
        generator = _Counted(np.random.default_rng(23))
        ratio, log = inference._estimate_scales(
            released, d.Method.MONTE_CARLO, (d.Scale.RATIO, d.Scale.LOG), draws=draws, rng=generator
        )
        corrected = np.flatnonzero((ratio.refusal == d.Refusal.NONE) | (log.refusal == d.Refusal.NONE))
        assert 0 < len(corrected) < rows - 1
        runs = 1 + np.count_nonzero(np.diff(corrected) != 1)
        assert runs > 1
        assert generator.calls == (runs if noisy else 0)
        assert generator.values == len(corrected) * noisy * draws
        end = (corrected[-1] + 1) * noisy * draws
        assert generator.bit_generator.state == _advanced(23, int(end)).bit_generator.state


class TestReplicatesFromUniforms:
    """One row's replicates, bit for bit, from its uniforms."""

    def _row_replicates(self, released, scale, draws):
        """The replicates of a one-row block's Monte Carlo pass, as handed to
        _mean_square_deviation, and the uniforms its generator yields."""
        seen = []
        reduce = inference._mean_square_deviation

        def watched(replicates, point, scale):
            seen.append(replicates.copy())
            return reduce(replicates, point, scale)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_mean_square_deviation", watched)
            d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws,
                             rng=np.random.default_rng(29))
        return seen[0][0], np.random.default_rng(29).random((2, draws))

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    @pytest.mark.parametrize("deviations", [1e-9, 0.3, 2.0, 8.0])
    def test_replicates_equal_the_reference(self, mechanism, scale, deviations):
        # The noisy sums this many noise deviations above zero: at 1e-9 the
        # mass cut off is within 1e-9 of 1/2, at 8 it is below 1e-15.
        noise = {"sum_ws": 400.0, "sum_wy": 400.0}
        released = make_released({"sum_ws": 20.0 * deviations, "sum_wy": 25.0 * deviations},
                                 noise, mechanism).block
        got, (u_s, u_y) = self._row_replicates(released, scale, 200)
        log = scale is d.Scale.LOG
        numerators, _ = _reference_replicates(mechanism, 400.0, 20.0 * deviations, u_s, log)
        denominators, _ = _reference_replicates(mechanism, 400.0, 25.0 * deviations, u_y, True)
        assert got.tobytes() == (numerators / denominators).tobytes()


class TestTruncationEdges:
    """A uniform of 0.0, which Generator.random can return, maps to the cut
    itself, where rounding can leave a sum of 0, just below it, or (where the
    mass cut off underflows to 0) an infinite quantile.  Every truncated
    replicate must be finite and positive, every untruncated one finite."""

    #: Noisy sums in noise deviations: the mass cut off near 1/2, small,
    #: tiny, and (Gaussian, then Laplace) underflowing to 0.
    DEVIATIONS = np.array([1e-12, 0.3, 8.0, 30.0, 40.0, 1100.0])
    UNIFORMS = np.array([0.0, 2.0**-53, 1e-300, 0.5, 1.0 - 2.0**-53])

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_replicates_at_the_cut(self, mechanism):
        variance = 400.0
        released = make_released({}, {"sum_ws": variance, "sum_wy": variance}, mechanism).block
        sums = 20.0 * self.DEVIATIONS
        mass = d.mechanisms.lower_tail_mass(mechanism, variance, sums)
        assert mass[0] == pytest.approx(0.5) and mass[-1] == 0.0
        for truncated in (True, False):
            uniforms = np.tile(self.UNIFORMS, (len(sums), 1))
            replicates, _ = inference._replicates(sums, uniforms, released, SUM_WY, truncated)
            assert np.isfinite(replicates).all()
            if truncated:
                assert (replicates > 0.0).all()

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    @pytest.mark.parametrize("value", [0.0, 1.0 - 2.0**-53])
    def test_every_uniform_at_an_end(self, mechanism, scale, value):
        # A generator that yields only 0.0, or only the largest double below 1.
        rows = len(self.DEVIATIONS)
        released = make_released({}, {"sum_ws": 400.0, "sum_wy": 400.0}, mechanism).block
        values = np.repeat(released.values, rows, axis=0)
        values[:, [SUM_FIELDS.index("sum_ws"), SUM_FIELDS.index("sum_wy")]] = 20.0 * self.DEVIATIONS[:, None]
        est = d.estimate_block(released._replace(values=values), d.Method.MONTE_CARLO, scale,
                               draws=20, rng=_Counted(np.random.default_rng(0), value))
        assert (est.refusal == d.Refusal.NONE).all()
        assert np.isfinite(est.variance).all()


class TestAnalyticalCI:
    def test_matches_sum_scale_translation_oracle(self):
        # Independent route: translate the moments to sum scale, add the noise
        # variances there, and evaluate the ratio variance on the sum scale.
        for seed in range(10):
            _, released, _ = seeded_release(seed, epsilon=0.5)
            m, _ = plug_in_moments(released)
            total = released.values["sum_w"]
            mean_s = m.mu_s * total
            mean_y = m.mu_y * total
            var_s = m.var_s_bar * total**2 + released.noise_variance["sum_ws"]
            var_y = m.var_y_bar * total**2 + released.noise_variance["sum_wy"]
            cov = m.cov_ys_bar * total**2
            expected = (
                var_s / mean_y**2
                - 2.0 * mean_s * cov / mean_y**3
                + mean_s**2 * var_y / mean_y**4
            )
            est = d.ci_analytical(released)
            assert est.variance == pytest.approx(expected, rel=1e-12)

    def test_zero_noise_equals_no_correction(self):
        sums, _, _ = seeded_release(3)
        released = d.exact_release(sums)
        expected = replace(d.ci_no_correction(released), method=d.Method.ANALYTICAL)
        assert d.ci_analytical(released) == expected

    def test_variance_at_least_no_correction(self):
        for seed in range(20):
            _, released, _ = seeded_release(seed, epsilon=0.2)
            assert d.ci_analytical(released).variance >= d.ci_no_correction(released).variance


class TestScaleConsistency:
    def test_exponentiated_log_interval_contains_ratio_point(self):
        for seed in range(20):
            _, released, rng = seeded_release(seed, epsilon=1.0)
            ratio = d.ci_monte_carlo(released, d.Scale.RATIO, rng=np.random.default_rng(seed))
            log = d.ci_monte_carlo(released, d.Scale.LOG, rng=np.random.default_rng(seed))
            assert math.exp(log.ci_lower) <= ratio.point <= math.exp(log.ci_upper)

    def test_weight_rescaling_with_recalibrated_noise_is_invariant(self):
        rng = np.random.default_rng(4)
        n = 500
        y = (rng.random(n) < 0.5).astype(float)
        s = rng.random(n)
        w = rng.uniform(0.5, 2.0, n)
        c = 2.5
        budget = d.PrivacyBudget(1.0, 1e-6)

        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        sums = d.compute_sums_from_arrays(y, s, w, bounds)
        released = d.release(sums, bounds, budget, d.MechanismKind.GAUSSIAN,
                             np.random.default_rng(99))

        scaled_bounds = d.Bounds.binary(w_low=0.5 * c, w_high=2.0 * c)
        scaled_sums = d.compute_sums_from_arrays(y, s, c * w, scaled_bounds)
        scaled_released = d.release(scaled_sums, scaled_bounds, budget,
                                    d.MechanismKind.GAUSSIAN, np.random.default_rng(99))

        base = d.ci_no_correction(released)
        scaled = d.ci_no_correction(scaled_released)
        assert scaled.point == pytest.approx(base.point, rel=1e-12)
        assert scaled.variance == pytest.approx(base.variance, rel=1e-12)


class TestTwoRatioTest:
    def _estimate(self, point, variance, scale=d.Scale.RATIO):
        lo, hi = wald_interval(point, variance, 0.95)
        return d.RatioEstimate(point, variance, scale, d.Method.ANALYTICAL, lo, hi, 0.95)

    def test_identical_estimates(self):
        a = self._estimate(1.2, 0.005)
        result = d.two_ratio_test(a, a)
        assert result.z_statistic == 0.0
        assert result.p_value == 1.0

    def test_reference_example(self):
        a = self._estimate(1.2, 0.0025)
        b = self._estimate(1.0, 0.0075)
        result = d.two_ratio_test(a, b)
        assert result.z_statistic == pytest.approx(2.0, rel=1e-12)
        assert result.p_value == pytest.approx(0.04550026389635842, rel=1e-9)

    def test_scale_mismatch(self):
        with pytest.raises(d.ScaleMismatchError):
            d.two_ratio_test(self._estimate(1.0, 0.1), self._estimate(0.1, 0.1, d.Scale.LOG))

    def test_zero_combined_variance(self):
        with pytest.raises(d.DegenerateVarianceError):
            d.two_ratio_test(self._estimate(1.0, 0.0), self._estimate(1.0, 0.0))

    def test_type_one_error_under_null(self):
        # Both ratios privatized with corrected variances; nominal alpha 0.05.
        rejections = 0
        pairs = 1000
        for i in range(pairs):
            _, rel_a, _ = seeded_release(2 * i, epsilon=1.0, n=5000)
            _, rel_b, _ = seeded_release(2 * i + 1, epsilon=1.0, n=5000)
            result = d.two_ratio_test(d.ci_analytical(rel_a), d.ci_analytical(rel_b))
            rejections += result.p_value < 0.05
        assert 0.03 <= rejections / pairs <= 0.07


class TestSharedFirstPass:
    """Both scales on one draw of the uniforms against each scale on a fresh generator."""

    @settings(max_examples=40, deadline=None)
    @given(
        mechanism=st.sampled_from(_MECHANISMS),
        epsilon=st.floats(0.01, 0.2),
        draws=st.integers(2, 500),
        rows=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        offset=st.one_of(st.none(), st.floats(0.01, 3.0)),
    )
    # Sums half a noise deviation above zero: the scales truncate different
    # sums of the same uniforms.
    @example(mechanism=d.MechanismKind.GAUSSIAN, epsilon=0.02, draws=300, rows=30, seed=1, offset=0.5)
    def test_each_scale_equals_its_own_pass(self, mechanism, epsilon, draws, rows, seed, offset):
        released = _simulated_release(mechanism, _WEIGHTED, epsilon, rows=rows, seed=seed)
        if offset is not None:
            released = _near_zero(released, offset, offset)

        alone = {
            scale: d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws,
                                    rng=np.random.default_rng(11))
            for scale in (d.Scale.RATIO, d.Scale.LOG)
        }
        for order in ((d.Scale.RATIO, d.Scale.LOG), (d.Scale.LOG, d.Scale.RATIO)):
            shared = inference._estimate_scales(
                released, d.Method.MONTE_CARLO, order, draws=draws, rng=np.random.default_rng(11)
            )
            for scale, est in zip(order, shared):
                for name, got, want in zip(est._fields, est, alone[scale]):
                    assert got.tobytes() == want.tobytes(), (scale, name)


class TestPieces:
    """The Monte Carlo pass draws and scores a piece of rows at a time, and
    keeps nothing of a piece once it is scored."""

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_pieces_change_no_value(self, mechanism):
        # Epsilon 0.02 on 100 weighted records at 1,000 draws, so some rows
        # are refused on one scale or both.  One row a piece and one piece
        # for all rows must give the default's outputs and generator end
        # state.
        released = _simulated_release(mechanism, _WEIGHTED, 0.02, rows=64)

        def run():
            rng = np.random.default_rng(19)
            shared = inference._estimate_scales(
                released, d.Method.MONTE_CARLO, (d.Scale.RATIO, d.Scale.LOG), draws=1000, rng=rng
            )
            return [a.tobytes() for est in shared for a in est], rng.bit_generator.state

        default = run()
        for values in (1, 2**40):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(inference, "_PIECE_VALUES", values)
                assert run() == default, values

    def test_pass_keeps_no_block_wide_pairs(self):
        # 2,000 rows at 200 draws: a block-wide store of the uniforms holds
        # 6.4 MB; the pass, pieces of 40 rows, peaks near 0.75 MB.
        released = _simulated_release(d.MechanismKind.LAPLACE, _WEIGHTED, 0.2, rows=2000, n=200)
        rng = np.random.default_rng(19)
        tracemalloc.start()
        try:
            inference._estimate_scales(
                released, d.Method.MONTE_CARLO, (d.Scale.RATIO, d.Scale.LOG), draws=200, rng=rng
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestMonteCarloGenerator:
    """Monte Carlo without a generator is refused before any work."""

    def test_missing_generator(self):
        released = _simulated_release(d.MechanismKind.GAUSSIAN, _WEIGHTED, 0.5, rows=3)
        with pytest.raises(d.InvalidConfigError, match=r"needs a generator for its 3 rows, got None"):
            d.estimate_block(released, d.Method.MONTE_CARLO)


class TestSettingValues:
    """Every entry point takes a method and a scale as a member or its value."""

    @pytest.mark.parametrize("scale", list(d.Scale))
    @pytest.mark.parametrize("method", list(d.Method))
    def test_block_values_equal_members(self, method, scale):
        released = _simulated_release(d.MechanismKind.LAPLACE, _WEIGHTED, 0.2, rows=16)
        by_member, by_value = (
            d.estimate_block(released, m, s, 0.9, 50, np.random.default_rng(3))
            for m, s in ((method, scale), (method.value, scale.value))
        )
        assert [a.tobytes() for a in by_value] == [a.tobytes() for a in by_member]

    @pytest.mark.parametrize("scale", list(d.Scale))
    def test_one_release_values_equal_members(self, scale):
        sums, released, _ = seeded_release(4, epsilon=0.5, n=400)
        for call in (
            lambda s: d.ci_no_correction(released, s, 0.9),
            lambda s: d.ci_monte_carlo(released, s, 0.9, 50, np.random.default_rng(7)),
            lambda s: d.ci_analytical(released, s, 0.9),
            lambda s: d.public_estimate(sums, s, 0.9),
        ):
            by_member, by_value = call(scale), call(scale.value)
            assert repr(by_value) == repr(by_member)
            assert by_value.scale is scale and by_value.to_json_dict()["scale"] == scale.value

    @pytest.mark.parametrize("method", list(d.Method))
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_block_mechanism_value_equals_member(self, mechanism, method):
        # Monte Carlo re-noises with the block's mechanism, so a hand-built
        # block that names it draws as one that holds the member.
        released = _simulated_release(mechanism, _WEIGHTED, 0.2, rows=16)
        by_member, by_value = (
            d.estimate_block(block, method, d.Scale.LOG, 0.9, 50, np.random.default_rng(3))
            for block in (released, released._replace(mechanism=mechanism.value))
        )
        assert [a.tobytes() for a in by_value] == [a.tobytes() for a in by_member]

    def test_unknown_values_name_the_setting(self):
        released = _simulated_release(d.MechanismKind.GAUSSIAN, _WEIGHTED, 0.5, rows=3)
        with pytest.raises(d.InvalidConfigError, match="method must be one of 'public'"):
            d.estimate_block(released, "fieller")
        with pytest.raises(d.InvalidConfigError, match="scale must be one of 'ratio', 'log'"):
            d.estimate_block(released, d.Method.ANALYTICAL, "both")
        with pytest.raises(d.InvalidConfigError, match="scale must be one of"):
            d.ci_analytical(seeded_release(1, n=200)[1], "both")
        with pytest.raises(d.InvalidConfigError, match="mechanism must be one of 'gaussian'"):
            d.estimate_block(released._replace(mechanism="exponential"), d.Method.MONTE_CARLO,
                             rng=np.random.default_rng(0))
