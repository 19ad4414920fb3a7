import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dpratio as d
from dpratio import inference
from dpratio.core import SUM_FIELDS
from dpratio.mechanisms import noise_from_raw, raw_draws


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

    def test_redraw_flag_when_denominator_replicates_rejected(self):
        released = make_released(
            {"sum_w": 100.0, "sum_wy": 5.0, "sum_ws": 6.0, "sum_w2": 100.0,
             "sum_wy2": 5.0, "sum_ws2": 1.0, "sum_wys": 1.0},
            noise={"sum_ws": 400.0, "sum_wy": 400.0},
        )
        est = d.ci_monte_carlo(released, draws=500, rng=np.random.default_rng(3))
        assert "monte_carlo_redraw" in est.flags
        assert math.isfinite(est.variance)

    def test_block_refuses_exactly_where_scalar_api_raises(self):
        # Both noisy sums near zero on the log scale: a replicate survives with
        # probability about 1/4, so with 2 draws about 1.5% of rows reject more
        # than the cap of 20 replicates, and some of 512 do but with chance 2e-4.
        released = make_released(
            {"sum_ws": 1e-3, "sum_wy": 1e-3}, noise={"sum_ws": 1.0, "sum_wy": 1.0}
        )
        seeds = range(512)
        one = released.block
        block = d.estimate_block(
            one._replace(values=np.repeat(one.values, len(seeds), axis=0)),
            d.Method.MONTE_CARLO, d.Scale.LOG, draws=2,
            rngs=[np.random.default_rng(seed) for seed in seeds],
        )
        capped = 0
        for i, seed in enumerate(seeds):
            try:
                est = d.ci_monte_carlo(released, d.Scale.LOG, draws=2, rng=np.random.default_rng(seed))
            except d.MonteCarloRedrawCapError:
                capped += 1
                assert block.refusal[i] == d.Refusal.MONTE_CARLO_REDRAW_CAP
                assert math.isnan(block.variance[i]) and not block.flags[i].any()
                continue
            assert block.refusal[i] == d.Refusal.NONE
            assert block.variance[i] == pytest.approx(est.variance, rel=1e-12)
            assert tuple(f for f, on in zip(d.FLAGS, block.flags[i]) if on) == est.flags
        assert capped > 0

    def test_requires_at_least_two_draws(self):
        _, released, rng = seeded_release(1)
        with pytest.raises(d.InvalidConfigError):
            d.ci_monte_carlo(released, draws=1, rng=rng)


def _per_row_monte_carlo_extra(released, scale, point, rows, draws, rngs):
    """The Monte Carlo correction row by row: the reference for the pair layout.

    A row's first pass is one draw_noise call per sum, ``draws`` numerators
    then ``draws`` denominators, and pair j is numerator j over denominator
    j.  Each redraw pair after it takes the next raw draw of each noisy sum,
    numerator first.  The row's replicates are its first pass with each
    pair the scale rejects replaced, in turn, by the next redraw pair it
    accepts, and it is capped when it rejects more than
    ``_REDRAW_CAP_PER_DRAW * draws`` pairs before its ``draws``-th accepted
    one.  While the pairs it has drawn hold fewer than ``draws`` it accepts,
    and fewer redraw pairs than the cap, it draws as many more as
    inference._extension gives for its counts so far; its generator ends
    there.
    """
    extra = np.zeros(len(point))
    redrawn = np.zeros(len(point), dtype=bool)
    capped = np.zeros(len(point), dtype=bool)
    var_s, var_y = released.variance("sum_ws"), released.variance("sum_wy")
    if var_s == 0.0 and var_y == 0.0:
        return extra, redrawn, capped
    mechanism, cap = released.mechanism, inference._REDRAW_CAP_PER_DRAW * draws
    sums = [(SUM_FIELDS.index(name), variance) for name, variance in (("sum_ws", var_s), ("sum_wy", var_y))]
    noisy = sum(mechanism is not None and variance > 0.0 for _, variance in sums)
    top = inference._redraw_cap(draws)

    def redraw_pairs(rng, row):
        """Every redraw pair the cap allows, one raw draw per noisy sum, numerator first."""
        raw = iter(raw_draws(rng, mechanism, (top, noisy)).T if noisy else ())
        return [released.values[row, col] + (noise_from_raw(next(raw).copy(), mechanism, v)
                                             if mechanism is not None and v > 0.0 else np.zeros(top))
                for col, v in sums]

    for row in rows:
        rng = rngs[row]
        first = [released.values[row, col] + d.draw_noise(rng, mechanism, v, draws) for col, v in sums]
        num, den = (np.concatenate(pair) for pair in zip(first, redraw_pairs(copy.deepcopy(rng), row)))
        ok = den > 0.0
        if scale is d.Scale.LOG:
            ok &= num > 0.0
        accepted = np.flatnonzero(ok)[:draws]
        redrawn[row] = not ok[:draws].all()
        rejected = accepted[-1] + 1 - draws if len(accepted) == draws else math.inf
        capped[row] = rejected > cap
        end = 0
        while end < top and (taken := np.count_nonzero(ok[:draws + end])) < draws:
            end += inference._extension(np.array([taken]), np.array([draws + end]), draws)[0]
        raw_draws(rng, mechanism, noisy * end)
        if capped[row]:
            continue
        replicates = num[:draws] / den[:draws]
        redraws = accepted[accepted >= draws]
        replicates[~ok[:draws]] = num[redraws] / den[redraws]
        if scale is d.Scale.LOG:
            replicates = np.log(replicates)
        extra[row] = np.mean(np.square(replicates - point[row]))
    return extra, redrawn, capped


def _per_row_monte_carlo_extras(released, cells, draws, rngs):
    """The per-row loop on each (scale, point, rows) cell, on the generators
    ``rngs[row]``: what the batched pass of one cell must equal."""
    return [
        _per_row_monte_carlo_extra(released, scale, point, rows, draws, rngs)
        for scale, point, rows in cells
    ]


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
    rngs = [np.random.default_rng([seed + 1, row]) for row in range(rows)]
    return d.release_block(np.array(exact), bounds, d.PrivacyBudget(epsilon, delta), mechanism, rngs)


_MECHANISMS = [d.MechanismKind.GAUSSIAN, d.MechanismKind.LAPLACE]
_WEIGHTED = d.Bounds.binary(w_low=1 / 3, w_high=3.0)


class TestBatchedMonteCarloPass:
    """estimate_block's Monte Carlo method, bit for bit, against a per-row loop
    over draw_noise on the same generators, which must end in the same state."""

    def _check(self, monkeypatch, released, scale, draws):
        def run():
            rngs = [np.random.default_rng([7, row]) for row in range(len(released.values))]
            est = d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws, rngs=rngs)
            return est, [rng.bit_generator.state for rng in rngs]

        batched, batched_states = run()
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_monte_carlo_extras", _per_row_monte_carlo_extras)
            expected, expected_states = run()
        for name, got, want in zip(batched._fields, batched, expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert batched_states == expected_states
        return batched

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_redraw_heavy_block(self, monkeypatch, mechanism, scale):
        # Epsilon 0.02 on 100 weighted records: refusals and redraws are common.
        # At least 12% of rows redraw on every mechanism and scale, so some of
        # 64 do but with chance 4e-4.
        released = _simulated_release(mechanism, _WEIGHTED, 0.02, rows=64)
        est = self._check(monkeypatch, released, scale, 1000)
        assert est.flags[:, d.FLAGS.index("monte_carlo_redraw")].any()
        assert (est.refusal == d.Refusal.NONE).any()

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_sum_without_noise_draws_nothing(self, monkeypatch, mechanism, scale):
        # Score bounds (0, 0) give sum_ws no noise, so only the denominator
        # draws.  A positive numerator in its place makes the replicates, not
        # just the redraws, depend on which draws the denominator reads; the
        # mirror case gives sum_wy no noise instead.  About a quarter of the
        # rows redraw, so some of 32 do but with chance 7e-5.
        released = _simulated_release(mechanism, d.Bounds(0, 1, 0, 0), 0.02, rows=32, weighted=False)
        assert released.variance("sum_ws") == 0.0 < released.variance("sum_wy")
        self._check(monkeypatch, released, scale, 1000)
        positive = released.values.copy()
        positive[:, SUM_FIELDS.index("sum_ws")] = 30.0
        est = self._check(monkeypatch, released._replace(values=positive), scale, 1000)
        assert est.flags[:, d.FLAGS.index("monte_carlo_redraw")].any()
        noisy = _simulated_release(mechanism, _WEIGHTED, 0.05)
        quiet_y = noisy.noise_variance.copy()
        quiet_y[SUM_FIELDS.index("sum_wy")] = 0.0
        self._check(monkeypatch, noisy._replace(noise_variance=quiet_y), scale, 1000)
        # Without a mechanism (a release read back from JSON may lack one)
        # no sum draws, whatever its variance.
        self._check(monkeypatch, noisy._replace(mechanism=None), scale, 1000)

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_capped_rows(self, monkeypatch, mechanism):
        # Both noisy sums near zero on the log scale with 2 draws: about 1.5% of
        # rows reject more than the cap of 20 replicates, so some of 1,000 do
        # but with chance 3e-7.
        released = _simulated_release(mechanism, _WEIGHTED, 0.05, rows=1000, n=20)
        values = np.full_like(released.values, 20.0)
        values[:, [SUM_FIELDS.index("sum_ws"), SUM_FIELDS.index("sum_wy")]] = 1e-3
        est = self._check(monkeypatch, released._replace(values=values), d.Scale.LOG, 2)
        assert (est.refusal == d.Refusal.MONTE_CARLO_REDRAW_CAP).any()


class TestBatchedRedraws:
    """The batched Monte Carlo pass against the per-row loop, on drawn settings."""

    @settings(max_examples=60, deadline=None)
    @given(
        mechanism=st.sampled_from(_MECHANISMS),
        scale=st.sampled_from([d.Scale.RATIO, d.Scale.LOG]),
        epsilon=st.floats(0.01, 0.2),
        draws=st.integers(2, 1000),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        offset=st.one_of(st.none(), st.floats(0.01, 3.0)),
        quiet=st.sampled_from([None, "sum_ws", "sum_wy", "mechanism"]),
    )
    # Gaussian, log scale, 2 draws, sums 0.01 deviations above zero: about
    # 0.6% of the rows are capped, so some of 1,500 are but with chance 2e-4.
    @example(
        mechanism=d.MechanismKind.GAUSSIAN, scale=d.Scale.LOG, epsilon=0.05, draws=2, rows=1500,
        seed=0, offset=0.01, quiet=None,
    )
    def test_matches_per_row_loop(self, mechanism, scale, epsilon, draws, rows, seed, offset, quiet):
        released = _simulated_release(mechanism, _WEIGHTED, epsilon, rows=rows, seed=seed)
        if offset is not None:
            # Both noisy sums ``offset`` noise deviations above zero: at a
            # small offset most replicates are redrawn, and rows with few
            # draws can be capped.
            values = released.values.copy()
            sd = math.sqrt(released.variance("sum_wy"))
            values[:, [SUM_FIELDS.index("sum_ws"), SUM_FIELDS.index("sum_wy")]] = offset * sd
            released = released._replace(values=values)
        if quiet == "mechanism":
            released = released._replace(mechanism=None)
        elif quiet is not None:
            variance = released.noise_variance.copy()
            variance[SUM_FIELDS.index(quiet)] = 0.0
            released = released._replace(noise_variance=variance)
        # _check compares every output array bit for bit and the generators' end states.
        TestBatchedMonteCarloPass()._check(pytest.MonkeyPatch(), released, scale, draws)


class TestRowsWithoutRedraws:
    """A row whose first pass rejects nothing is corrected from that pass
    alone: ``draws`` numerators, then ``draws`` denominators, one draw_noise
    call per sum on the row's fresh generator."""

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_extra_is_the_first_pass_deviation(self, mechanism, scale):
        # At epsilon 1 on 1,000 weighted records over 80% of rows reject nothing.
        rows, draws = 40, 200
        released = _simulated_release(mechanism, _WEIGHTED, 1.0, rows=rows, n=1000)
        mc = d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws,
                              rngs=[np.random.default_rng([17, row]) for row in range(rows)])
        no_correction = d.estimate_block(released, d.Method.NO_CORRECTION, scale)
        quiet = np.flatnonzero(
            (mc.refusal == d.Refusal.NONE) & ~mc.flags[:, d.FLAGS.index("monte_carlo_redraw")]
        )
        assert len(quiet) > rows // 2
        for row in quiet:
            rng = np.random.default_rng([17, row])
            num, den = (
                released.values[row, SUM_FIELDS.index(name)]
                + d.draw_noise(rng, released.mechanism, released.variance(name), draws)
                for name in ("sum_ws", "sum_wy")
            )
            replicates = num / den
            if scale is d.Scale.LOG:
                replicates = np.log(replicates)
            extra = np.mean(np.square(replicates - mc.point[row]))
            assert mc.variance[row] == no_correction.variance[row] + extra, row


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
    """Both scales on one first pass against each scale on fresh generators."""

    @settings(max_examples=40, deadline=None)
    @given(
        mechanism=st.sampled_from(_MECHANISMS),
        epsilon=st.floats(0.01, 0.2),
        draws=st.integers(2, 500),
        rows=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        offset=st.one_of(st.none(), st.floats(0.01, 3.0)),
    )
    # Gaussian noise comes from the ziggurat, which takes a variable number of
    # stream words per draw, so this catches a later scale that does not
    # resume exactly where the first pass left a generator.
    @example(mechanism=d.MechanismKind.GAUSSIAN, epsilon=0.02, draws=300, rows=30, seed=1, offset=0.5)
    def test_each_scale_equals_its_own_pass(self, mechanism, epsilon, draws, rows, seed, offset):
        released = _simulated_release(mechanism, _WEIGHTED, epsilon, rows=rows, seed=seed)
        if offset is not None:
            values = released.values.copy()
            sd = math.sqrt(released.variance("sum_wy"))
            values[:, [SUM_FIELDS.index("sum_ws"), SUM_FIELDS.index("sum_wy")]] = offset * sd
            released = released._replace(values=values)

        def rngs():
            return [np.random.default_rng([11, row]) for row in range(rows)]

        alone = {
            scale: d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws, rngs=rngs())
            for scale in (d.Scale.RATIO, d.Scale.LOG)
        }
        for order in ((d.Scale.RATIO, d.Scale.LOG), (d.Scale.LOG, d.Scale.RATIO)):
            shared = inference._estimate_scales(
                released, d.Method.MONTE_CARLO, order, draws=draws, rngs=rngs()
            )
            for scale, est in zip(order, shared):
                for name, got, want in zip(est._fields, est, alone[scale]):
                    assert got.tobytes() == want.tobytes(), (scale, name)


def _watched_streams(run, rows):
    """``run`` on fresh generators, one per row, watching raw_draws: returns
    its result and, per row, every value its generator yielded, in order."""
    generators = [np.random.default_rng([13, row]) for row in range(rows)]
    row_of = {id(rng): row for row, rng in enumerate(generators)}
    yielded = [[np.empty(0)] for _ in range(rows)]
    draw = inference.raw_draws

    def watched_draw(rng, mechanism, size=None, out=None):
        values = draw(rng, mechanism, size, out)
        yielded[row_of[id(rng)]].append(np.array(values).reshape(-1))
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "raw_draws", watched_draw)
        result = run(generators)
    return result, [np.concatenate(values) for values in yielded]


def _shared_pass(released, scales, draws):
    """``_estimate_scales`` of ``scales`` on one first pass, against each
    scale's own run on fresh generators.

    Each scale must equal its own run bit for bit, and each row's generator
    must yield each stream position once: what it yields in the shared pass
    is the longest stream any scale's own run reads for that row.  Returns
    the shared estimates and a (scales, rows) array of the length of each
    scale's own stream, first pass included.
    """
    rows = len(released.values)
    shared, streams = _watched_streams(
        lambda rngs: inference._estimate_scales(
            released, d.Method.MONTE_CARLO, scales, draws=draws, rngs=rngs
        ),
        rows,
    )
    own_streams = []
    for scale, est in zip(scales, shared):
        alone, own = _watched_streams(
            lambda rngs: d.estimate_block(released, d.Method.MONTE_CARLO, scale, draws=draws, rngs=rngs),
            rows,
        )
        for name, got, want in zip(est._fields, est, alone):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (scale, name)
        own_streams.append(own)
    for row in range(rows):
        longest = max((own[row] for own in own_streams), key=len)
        assert streams[row].tobytes() == longest.tobytes(), row
    return shared, np.array([[len(stream) for stream in own] for own in own_streams])


def _near_zero(released, numerator, denominator):
    """``released`` with both noisy sums of every row this many noise deviations above zero."""
    values = released.values.copy()
    sd = math.sqrt(released.variance("sum_wy"))
    values[:, SUM_FIELDS.index("sum_ws")] = numerator * sd
    values[:, SUM_FIELDS.index("sum_wy")] = denominator * sd
    return released._replace(values=values)


_BOTH_ORDERS = [(d.Scale.RATIO, d.Scale.LOG), (d.Scale.LOG, d.Scale.RATIO)]


def _order_id(order):
    return "_".join(scale.value for scale in order)


#: Raw draws of a first pass at 50 draws with both sums noisy.
_FIRST_PASS = 2 * 50


def _one_pair(accepted, drawn, draws):
    """A sizing that extends each short row by one redraw pair per round."""
    return np.ones(len(accepted), dtype=np.intp)


class TestSharedPairs:
    """With several scales on one pass, every scale takes its replicates from
    the same pairs, drawn as far as the strictest scale that draws each row
    needs.  Each scale must equal its own run, bit for bit, in either order.

    With one redraw pair per round a generator yields just the pairs the
    strictest scale reads, so each scale's own stream is as long as it needs.
    """

    @pytest.fixture(autouse=True)
    def streams_end_at_reads(self, monkeypatch):
        monkeypatch.setattr(inference, "_extension", _one_pair)

    @pytest.mark.parametrize("order", _BOTH_ORDERS, ids=_order_id)
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_row_the_log_scale_refuses(self, mechanism, order):
        # Rows whose noisy score sum is negative are refused on the log scale,
        # so only the ratio scale draws them, and they redraw.
        released = _near_zero(_simulated_release(mechanism, _WEIGHTED, 0.05, rows=40), 0.3, 0.3)
        values = released.values.copy()
        values[::3, SUM_FIELDS.index("sum_ws")] *= -1.0
        released = released._replace(values=values)
        shared, _ = _shared_pass(released, order, 50)
        est = dict(zip(order, shared))
        only_ratio = (
            (est[d.Scale.LOG].refusal == d.Refusal.NONPOSITIVE_LOG_NUMERATOR)
            & est[d.Scale.RATIO].flags[:, d.FLAGS.index("monte_carlo_redraw")]
        )
        assert only_ratio.any()

    @pytest.mark.parametrize("order", _BOTH_ORDERS, ids=_order_id)
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_log_scale_reads_at_least_as_far(self, mechanism, order):
        # The log scale accepts a subset of the pairs the ratio scale accepts,
        # so it never reads less of a row's stream.  With the numerators well
        # above zero and the denominators near it, 4% (Gaussian) to 18%
        # (Laplace) of rows read more, so some of 200 do but with chance 2e-4.
        released = _near_zero(_simulated_release(mechanism, _WEIGHTED, 0.05, rows=200), 3.0, 0.1)
        _, lengths = _shared_pass(released, order, 50)
        length = dict(zip(order, lengths))
        assert (length[d.Scale.LOG] >= length[d.Scale.RATIO]).all()
        assert ((length[d.Scale.LOG] > length[d.Scale.RATIO]) & (length[d.Scale.RATIO] > _FIRST_PASS)).any()

    @pytest.mark.parametrize("order", _BOTH_ORDERS, ids=_order_id)
    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_capped_row(self, monkeypatch, mechanism, order):
        # At a cap of one rejected pair per draw the log scale caps rows whose
        # replicates the ratio scale finds among the same pairs.
        monkeypatch.setattr(inference, "_REDRAW_CAP_PER_DRAW", 1)
        released = _near_zero(_simulated_release(mechanism, _WEIGHTED, 0.05, rows=40), 0.3, 0.3)
        shared, _ = _shared_pass(released, order, 50)
        est = dict(zip(order, shared))
        capped = est[d.Scale.LOG].refusal == d.Refusal.MONTE_CARLO_REDRAW_CAP
        assert (capped & (est[d.Scale.RATIO].refusal == d.Refusal.NONE)).any()


class TestReadAhead:
    """How many redraw pairs a short row draws at a time changes how far its
    generator is drawn, never an estimate."""

    @settings(max_examples=60, deadline=None)
    @given(
        mechanism=st.sampled_from(_MECHANISMS),
        order=st.sampled_from(_BOTH_ORDERS),
        epsilon=st.floats(0.01, 0.2),
        draws=st.integers(2, 500),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        offsets=st.one_of(st.none(), st.tuples(st.floats(-1.0, 3.0), st.floats(0.01, 3.0))),
        cap=st.sampled_from([0.05, 1, inference._REDRAW_CAP_PER_DRAW]),
    )
    # One rejected replicate per draw caps rows whose sums sit near zero.  A
    # cap below one per draw allows fewer redraw pairs than draws.
    @example(
        mechanism=d.MechanismKind.LAPLACE, order=_BOTH_ORDERS[1], epsilon=0.05, draws=20, rows=12,
        seed=3, offsets=(0.3, 0.3), cap=1,
    )
    def test_sizing_changes_no_estimate(self, mechanism, order, epsilon, draws, rows, seed, offsets, cap):
        released = _simulated_release(mechanism, _WEIGHTED, epsilon, rows=rows, seed=seed)
        if offsets is not None:
            # Both noisy sums a few noise deviations from zero, the numerator
            # possibly below it, which only the ratio scale draws.
            released = _near_zero(released, *offsets)
        default = inference._extension

        def eight_times(accepted, drawn, draws):
            room = draws + inference._redraw_cap(draws) - drawn
            return np.minimum(8 * default(accepted, drawn, draws), room)

        results = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_REDRAW_CAP_PER_DRAW", cap)
            for sizing in (_one_pair, default, eight_times):
                patch.setattr(inference, "_extension", sizing)
                # Each scale equals its own run, and each generator yields
                # just the longest stream one of those runs reads.
                shared, _ = _shared_pass(released, order, draws)
                results.append([a.tobytes() for est in shared for a in est])
        assert results[0] == results[1] == results[2]


class TestExtension:
    """How many more redraw pairs a short row draws, from its own counts."""

    def test_mean_trials_plus_two_deviations(self):
        # q = 40 / 50 and r = 10: (10 + 2 sqrt(10 * 0.2)) / 0.8 = 16.04 pairs.
        # A row that accepted nothing takes the 500 pairs the cap leaves.
        more = inference._extension(np.array([40, 0]), np.array([50, 50]), 50)
        assert more.tolist() == [17, 500]

    @settings(max_examples=300, deadline=None)
    @given(
        draws=st.integers(2, 1000),
        cap=st.sampled_from([0.05, 1, inference._REDRAW_CAP_PER_DRAW]),
        data=st.data(),
    )
    def test_at_least_one_pair_within_the_room_left(self, draws, cap, data):
        # At least one pair and no more than the cap leaves, so the extension
        # loop always ends.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_REDRAW_CAP_PER_DRAW", cap)
            top = inference._redraw_cap(draws)
            assume(top > 0)
            accepted = data.draw(st.integers(0, draws - 1), label="accepted")
            drawn = data.draw(st.integers(draws, draws + top - 1), label="drawn")
            more = inference._extension(np.array([accepted]), np.array([drawn]), draws)
        room = draws + top - drawn
        assert more.dtype == np.intp and 1 <= more[0] <= room
        if accepted == 0:
            assert more[0] == room


class TestRedrawGeneratorCalls:
    """A row's generator is called once for its first pass, then once per
    extension while its pairs hold fewer than ``draws`` that its strictest
    scale accepts and fewer redraw pairs than the cap, each call of the
    size _extension gives for the row's counts so far."""

    @pytest.mark.parametrize("mechanism", _MECHANISMS)
    def test_one_call_per_extension(self, monkeypatch, mechanism):
        # Both sums 0.3 noise deviations above zero: about half the rows draw,
        # each short after its first pass, and 7-11% of those extend again,
        # so some of about 300 do but with chance 1e-9.
        rows, draws = 600, 50
        released = _near_zero(_simulated_release(mechanism, _WEIGHTED, 0.05, rows=rows), 0.3, 0.3)
        generators = [np.random.default_rng([13, row]) for row in range(rows)]
        row_of = {id(rng): row for row, rng in enumerate(generators)}
        calls = [[] for _ in range(rows)]
        draw = inference.raw_draws

        def watched_draw(rng, mechanism, size=None, out=None):
            values = draw(rng, mechanism, size, out)
            calls[row_of[id(rng)]].append(np.array(values).reshape(-1))
            return values

        monkeypatch.setattr(inference, "raw_draws", watched_draw)
        inference._estimate_scales(
            released, d.Method.MONTE_CARLO, (d.Scale.RATIO, d.Scale.LOG), draws=draws, rngs=generators
        )
        # A row's strictest scale is the log scale wherever that scale draws it.
        strict = d.estimate_block(released, d.Method.NO_CORRECTION, d.Scale.LOG).refusal == d.Refusal.NONE
        top = inference._redraw_cap(draws)

        def accepted(row, numerators, denominators):
            """How many of a row's pairs, from their raw draws, its strictest scale accepts."""
            num, den = (
                released.values[row, SUM_FIELDS.index(name)]
                + noise_from_raw(raw.copy(), mechanism, released.variance(name))
                for name, raw in (("sum_ws", numerators), ("sum_wy", denominators))
            )
            return np.count_nonzero((den > 0.0) & ((num > 0.0) | ~strict[row]))

        calls_per_row = []
        for row, values in enumerate(calls):
            if not values:  # refused before it drew
                continue
            first, *extensions = values  # both sums carry noise
            assert len(first) == 2 * draws
            ok, drawn = accepted(row, first[:draws], first[draws:]), draws
            for raw in extensions:
                assert ok < draws and drawn < draws + top
                more = inference._extension(np.array([ok]), np.array([drawn]), draws)[0]
                assert len(raw) == 2 * more
                ok, drawn = ok + accepted(row, raw[0::2], raw[1::2]), drawn + more
            assert ok >= draws or drawn == draws + top
            calls_per_row.append(len(values))
        assert 2 in calls_per_row and max(calls_per_row) > 2


class TestMonteCarloGenerators:
    """Monte Carlo without a generator for every row is refused before any draw."""

    def _released(self):
        return _simulated_release(d.MechanismKind.GAUSSIAN, _WEIGHTED, 0.5, rows=3)

    def test_missing_generators(self):
        with pytest.raises(d.InvalidConfigError, match=r"got 0 for 3 rows"):
            d.estimate_block(self._released(), d.Method.MONTE_CARLO)

    def test_fewer_generators_than_rows(self):
        rngs = [np.random.default_rng(row) for row in range(2)]
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(d.InvalidConfigError, match=r"got 2 for 3 rows"):
            d.estimate_block(self._released(), d.Method.MONTE_CARLO, rngs=rngs)
        assert [rng.bit_generator.state for rng in rngs] == states


class TestSettingValues:
    """Every entry point takes a method and a scale as a member or its value."""

    @pytest.mark.parametrize("scale", list(d.Scale))
    @pytest.mark.parametrize("method", list(d.Method))
    def test_block_values_equal_members(self, method, scale):
        released = _simulated_release(d.MechanismKind.LAPLACE, _WEIGHTED, 0.2, rows=16)
        by_member, by_value = (
            d.estimate_block(released, m, s, 0.9, 50, [np.random.default_rng([3, row]) for row in range(16)])
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
            d.estimate_block(block, method, d.Scale.LOG, 0.9, 50,
                             [np.random.default_rng([3, row]) for row in range(16)])
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
                             rngs=[np.random.default_rng(row) for row in range(3)])
