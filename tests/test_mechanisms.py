import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpratio as d
from dpratio.core import SUM_FIELDS

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def _binary6_sums(rng=None, n=400):
    rng = rng or np.random.default_rng(0)
    y = (rng.random(n) < 0.5).astype(float)
    s = rng.random(n)
    w = rng.uniform(0.5, 2.0, n)
    return d.compute_sums_from_arrays(y, s, w, d.Bounds.binary(w_low=0.5, w_high=2.0))


class TestGaussianSigma:
    def test_reference_value(self):
        # sqrt(2 ln(1.25e6)) = 5.29880252685047395... (30-digit evaluation).
        sigma = d.gaussian_sigma(1.0, d.PrivacyBudget(1.0, 1e-6))
        assert sigma == pytest.approx(5.298802526850474, rel=1e-14)

    def test_zero_sensitivity(self):
        assert d.gaussian_sigma(0.0, d.PrivacyBudget(1.0, 1e-6)) == 0.0

    def test_inverse_proportional_to_epsilon(self):
        lo = d.gaussian_sigma(1.0, d.PrivacyBudget(1.0, 1e-6))
        hi = d.gaussian_sigma(1.0, d.PrivacyBudget(2.0, 1e-6))
        assert hi == lo / 2.0

    def test_requires_positive_delta(self):
        with pytest.raises(d.MechanismMismatchError):
            d.gaussian_sigma(1.0, d.PrivacyBudget(1.0, 0.0))

    @given(positive, positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, sensitivity, eps, factor):
        delta = 1e-6
        base = d.gaussian_sigma(sensitivity, d.PrivacyBudget(eps, delta))
        wider = d.gaussian_sigma(sensitivity * (1.0 + factor), d.PrivacyBudget(eps, delta))
        tighter = d.gaussian_sigma(sensitivity, d.PrivacyBudget(eps * (1.0 + factor), delta))
        assert wider > base
        assert tighter < base


class TestLaplaceScale:
    def test_examples(self):
        assert d.laplace_scale(1.0, 0.5) == 2.0
        assert 2.0 * d.laplace_scale(1.0, 0.5) ** 2 == 8.0
        assert d.laplace_scale(0.0, 0.7) == 0.0
        assert d.laplace_scale(3.0, 1.5) == 2.0

    def test_invalid_epsilon(self):
        with pytest.raises(d.InvalidBudgetError):
            d.laplace_scale(1.0, 0.0)
        with pytest.raises(d.InvalidBudgetError):
            d.laplace_scale(1.0, -1.0)

    @given(positive, positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, sensitivity, eps, factor):
        base = d.laplace_scale(sensitivity, eps)
        assert d.laplace_scale(sensitivity * (1.0 + factor), eps) > base
        assert d.laplace_scale(sensitivity, eps * (1.0 + factor)) < base


@pytest.mark.parametrize(
    "calibration",
    [
        lambda sensitivity: d.gaussian_sigma(sensitivity, d.PrivacyBudget(1.0, 1e-6)),
        lambda sensitivity: d.laplace_scale(sensitivity, 1.0),
    ],
    ids=["gaussian_sigma", "laplace_scale"],
)
def test_negative_sensitivity_rejected(calibration):
    with pytest.raises(ValueError, match="^sensitivity must be non-negative$"):
        calibration(-1.0)


_PROFILE_BOUNDS = {
    d.Profile.FULL7: d.Bounds(0.0, 1.0, 0.0, 1.0, 0.5, 2.0),
    d.Profile.BINARY6: d.Bounds.binary(w_low=0.5, w_high=2.0),
    d.Profile.UNWEIGHTED5: d.Bounds.binary_unweighted(),
}


class TestSplitBudget:
    """calibrate splits the total budget evenly over the k sums of the profile."""

    @pytest.mark.parametrize("profile, k", [
        (d.Profile.UNWEIGHTED5, 5), (d.Profile.BINARY6, 6), (d.Profile.FULL7, 7),
    ])
    def test_even_split(self, profile, k):
        bounds = _PROFILE_BOUNDS[profile]
        assert len(profile.released_fields) == k
        per = d.calibrate(bounds, d.PrivacyBudget(1.0, 1e-6), d.MechanismKind.GAUSSIAN).per_sum_budget
        assert per == d.PrivacyBudget(1.0 / k, 1e-6 / k)

    def test_pure_dp_split(self):
        bounds = _PROFILE_BOUNDS[d.Profile.UNWEIGHTED5]
        per = d.calibrate(bounds, d.PrivacyBudget(0.2, 0.0), d.MechanismKind.LAPLACE).per_sum_budget
        assert per == d.PrivacyBudget(0.04, 0.0)

    @pytest.mark.parametrize("profile", list(_PROFILE_BOUNDS))
    def test_pure_dp_delta_stays_zero(self, profile):
        """A pure-DP delta share of 0 is the total's own 0, not an underflow."""
        k = len(profile.released_fields)
        calibration = d.calibrate(_PROFILE_BOUNDS[profile], d.PrivacyBudget(1e-3, 0.0), d.MechanismKind.LAPLACE)
        assert calibration.per_sum_budget == d.PrivacyBudget(1e-3 / k, 0.0)

    def test_underflow_names_total_and_k(self):
        with pytest.raises(d.InvalidBudgetError, match=r"total epsilon 5e-324 .* k=5 sums underflow"):
            d.calibrate(_PROFILE_BOUNDS[d.Profile.UNWEIGHTED5], d.PrivacyBudget(5e-324), d.MechanismKind.LAPLACE)
        with pytest.raises(d.InvalidBudgetError, match=r"delta 5e-324 split over k=6 sums underflow"):
            d.calibrate(
                _PROFILE_BOUNDS[d.Profile.BINARY6], d.PrivacyBudget(1.0, 5e-324), d.MechanismKind.GAUSSIAN
            )
        # A tiny pure-DP total keeps every share positive: it fails on its variance, not as an underflow.
        with pytest.raises(d.InvalidBudgetError, match=r"k=7 sums \(per-sum epsilons .* not finite"):
            d.calibrate(_PROFILE_BOUNDS[d.Profile.FULL7], d.PrivacyBudget(1e-320, 0.0), d.MechanismKind.LAPLACE)


class TestBudgetValidation:
    def test_epsilon_positive(self):
        with pytest.raises(d.InvalidBudgetError):
            d.PrivacyBudget(0.0, 1e-6)

    def test_delta_range(self):
        with pytest.raises(d.InvalidBudgetError):
            d.PrivacyBudget(1.0, 1.0)
        with pytest.raises(d.InvalidBudgetError):
            d.PrivacyBudget(1.0, -0.1)


class TestRelease:
    def test_deterministic_under_seeding(self):
        sums = _binary6_sums()
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        budget = d.PrivacyBudget(1.0, 1e-6)
        one = d.release(sums, bounds, budget, d.MechanismKind.GAUSSIAN, np.random.default_rng(42))
        two = d.release(sums, bounds, budget, d.MechanismKind.GAUSSIAN, np.random.default_rng(42))
        assert one == two

    def test_binary6_calibration(self):
        sums = _binary6_sums()
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        released = d.release(
            sums, bounds, d.PrivacyBudget(1.0, 1e-6), d.MechanismKind.GAUSSIAN,
            np.random.default_rng(1),
        )
        assert len(released.released_fields) == 6
        per = d.PrivacyBudget(1.0 / 6, 1e-6 / 6)
        assert released.per_sum_budget == per
        sens = d.sensitivity_per_sum(bounds)
        for field in released.released_fields:
            expected = d.gaussian_sigma(sens[field], per) ** 2
            assert released.noise_variance[field] == pytest.approx(expected, rel=1e-12)

    def test_budget_composition_bookkeeping(self):
        sums = _binary6_sums()
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        released = d.release(
            sums, bounds, d.PrivacyBudget(1.0, 1e-6), d.MechanismKind.GAUSSIAN,
            np.random.default_rng(1),
        )
        k = len(released.released_fields)
        assert k * released.per_sum_budget.epsilon == pytest.approx(1.0, rel=1e-12)
        assert k * released.per_sum_budget.delta == pytest.approx(1e-6, rel=1e-12)

    def test_collapsed_sums_mirror_released_value(self):
        sums = _binary6_sums()
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        released = d.release(
            sums, bounds, d.PrivacyBudget(1.0, 1e-6), d.MechanismKind.GAUSSIAN,
            np.random.default_rng(7),
        )
        assert released.values["sum_wy2"] == released.values["sum_wy"]
        assert released.noise_variance["sum_wy2"] == released.noise_variance["sum_wy"]

    def test_mechanism_budget_mismatch(self):
        sums = _binary6_sums()
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        with pytest.raises(d.MechanismMismatchError):
            d.release(sums, bounds, d.PrivacyBudget(1.0, 0.0), d.MechanismKind.GAUSSIAN,
                      np.random.default_rng(0))
        with pytest.raises(d.MechanismMismatchError):
            d.release(sums, bounds, d.PrivacyBudget(1.0, 1e-6), d.MechanismKind.LAPLACE,
                      np.random.default_rng(0))

    def test_profile_mismatch_rejected(self):
        sums = _binary6_sums()
        with pytest.raises(d.InvalidConfigError):
            d.release(sums, d.Bounds.binary_unweighted(), d.PrivacyBudget(1.0, 1e-6),
                      d.MechanismKind.GAUSSIAN, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "mechanism,delta",
        [(d.MechanismKind.GAUSSIAN, 1e-6), (d.MechanismKind.LAPLACE, 0.0)],
    )
    def test_standardized_noise_moments(self, mechanism, delta):
        sums = _binary6_sums()
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        budget = d.PrivacyBudget(1.0, delta)
        rng = np.random.default_rng(123)
        exact = sums.sum_wy
        draws = np.empty(10_000)
        for i in range(draws.size):
            released = d.release(sums, bounds, budget, mechanism, rng)
            draws[i] = released.values["sum_wy"] - exact
        sigma = math.sqrt(released.noise_variance["sum_wy"])
        standardized = draws / sigma
        assert abs(standardized.mean()) < 0.05
        assert 0.9 < standardized.var() < 1.1

    def test_json_roundtrip(self):
        sums = _binary6_sums()
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        released = d.release(
            sums, bounds, d.PrivacyBudget(1.0, 1e-6), d.MechanismKind.GAUSSIAN,
            np.random.default_rng(5),
        )
        payload = json.loads(released.to_json())
        assert set(payload["values"]) == set(released.released_fields)
        restored = d.ReleasedSums.from_json_dict(payload)
        assert restored.values == dict(released.values)
        assert restored.noise_variance == dict(released.noise_variance)
        assert restored.mechanism is released.mechanism
        assert restored.per_sum_budget == released.per_sum_budget
        assert restored.profile is released.profile

    def test_exact_release_has_zero_noise(self):
        sums = _binary6_sums()
        released = d.exact_release(sums)
        assert released.mechanism is None
        assert all(v == 0.0 for v in released.noise_variance.values())
        assert released.values == sums.as_dict()


_MECHANISM_DELTAS = [(d.MechanismKind.GAUSSIAN, 1e-6), (d.MechanismKind.LAPLACE, 0.0)]


def _profile_release(profile, mechanism, delta, seed=11):
    """Sums of 300 records under ``profile``'s bounds and their release, seeded."""
    bounds = _PROFILE_BOUNDS[profile]
    rng = np.random.default_rng(3)
    y = (rng.random(300) < 0.5).astype(float)
    w = np.ones(300) if profile is d.Profile.UNWEIGHTED5 else rng.uniform(0.5, 2.0, 300)
    sums = d.compute_sums_from_arrays(y, rng.random(300), w, bounds)
    budget = d.PrivacyBudget(1.0, delta)
    released = d.release(sums, bounds, budget, mechanism, np.random.default_rng(seed))
    return sums, bounds, budget, released


@pytest.mark.parametrize("mechanism, delta", _MECHANISM_DELTAS)
@pytest.mark.parametrize("profile", list(_PROFILE_BOUNDS))
class TestReleasedSumsView:
    """A ReleasedSums is a one-row view of a ReleasedBlock, bit for bit."""

    def test_view_is_the_release_block_row(self, profile, mechanism, delta):
        sums, bounds, budget, released = _profile_release(profile, mechanism, delta)
        exact = np.array([[sums.as_dict()[f] for f in SUM_FIELDS]])
        block = d.release_block(exact, bounds, budget, mechanism, [np.random.default_rng(11)])
        view = released.block
        assert view.values.shape == (1, 7) and view.noise_variance.shape == (7,)
        assert view.values.tobytes() == block.values.tobytes()
        assert view.noise_variance.tobytes() == block.noise_variance.tobytes()
        assert (view.mechanism, view.per_sum_budget, view.profile) == (
            block.mechanism, block.per_sum_budget, block.profile
        )
        assert released.values == dict(zip(SUM_FIELDS, block.values[0].tolist()))
        assert released.noise_variance == dict(zip(SUM_FIELDS, block.noise_variance.tolist()))

    def test_json_roundtrip_is_bit_exact(self, profile, mechanism, delta):
        _, _, _, released = _profile_release(profile, mechanism, delta)
        restored = d.ReleasedSums.from_json_dict(json.loads(json.dumps(released.to_json_dict())))
        assert restored.block.values.tobytes() == released.block.values.tobytes()
        assert restored.block.noise_variance.tobytes() == released.block.noise_variance.tobytes()
        for alias, source in profile.aliases.items():
            assert restored.values[alias] == restored.values[source]
            assert restored.noise_variance[alias] == restored.noise_variance[source]
        assert restored == released

    def test_json_missing_released_field(self, profile, mechanism, delta):
        _, _, _, released = _profile_release(profile, mechanism, delta)
        for key in ("values", "noise_variance"):
            for field in profile.released_fields:
                payload = released.to_json_dict()
                del payload[key][field]
                with pytest.raises(d.InvalidConfigError, match=field):
                    d.ReleasedSums.from_json_dict(payload)

    def test_json_rejects_non_finite_values_and_bad_variances(self, profile, mechanism, delta):
        # A release read from outside must meet what release_block guarantees;
        # a negative variance would otherwise narrow the analytical interval.
        _, _, _, released = _profile_release(profile, mechanism, delta)
        bad = {
            "values": [math.nan, math.inf, -math.inf],
            "noise_variance": [math.nan, math.inf, -math.inf, -5.0, -1e-300],
        }
        for key, entries in bad.items():
            for field in profile.released_fields:
                for entry in entries:
                    payload = released.to_json_dict()
                    payload[key][field] = entry
                    with pytest.raises(d.InvalidConfigError, match=rf"{key}\.{field}\b"):
                        d.ReleasedSums.from_json_dict(json.loads(json.dumps(payload)))

    def test_json_accepts_negative_values_and_zero_variances(self, profile, mechanism, delta):
        _, _, _, released = _profile_release(profile, mechanism, delta)
        payload = released.to_json_dict()
        for field in profile.released_fields:
            payload["values"][field] = -5.0
            payload["noise_variance"][field] = 0.0
        restored = d.ReleasedSums.from_json_dict(payload)
        assert all(restored.values[f] == -5.0 for f in profile.released_fields)
        assert all(restored.noise_variance[f] == 0.0 for f in profile.released_fields)


class TestDrawNoise:
    def test_zero_variance_is_zero(self):
        rng = np.random.default_rng(0)
        assert d.draw_noise(rng, d.MechanismKind.GAUSSIAN, 0.0) == 0.0
        assert (d.draw_noise(rng, None, 4.0, 5) == 0.0).all()

    @pytest.mark.parametrize("mechanism", [d.MechanismKind.GAUSSIAN, d.MechanismKind.LAPLACE])
    def test_bit_exact_transform_of_the_stream(self, mechanism):
        # Gaussian noise is sigma times standard normals; Laplace noise is the
        # inverse CDF at scale sqrt(variance / 2) of uniforms on [0, 1).
        rng = np.random.default_rng(8)
        if mechanism is d.MechanismKind.GAUSSIAN:
            expected = 3.0 * rng.standard_normal(1000)
        else:
            u, b = rng.random(1000), math.sqrt(4.5)
            expected = np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 * (1.0 - u)))
        noise = d.draw_noise(np.random.default_rng(8), mechanism, 9.0, 1000)
        assert noise.tobytes() == expected.tobytes()
        scalar = d.draw_noise(np.random.default_rng(8), mechanism, 9.0)
        assert type(scalar) is float and scalar == expected[0]

    @pytest.mark.parametrize("mechanism", [d.MechanismKind.GAUSSIAN, d.MechanismKind.LAPLACE])
    def test_variance_matches_request(self, mechanism):
        rng = np.random.default_rng(77)
        sample = d.draw_noise(rng, mechanism, 9.0, 200_000)
        assert sample.var() == pytest.approx(9.0, rel=0.03)
        assert abs(sample.mean()) < 0.05


def _masked_laplace(u, scale):
    """The inverse Laplace CDF as masked ufuncs: below the median scale * log(2u),
    above it the negated log of 2(1 - u), u == 0.0 clamped to the smallest double."""
    u = np.maximum(u, np.finfo(np.float64).tiny)
    upper = u >= 0.5
    np.subtract(1.0, u, out=u, where=upper)
    u *= 2.0
    np.log(u, out=u)
    u *= scale
    np.negative(u, out=u, where=upper)
    return u


# Uniforms that stress the transform: both ends of [0, 1), the median and its
# neighbours, and the smallest subnormal.
_EDGE_UNIFORMS = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 2.0**-1074]
_uniforms = st.one_of(st.sampled_from(_EDGE_UNIFORMS), st.floats(0.0, 1.0, exclude_max=True))


class TestLaplaceTransform:
    """The unmasked inverse CDF against the masked one, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6),
        draws=st.integers(1, 12),
        uniforms=st.lists(_uniforms, min_size=1, max_size=144),
        scales=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2),
    )
    def test_monte_carlo_shape_matches_masked_formula(self, rows, draws, uniforms, scales):
        # The Monte Carlo passes transform (B, 2, draws) blocks with (2, 1) scales.
        u = np.resize(np.array(uniforms), (rows, 2, draws))
        scale = np.array(scales)[:, None]
        expected = _masked_laplace(u, scale)
        got = d.mechanisms._laplace_from_uniform(u.copy(), scale)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 20),
        uniforms=st.lists(_uniforms, min_size=1, max_size=140),
        scales=st.lists(st.floats(0.0, 1e6), min_size=7, max_size=7),
        k=st.sampled_from([5, 6, 7]),
    )
    def test_release_shape_matches_masked_formula(self, rows, uniforms, scales, k):
        # release_block transforms (B, k) blocks with one scale per column.
        u = np.resize(np.array(uniforms), (rows, k))
        scale = np.array(scales[:k])
        expected = _masked_laplace(u, scale)
        got = d.mechanisms._laplace_from_uniform(u.copy(), scale)
        assert got.tobytes() == expected.tobytes()

    def test_edge_uniforms(self):
        u = np.array(_EDGE_UNIFORMS)
        got = d.mechanisms._laplace_from_uniform(u.copy(), 2.0)
        assert got.tobytes() == _masked_laplace(u, 2.0).tobytes()
        assert np.signbit(got[1]) and got[1] == 0.0  # the median maps to -0.0
        assert np.isfinite(got).all()


class TestCalibration:
    @pytest.mark.parametrize("profile_bounds", [
        d.Bounds.binary_unweighted(), d.Bounds.binary(w_low=0.5, w_high=2.0), d.Bounds(0, 1, 0, 1, 0.5, 3.0),
    ])
    @pytest.mark.parametrize("mechanism, delta", [(d.MechanismKind.GAUSSIAN, 1e-6), (d.MechanismKind.LAPLACE, 0.0)])
    def test_release_uses_the_calibration(self, profile_bounds, mechanism, delta):
        budget = d.PrivacyBudget(0.7, delta)
        calibration = d.calibrate(profile_bounds, budget, mechanism)
        fields = profile_bounds.profile.released_fields
        sens = d.sensitivity_per_sum(profile_bounds)
        per = d.PrivacyBudget(0.7 / len(fields), delta / len(fields))
        assert calibration.per_sum_budget == per
        if mechanism is d.MechanismKind.GAUSSIAN:
            scales = [d.gaussian_sigma(sens[f], per) for f in fields]
            variances = [x * x for x in scales]
        else:
            scales = [d.laplace_scale(sens[f], per.epsilon) for f in fields]
            variances = [2.0 * x * x for x in scales]
        assert calibration.scales.tolist() == scales
        assert calibration.variances.tolist() == variances
        released = d.release_block(
            np.ones((1, 7)), profile_bounds, budget, mechanism, [np.random.default_rng(1)]
        )
        assert [released.variance(f) for f in fields] == variances

    @pytest.mark.parametrize("mechanism, delta, k", [
        (d.MechanismKind.GAUSSIAN, 1e-6, 6), (d.MechanismKind.LAPLACE, 0.0, 6),
    ])
    def test_non_finite_variance_names_the_budget(self, mechanism, delta, k):
        bounds = d.Bounds.binary(w_low=0.5, w_high=2.0)
        budget = d.PrivacyBudget(1e-300, delta)
        message = rf"{mechanism.value} noise at total epsilon 1e-300 and delta {delta!r} split over k={k}"
        with pytest.raises(d.InvalidBudgetError, match=message):
            d.calibrate(bounds, budget, mechanism)
        with pytest.raises(d.InvalidBudgetError, match=message):
            d.release_block(np.ones((1, 7)), bounds, budget, mechanism, [np.random.default_rng(1)])

    def test_each_calibration_is_built_once_and_read_only(self):
        bounds, budget = d.Bounds.binary(w_low=0.5, w_high=2.0), d.PrivacyBudget(0.9, 1e-6)
        first = d.calibrate(bounds, budget, d.MechanismKind.GAUSSIAN)
        assert d.calibrate(d.Bounds.binary(w_low=0.5, w_high=2.0), d.PrivacyBudget(0.9, 1e-6),
                           d.MechanismKind.GAUSSIAN) is first
        for array in (first.scales, first.variances):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("first_sign", [-1.0, 1.0])
    def test_cache_keeps_the_sign_of_a_zero(self, first_sign):
        # -0.0 == 0.0 and both hash alike, yet a per-sum delta of -0.0 prints
        # as -0.0, and a Gaussian scale of -0.0 flips the sign of zero noise.
        laplace, gaussian = d.MechanismKind.LAPLACE, d.MechanismKind.GAUSSIAN
        for sign in (first_sign, -first_sign):
            zero = math.copysign(0.0, sign)
            per = d.calibrate(d.Bounds(), d.PrivacyBudget(0.35, zero), laplace).per_sum_budget
            assert math.copysign(1.0, per.delta) == sign
            assert json.dumps(per.delta) == ("-0.0" if sign < 0 else "0.0")
            bounds = d.Bounds(0.0, zero, 0.0, 1.0, 1.0, 2.0)
            scales = d.calibrate(bounds, d.PrivacyBudget(0.35, 1e-6), gaussian).scales
            assert math.copysign(1.0, scales[d.Profile.FULL7.released_fields.index("sum_wy")]) == sign
