"""Noise calibration and privatized release of summary sums.

The Gaussian mechanism provides (epsilon, delta)-DP, the Laplace mechanism
pure epsilon-DP.  A release splits the total budget evenly across the
distinct sums of the profile (basic composition); collapsed duplicates are
released once and mirrored, which is what makes the smaller profiles cheaper.
All randomness comes from a caller-supplied numpy Generator, read as
uniforms, so a release is fully determined by one seed.  :func:`release_block`
releases many sum vectors at once, row i from the k uniforms at offset i k;
:func:`release` is its block of one, read through the one-row view
:class:`ReleasedSums`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .core import SUM_FIELDS, Bounds, Profile, SumVector, _parse_member, sensitivity_per_sum
from .errors import InvalidBudgetError, InvalidConfigError, MechanismMismatchError


class MechanismKind(str, Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy budget; delta == 0 means pure DP."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidBudgetError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise InvalidBudgetError(f"delta must lie in [0, 1), got {self.delta}")


def default_delta(mechanism: MechanismKind | str) -> float:
    """Total delta used when none is given: 1e-6 for Gaussian, 0 for Laplace."""
    return 1e-6 if _parse_member(MechanismKind, mechanism, "mechanism") is MechanismKind.GAUSSIAN else 0.0


def check_mechanism_budget(mechanism: MechanismKind | str, budget: PrivacyBudget) -> None:
    """Gaussian noise needs delta > 0; Laplace noise gives pure DP, delta == 0."""
    mechanism = _parse_member(MechanismKind, mechanism, "mechanism")
    if mechanism is MechanismKind.GAUSSIAN and budget.delta == 0.0:
        raise MechanismMismatchError("the Gaussian mechanism requires delta > 0")
    if mechanism is MechanismKind.LAPLACE and budget.delta != 0.0:
        raise MechanismMismatchError("the Laplace mechanism requires delta == 0")


def _check_sensitivity(sensitivity: float) -> None:
    """Both noise calibrations need a non-negative sensitivity."""
    if sensitivity < 0.0:
        raise ValueError("sensitivity must be non-negative")


def gaussian_sigma(sensitivity: float, budget: PrivacyBudget) -> float:
    """Standard deviation of Gaussian noise for one release at ``budget``.

    sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon; requires delta > 0.
    """
    _check_sensitivity(sensitivity)
    check_mechanism_budget(MechanismKind.GAUSSIAN, budget)
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon


def laplace_scale(sensitivity: float, epsilon: float) -> float:
    """Scale of Laplace noise for one release: sensitivity / epsilon.

    The associated noise variance is 2 * scale**2.
    """
    _check_sensitivity(sensitivity)
    PrivacyBudget(epsilon)  # owns the epsilon range
    return sensitivity / epsilon


class Calibration(NamedTuple):
    """The noise of one release, per released sum in profile order.

    ``scales`` are the ``mechanism``'s standard deviations or Laplace scales;
    ``variances`` the noise variances they give.  Both arrays are read-only:
    :func:`calibrate` hands the same calibration to every caller.
    """

    mechanism: MechanismKind
    per_sum_budget: PrivacyBudget
    scales: np.ndarray
    variances: np.ndarray


def calibrate(bounds: Bounds, total_budget: PrivacyBudget, mechanism: MechanismKind | str) -> Calibration:
    """Per-sum noise of a release of the profile ``bounds`` declares at ``total_budget``.

    Owns every check a release makes of its budget: the mechanism's delta,
    the even split over the k released sums (basic composition: k releases
    at (eps/k, delta/k) compose to (eps, delta)), and noise variances that
    stay finite.  A positive part of the total whose share underflows to 0
    is rejected, naming the total and k.  A tiny total epsilon can leave
    every share positive and still square a scale past the largest double;
    that budget is rejected too, naming epsilon, delta, k and the mechanism.

    Each calibration is built once and then returned from a cache.
    """
    # Parsed before the cache: a str member equals and hashes like its value,
    # so an unparsed value would fill or read the member's entry.
    mechanism = _parse_member(MechanismKind, mechanism, "mechanism")
    # Equal keys can differ in the sign of a zero (delta = -0.0 == 0.0), and
    # that sign reaches the output, so it is part of the key.
    signs = tuple(math.copysign(1.0, v) for v in (*vars(bounds).values(), *vars(total_budget).values()))
    return _calibrate(bounds, total_budget, mechanism, signs)


@lru_cache(maxsize=256)
def _calibrate(
    bounds: Bounds, total_budget: PrivacyBudget, mechanism: MechanismKind, signs: tuple[float, ...]
) -> Calibration:
    """:func:`calibrate`, once per key; ``signs`` only keys the cache."""
    check_mechanism_budget(mechanism, total_budget)
    fields, k = bounds.profile.released_fields, bounds.profile.size
    epsilon, delta = total_budget.epsilon / k, total_budget.delta / k
    if epsilon == 0.0 or delta == 0.0 < total_budget.delta:
        raise InvalidBudgetError(
            f"total epsilon {total_budget.epsilon!r} and delta {total_budget.delta!r} split over "
            f"k={k} sums underflow to per-sum epsilons of {epsilon!r} and deltas of {delta!r}"
        )
    per = PrivacyBudget(epsilon, delta)
    sens = sensitivity_per_sum(bounds)
    # Python floats overflow to inf without a warning; the check below owns that case.
    if mechanism is MechanismKind.GAUSSIAN:
        scales = [gaussian_sigma(sens[f], per) for f in fields]
        variances = [x * x for x in scales]
    else:
        scales = [laplace_scale(sens[f], per.epsilon) for f in fields]
        variances = [2.0 * x * x for x in scales]
    for field, variance in zip(fields, variances):
        if not math.isfinite(variance):
            raise InvalidBudgetError(
                f"{mechanism.value} noise at total epsilon {total_budget.epsilon!r} and delta "
                f"{total_budget.delta!r} split over k={k} sums (per-sum epsilons of "
                f"{per.epsilon!r}) has a variance that is not finite for {field}"
            )
    scales, variances = np.array(scales), np.array(variances)
    scales.flags.writeable = variances.flags.writeable = False
    return Calibration(mechanism, per, scales, variances)


#: Smallest positive double, and largest below 1: a uniform draw of exactly
#: 0.0, or a truncated quantile that rounds up to 1, is clamped to them.
_TINY, _BELOW_ONE = np.finfo(np.float64).tiny, float(np.nextafter(1.0, 0.0))


def _laplace_from_uniform(u: np.ndarray, scale) -> np.ndarray:
    """Inverse CDF of the centred Laplace at ``scale``, computed in place on ``u``.

    Below the median a draw is scale * log(2u), above it -scale * log(2(1 - u)).
    One log x of 2 * min(u, 1 - u) serves both halves, and the sign comes
    from the same temporary t = 1 - u: the draw is copysign(x, t - 0.5)
    times -scale, so u == 0.5 gives -0.0 and no ufunc runs under a mask.
    u == 0.0 (possible: rng.random() covers [0, 1)) is clamped to the
    smallest positive double, which maps to a finite deep-tail draw of the
    correct sign.
    """
    np.maximum(u, _TINY, out=u)
    t = 1.0 - u
    np.minimum(u, t, out=u)
    t -= 0.5
    u *= 2.0
    np.log(u, out=u)
    np.copysign(u, t, out=u)
    return np.multiply(u, np.negative(scale), out=u)


# Wichura's AS241 (Applied Statistics 37:477-484, 1988), as statistics.NormalDist uses it: the
# (numerator, denominator) coefficients of each branch's rational, highest degree first.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3, 1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2, 4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e+0,
     3.64784832476320460504e+0, 5.76949722146069140550e+0, 4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e+0, 2.05319162663775882187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e+0, 5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0),
)


def _horner(coefficients: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    """The polynomial at each ``r`` by Horner's rule, in the standard library's order."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc


def _rational(coefficients: tuple[tuple[float, ...], ...], r: np.ndarray) -> np.ndarray:
    """An AS241 (numerator, denominator) rational at each ``r``."""
    num = _horner(coefficients[0], r)
    num /= _horner(coefficients[1], r)
    return num


def _normal_inv_cdf(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each ``p`` in (0, 1), in place if ``p``
    is contiguous, as ``statistics.NormalDist().inv_cdf`` computes it: bit
    for bit but where numpy's log is 1 ulp off the C library's (1 tail value
    in 2,000 on AVX-512 builds), which moves the quantile 2 ulps at most.
    The central rational serves every value; only values with |p - 1/2| >
    0.425 (15% of uniform p) take a tail rational, the one for
    sqrt(-log(min(p, 1 - p))) > 5 only where some value needs it."""
    shape, p = p.shape, p.reshape(-1)
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    num = _horner(_AS241_CENTRAL[0], r)
    num *= q
    den = _horner(_AS241_CENTRAL[1], r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    side, r = q[tail], p[tail]
    np.minimum(r, 1.0 - r, out=r)
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    np.divide(num, den, out=p)
    x = _rational(_AS241_NEAR, r - 1.6)
    far = np.flatnonzero(r > 5.0)
    if len(far):
        x[far] = _rational(_AS241_FAR, r[far] - 5.0)
    p[tail] = np.copysign(x, side, out=x)
    return p.reshape(shape)


def lower_tail_mass(mechanism: MechanismKind, noise_variance: float, sums: np.ndarray) -> np.ndarray:
    """F(-x) for each x of ``sums``: the chance that x plus fresh noise with
    ``noise_variance`` is not positive, 0.5 erfc(x / sqrt(2 variance)) for
    Gaussian noise and 0.5 exp(-x / b) for Laplace noise of scale b, x > 0.
    One value a sum, from the math module: numpy has no erfc."""
    if mechanism is MechanismKind.GAUSSIAN:
        scale = math.sqrt(2.0 * noise_variance)
        return np.array([0.5 * math.erfc(x / scale) for x in sums.tolist()])
    scale = math.sqrt(noise_variance / 2.0)
    return np.array([0.5 * math.exp(-x / scale) for x in sums.tolist()])


def truncated_noise(
    u: np.ndarray, mechanism: MechanismKind, noise_variance: float, mass: np.ndarray | float
) -> np.ndarray:
    """Map uniforms ``u`` on [0, 1) to centred noise with ``noise_variance``
    above its ``mass`` quantile, F^-1(mass + u (1 - mass)), by inverse
    transform sampling (Devroye, Non-Uniform Random Variate Generation,
    1986, ch. 2); ``mass`` broadcasts against ``u``.

    At ``mass`` = :func:`lower_tail_mass` of x this is the noise n given
    x + n > 0; at ``mass`` 0 the noise itself.  The quantile is clamped to
    [_TINY, _BELOW_ONE], so u == 0.0 at a mass that underflows to 0, or a
    quantile that rounds up to 1, still gives finite noise.
    """
    p = np.multiply(u, 1.0 - mass)
    p += mass
    np.clip(p, _TINY, _BELOW_ONE, out=p)
    gaussian = mechanism is MechanismKind.GAUSSIAN
    return _inverse_cdf(p, mechanism, math.sqrt(noise_variance if gaussian else noise_variance / 2.0))


def _inverse_cdf(p: np.ndarray, mechanism: MechanismKind, scale) -> np.ndarray:
    """The quantile of centred noise at each ``p`` in (0, 1), in place, at
    ``scale`` (the standard deviation or the Laplace scale), which broadcasts."""
    if mechanism is MechanismKind.GAUSSIAN:
        return np.multiply(_normal_inv_cdf(p), scale, out=p)
    return _laplace_from_uniform(p, scale)


def draw_noise(
    rng: np.random.Generator,
    mechanism: MechanismKind | str | None,
    noise_variance: float,
    size: int | None = None,
) -> np.ndarray | float:
    """Centred noise with the given variance from the mechanism's distribution:
    one uniform from ``rng`` per value, mapped by :func:`truncated_noise` at mass 0.

    ``mechanism`` is a member or its value.  A ``None`` mechanism (the
    no-noise public pathway) or a zero variance yields zeros and draws
    nothing from ``rng``.
    """
    if mechanism is not None:
        mechanism = _parse_member(MechanismKind, mechanism, "mechanism")
    if noise_variance < 0.0:
        raise ValueError("noise_variance must be non-negative")
    if mechanism is None or noise_variance == 0.0:
        return 0.0 if size is None else np.zeros(size)
    noise = truncated_noise(rng.random(1 if size is None else size), mechanism, noise_variance, 0.0)
    return float(noise[0]) if size is None else noise


class ReleasedBlock(NamedTuple):
    """Releases of B sum vectors of one profile under one calibration.

    ``values`` has shape (B, 7) with columns in ``SUM_FIELDS`` order;
    ``noise_variance`` has shape (7,) and is shared by every row.  Collapsed
    duplicates mirror the column of the sum they duplicate.  ``mechanism``
    is ``None`` only for exact (no-noise) sums.
    """

    values: np.ndarray
    noise_variance: np.ndarray
    mechanism: MechanismKind | None
    per_sum_budget: PrivacyBudget | None
    profile: Profile

    @classmethod
    def exact(cls, values: np.ndarray, profile: Profile) -> "ReleasedBlock":
        """Wrap exact sums as zero-noise releases (the non-private baseline)."""
        return cls(values, np.zeros(len(SUM_FIELDS)), None, None, profile)

    def variance(self, field: str) -> float:
        return dict(zip(SUM_FIELDS, self.noise_variance.tolist()))[field]


@dataclass(frozen=True, eq=False)
class ReleasedSums:
    """One release: a view of a :class:`ReleasedBlock` of one row.

    ``values`` and ``noise_variance`` read the row as mappings over all
    seven canonical field names; collapsed duplicates mirror the single
    released entry.  ``mechanism`` is ``None`` only for the no-noise
    pathway built by :func:`exact_release`.
    """

    block: ReleasedBlock

    mechanism = property(lambda self: self.block.mechanism)
    per_sum_budget = property(lambda self: self.block.per_sum_budget)
    profile = property(lambda self: self.block.profile)
    released_fields = property(lambda self: self.block.profile.released_fields)

    @property
    def values(self) -> dict[str, float]:
        return dict(zip(SUM_FIELDS, self.block.values[0].tolist()))

    @property
    def noise_variance(self) -> dict[str, float]:
        return dict(zip(SUM_FIELDS, self.block.noise_variance.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReleasedSums):
            return NotImplemented
        return (self.values, self.noise_variance, self.mechanism, self.per_sum_budget, self.profile) == (
            other.values, other.noise_variance, other.mechanism, other.per_sum_budget, other.profile
        )

    def to_json_dict(self) -> dict:
        released, budget = self.released_fields, self.per_sum_budget
        values, variance = self.values, self.noise_variance
        return {
            "mechanism": self.mechanism.value if self.mechanism is not None else None,
            "profile": self.profile.value,
            "per_sum_budget": asdict(budget) if budget is not None else None,
            "values": {f: values[f] for f in released},
            "noise_variance": {f: variance[f] for f in released},
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "ReleasedSums":
        """A release read back from :meth:`to_json_dict`'s payload.

        It must meet what :func:`release_block` guarantees: a known profile
        and mechanism, every released value finite, every noise variance
        finite and at least 0.
        """
        profile = _parse_member(Profile, payload["profile"], "profile")
        released, columns = profile.released_fields, list(profile.columns)
        values, variance = np.zeros((1, len(SUM_FIELDS))), np.zeros(len(SUM_FIELDS))
        for key, array in (("values", values[0]), ("noise_variance", variance)):
            missing = set(released) - set(payload[key])
            if missing:
                raise InvalidConfigError(f"released {key} missing fields: {sorted(missing)}")
            array[columns] = [payload[key][f] for f in released]
            for field, x in zip(released, array[columns].tolist()):
                if not math.isfinite(x) or (key == "noise_variance" and x < 0.0):
                    need = "finite and >= 0" if key == "noise_variance" else "finite"
                    raise InvalidConfigError(f"released {key}.{field} must be {need}, got {x}")
        profile.mirror(values, variance)
        mechanism, budget = payload.get("mechanism"), payload.get("per_sum_budget")
        mechanism = _parse_member(MechanismKind, mechanism, "mechanism") if mechanism is not None else None
        budget = PrivacyBudget(**budget) if budget is not None else None
        return cls(ReleasedBlock(values, variance, mechanism, budget, profile))


def release_block(
    sums: np.ndarray,
    bounds: Bounds,
    total_budget: PrivacyBudget,
    mechanism: MechanismKind | str,
    rng: np.random.Generator,
) -> ReleasedBlock:
    """Privatize each row of a (B, 7) matrix of exact sums, all from ``rng``.

    The rows must be sums of the profile ``bounds`` declares.  Each
    distinct sum receives independent noise calibrated to its own
    sensitivity at budget (eps/k, delta/k), where k is the profile size;
    collapsed duplicates mirror the released column instead of consuming
    budget.  Row i's noise is the k uniforms at offset i k of ``rng``, in
    field order, mapped as :func:`truncated_noise` maps them at mass 0 but
    at the calibrated scales of the mechanism :func:`calibrate` parsed.
    """
    calibration = calibrate(bounds, total_budget, mechanism)
    profile = bounds.profile
    columns = list(profile.columns)

    noises = rng.random((len(sums), profile.size))
    _inverse_cdf(np.maximum(noises, _TINY, out=noises), calibration.mechanism, calibration.scales)

    values = np.array(sums, dtype=np.float64)
    values[:, columns] += noises
    noise_variance = np.zeros(len(SUM_FIELDS))
    noise_variance[columns] = calibration.variances
    profile.mirror(values, noise_variance)
    return ReleasedBlock(values, noise_variance, calibration.mechanism, calibration.per_sum_budget, profile)


def release(
    sums: SumVector,
    bounds: Bounds,
    total_budget: PrivacyBudget,
    mechanism: MechanismKind | str,
    rng: np.random.Generator,
) -> ReleasedSums:
    """Privatize the distinct sums under an even split of ``total_budget``.

    A block of one row of :func:`release_block`.
    """
    if bounds.profile is not sums.profile:
        raise InvalidConfigError(
            f"bounds declare profile {bounds.profile.value} but sums carry {sums.profile.value}"
        )
    return ReleasedSums(release_block(sums.row[None], bounds, total_budget, mechanism, rng))


def exact_release(sums: SumVector) -> ReleasedSums:
    """Wrap exact sums as a zero-noise release (the non-private baseline)."""
    return ReleasedSums(ReleasedBlock.exact(sums.row[None], sums.profile))
