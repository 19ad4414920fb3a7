"""Noise calibration and privatized release of summary sums.

The Gaussian mechanism provides (epsilon, delta)-DP, the Laplace mechanism
pure epsilon-DP.  A release splits the total budget evenly across the
distinct sums of the profile (basic composition); collapsed duplicates are
released once and mirrored, which is what makes the smaller profiles cheaper.
All randomness comes from caller-supplied numpy Generators, one per release,
so a release is fully determined by one seed.  :func:`release_block`
releases many sum vectors at once; :func:`release` is its block of one,
read through the one-row view :class:`ReleasedSums`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

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
    fields = bounds.profile.released_fields
    k = len(fields)
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


#: Smallest positive double: a uniform draw of exactly 0.0 is clamped to it.
_TINY = np.finfo(np.float64).tiny


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


def raw_draws(
    rng: np.random.Generator,
    mechanism: MechanismKind,
    size: int | None = None,
    out: np.ndarray | None = None,
):
    """The draws :func:`noise_from_raw` maps to noise: standard normals for the
    Gaussian mechanism, uniforms on [0, 1) for Laplace, in stream order.

    With ``out``, fills it in C order; filling a (2, k) array draws the
    same stream as two calls of size k.
    """
    if mechanism is MechanismKind.GAUSSIAN:
        return rng.standard_normal(size, out=out)
    return rng.random(size, out=out)


def noise_from_raw(raw: np.ndarray, mechanism: MechanismKind, noise_variance) -> np.ndarray:
    """Map :func:`raw_draws` to centred noise with ``noise_variance``, in place.

    ``noise_variance`` is a scalar or an array that broadcasts against
    ``raw``, so one call can transform draws of several variances.
    """
    if mechanism is MechanismKind.GAUSSIAN:
        raw *= np.sqrt(noise_variance)
        return raw
    return _laplace_from_uniform(raw, np.sqrt(noise_variance / 2.0))


def draw_noise(
    rng: np.random.Generator,
    mechanism: MechanismKind | str | None,
    noise_variance: float,
    size: int | None = None,
) -> np.ndarray | float:
    """Centred noise with the given variance from the mechanism's distribution.

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
    noise = noise_from_raw(np.asarray(raw_draws(rng, mechanism, size)), mechanism, noise_variance)
    return float(noise) if size is None else noise


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
        return float(self.noise_variance[SUM_FIELDS.index(field)])


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

        It must meet what :func:`release_block` guarantees: every released
        value finite, every noise variance finite and at least 0.
        """
        profile = Profile(payload["profile"])
        released = profile.released_fields
        columns = [SUM_FIELDS.index(f) for f in released]
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
        mechanism = MechanismKind(mechanism) if mechanism is not None else None
        budget = PrivacyBudget(**budget) if budget is not None else None
        return cls(ReleasedBlock(values, variance, mechanism, budget, profile))


def release_block(
    sums: np.ndarray,
    bounds: Bounds,
    total_budget: PrivacyBudget,
    mechanism: MechanismKind | str,
    rngs: Sequence[np.random.Generator],
) -> ReleasedBlock:
    """Privatize each row of a (B, 7) matrix of exact sums, row i from ``rngs[i]``.

    The rows must be sums of the profile ``bounds`` declares.  Each
    distinct sum receives independent noise calibrated to its own
    sensitivity at budget (eps/k, delta/k), where k is the profile size;
    collapsed duplicates mirror the released column instead of consuming
    budget.  Every row takes k draws from its own generator, in field order,
    from the mechanism :func:`calibrate` parsed.
    """
    calibration = calibrate(bounds, total_budget, mechanism)
    profile = bounds.profile
    fields = profile.released_fields

    noises = np.empty((len(rngs), len(fields)))
    for rng, row in zip(rngs, noises):
        raw_draws(rng, calibration.mechanism, out=row)
    if calibration.mechanism is MechanismKind.GAUSSIAN:
        noises *= calibration.scales
    else:
        _laplace_from_uniform(noises, calibration.scales)

    columns = [SUM_FIELDS.index(f) for f in fields]
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
    row = np.array([[getattr(sums, f) for f in SUM_FIELDS]])
    return ReleasedSums(release_block(row, bounds, total_budget, mechanism, [rng]))


def exact_release(sums: SumVector) -> ReleasedSums:
    """Wrap exact sums as a zero-noise release (the non-private baseline)."""
    row = np.array([[getattr(sums, f) for f in SUM_FIELDS]], dtype=np.float64)
    return ReleasedSums(ReleasedBlock.exact(row, sums.profile))
