"""Domain types and exact summary statistics.

Everything downstream (noise calibration, ratio inference, simulation) runs
on up to seven weighted sums of the raw records.  This module computes those
sums, knows their sensitivity under add/remove-one neighboring, and
provides Kish's effective sample size.  A CSV dataset is summed as it is
read, in parallel byte ranges, by exact binned summation, so its sums do not
depend on record order, block cuts or core count.  All functions here are
pure and all types immutable.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BoundsViolationError,
    DatasetFormatError,
    EmptyDatasetError,
    InvalidConfigError,
    InvalidSumsError,
)

#: Canonical field order of the seven sums.
SUM_FIELDS = ("sum_w", "sum_wy", "sum_ws", "sum_w2", "sum_wy2", "sum_ws2", "sum_wys")

# Relative slack for the Cauchy-Schwarz sanity check on exact sums.
_CS_SLACK = 1e-12


def _parse_member(kind: type[Enum], value, name: str):
    """The member of ``kind`` that ``value`` is or names, else an InvalidConfigError naming ``name``."""
    try:
        return kind(value)
    except (ValueError, TypeError):
        choices = ", ".join(repr(member.value) for member in kind)
        raise InvalidConfigError(f"{name} must be one of {choices}, got {value!r}") from None


def _check_count(name: str, value: int, low: int) -> None:
    """``value`` lies between ``low`` and the largest count whose three float64
    arrays numpy can size; past it, numpy refuses the shape with a ValueError."""
    if value < low:
        raise InvalidConfigError(f"{name} must be at least {low}, got {value}")
    high = np.iinfo(np.intp).max // 24
    if value > high:
        raise InvalidConfigError(f"{name} must be at most {high}, the most numpy can size, got {value}")


class Profile(str, Enum):
    """Which of the seven sums are distinct (and hence released separately).

    Binary labels make ``sum_wy2`` redundant with ``sum_wy``; unit weights
    additionally make ``sum_w2`` redundant with ``sum_w``.  The profile
    follows from the public :class:`Bounds`, never from the data, because
    the number of released sums is public metadata.
    """

    FULL7 = "full7"
    BINARY6 = "binary6"
    UNWEIGHTED5 = "unweighted5"

    @property
    def released_fields(self) -> tuple[str, ...]:
        """Names of the sums that carry independent noise on release."""
        dropped = self.aliases
        return tuple(f for f in SUM_FIELDS if f not in dropped)

    @property
    def aliases(self) -> dict[str, str]:
        """Collapsed sums, mapped to the released sum they duplicate."""
        if self is Profile.BINARY6:
            return {"sum_wy2": "sum_wy"}
        if self is Profile.UNWEIGHTED5:
            return {"sum_wy2": "sum_wy", "sum_w2": "sum_w"}
        return {}

    @property
    def size(self) -> int:
        return len(self.released_fields)

    def mirror(self, *arrays: np.ndarray) -> None:
        """Copy each released sum into the collapsed sums that duplicate it,
        in place, along the last axis (``SUM_FIELDS`` order) of every array."""
        for alias, source in self.aliases.items():
            for array in arrays:
                array[..., SUM_FIELDS.index(alias)] = array[..., SUM_FIELDS.index(source)]


@dataclass(frozen=True)
class Bounds:
    """Public bounds on label, score, and weight, which fix the release profile.

    ``binary_y`` asserts y is 0/1 (forcing unit bounds on y and s) and is
    checked against the data when sums are computed.  With weight bounds
    (1, 1) every accepted weight is one, so ``sum_w2`` equals ``sum_w``.
    """

    y_low: float = 0.0
    y_high: float = 1.0
    s_low: float = 0.0
    s_high: float = 1.0
    w_low: float = 1.0
    w_high: float = 1.0
    binary_y: bool = False

    def __post_init__(self) -> None:
        values = (self.y_low, self.y_high, self.s_low, self.s_high, self.w_low, self.w_high)
        if not all(math.isfinite(v) for v in values):
            raise InvalidConfigError("bounds must be finite")
        if not (0.0 <= self.y_low <= self.y_high):
            raise InvalidConfigError("label bounds require 0 <= y_low <= y_high")
        if not (0.0 <= self.s_low <= self.s_high):
            raise InvalidConfigError("score bounds require 0 <= s_low <= s_high")
        if not (0.0 < self.w_low <= self.w_high):
            raise InvalidConfigError("weight bounds require 0 < w_low <= w_high")
        if self.binary_y and ((self.y_low, self.y_high) != (0.0, 1.0) or (self.s_low, self.s_high) != (0.0, 1.0)):
            raise InvalidConfigError("binary_y requires y and s bounds of (0, 1)")

    @classmethod
    def binary(cls, w_low: float = 1.0, w_high: float = 1.0) -> "Bounds":
        """Bounds for a binary classification dataset with bounded weights."""
        return cls(0.0, 1.0, 0.0, 1.0, w_low, w_high, binary_y=True)

    @classmethod
    def binary_unweighted(cls) -> "Bounds":
        """Bounds for binary classification data with all weights equal to one."""
        return cls.binary()

    @property
    def profile(self) -> Profile:
        if not self.binary_y:
            return Profile.FULL7
        if (self.w_low, self.w_high) == (1.0, 1.0):
            return Profile.UNWEIGHTED5
        return Profile.BINARY6


@dataclass(frozen=True)
class Record:
    """One observation: label y, model score s, sampling weight w."""

    y: float
    s: float
    w: float = 1.0


@dataclass(frozen=True)
class Moments:
    """Plug-in means, variances of the means, and their covariance.

    ``flags`` records floored negative variance plug-ins and covariance
    values outside the Cauchy-Schwarz envelope, both of which can occur when
    the moments are computed from noisy sums.
    """

    mu_s: float
    mu_y: float
    var_s_bar: float
    var_y_bar: float
    cov_ys_bar: float
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.var_s_bar < 0.0 or self.var_y_bar < 0.0:
            raise InvalidSumsError("moment variances must be floored at zero before construction")


@dataclass(frozen=True)
class SumVector:
    """The exact (non-private) summary sums of one dataset."""

    sum_w: float
    sum_wy: float
    sum_ws: float
    sum_w2: float
    sum_wy2: float
    sum_ws2: float
    sum_wys: float
    profile: Profile

    def __post_init__(self) -> None:
        _check_sum_rows(np.array([getattr(self, f) for f in SUM_FIELDS]), self.profile)

    def as_dict(self) -> dict[str, float]:
        return {f: getattr(self, f) for f in SUM_FIELDS}

    def __add__(self, other: "SumVector") -> "SumVector":
        """Elementwise sum; sums of disjoint datasets aggregate this way."""
        if not isinstance(other, SumVector):
            return NotImplemented
        if other.profile is not self.profile:
            raise InvalidSumsError("cannot add sums with different profiles")
        merged = {f: getattr(self, f) + getattr(other, f) for f in SUM_FIELDS}
        return SumVector(profile=self.profile, **merged)


def weighted_sums(y: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The seven sums (w, wy, ws, w^2, wy^2, ws^2, wys), in ``SUM_FIELDS`` order.

    Sums over the last axis, so (n,) arrays give (7,) sums and (rows, n)
    arrays, one dataset per row, give (rows, 7); on C-contiguous rows each
    row's sums equal those of the row on its own, bit for bit.
    Bounds keep every summand non-negative, so each sum has condition
    number 1 and numpy's pairwise summation bounds its relative error by
    O(log n) units in the last place (Higham 1993).  That keeps any
    reordering of the records far inside the 1e-12 relative contract.

    This is the one deliberate second summation path: ``simulate`` and
    :func:`compute_sums_from_arrays` sum here, on records whose order is
    fixed, while :func:`sum_dataset_csv` folds the same :func:`_summands`
    into exactly rounded, order-free :class:`_BinnedSums`.
    """
    totals = np.empty(y.shape[:-1] + (len(SUM_FIELDS),))
    summands = _summands(y, s, w)
    # Each summand is reduced as soon as it is made, so one at most is alive:
    # stacking them first costs an n-by-7 copy, and a loop variable would
    # keep the last summand alive while the next is made.
    for i in range(len(SUM_FIELDS)):
        np.add.reduce(next(summands), axis=-1, out=totals[..., i])
    return totals


def _summands(y, s, w):
    """Yield the summands of the seven sums, w, wy, ws, w^2, wy^2, ws^2 and wys, in that order.

    The one statement of what the sums add: :func:`weighted_sums` reduces
    each summand of arrays of any leading shape as it is made,
    :class:`_BinnedSums` folds a block's, and :func:`_summand_bounds` takes
    them at the upper bounds, plain floats, as the sensitivities.
    """
    wy = w * y
    ws = w * s
    yield w
    yield wy
    yield ws
    yield w * w
    yield wy * y
    yield ws * s
    yield wy * s


def _check_records(y: np.ndarray, s: np.ndarray, w: np.ndarray, bounds: Bounds, first: int) -> None:
    """Every value within ``bounds`` and, for binary labels, every label 0 or 1.

    The arrays hold one dataset, whose records are numbered from ``first``.
    The error names the first offending record, and of that record the
    first failing check: its label, score and weight against their bounds,
    then its label for binariness.  NaN compares false, so it is always out
    of bounds.
    """
    columns = (("y", y, bounds.y_low, bounds.y_high), ("s", s, bounds.s_low, bounds.s_high),
               ("w", w, bounds.w_low, bounds.w_high))
    # The fast path: two reductions per column (NaN fails both), and with
    # labels in [0, 1] every nonzero label is 1 exactly when they count alike.
    if all(values.min() >= low and values.max() <= high for _, values, low, high in columns) and (
        not bounds.binary_y or np.count_nonzero(y) == np.count_nonzero(y == 1.0)
    ):
        return
    ok = [(values >= low) & (values <= high) for _, values, low, high in columns]
    if bounds.binary_y:
        ok.append((y == 0.0) | (y == 1.0))
    at = int(np.argmin(np.logical_and.reduce(ok)))
    idx = first + at
    for (name, values, low, high), mask in zip(columns, ok):
        if not mask[at]:
            raise BoundsViolationError(
                f"record {idx}: {name}={float(values[at])} outside [{low}, {high}]", index=idx
            )
    raise BoundsViolationError(f"record {idx}: y={float(y[at])} not in {{0, 1}}", index=idx)


def _check_sum_rows(totals: np.ndarray, profile: Profile) -> None:
    """The invariants of exact sums, for (7,) or (rows, 7) ``SUM_FIELDS`` rows."""
    if not np.isfinite(totals).all():
        raise InvalidSumsError("sums must be finite")
    column = {f: totals[..., i] for i, f in enumerate(SUM_FIELDS)}
    if not (column["sum_w"] > 0.0).all():
        raise InvalidSumsError("sum_w must be positive for non-empty data")
    for alias, source in profile.aliases.items():
        if not (column[alias] == column[source]).all():
            raise InvalidSumsError(f"profile {profile.value} requires {alias} == {source}")
    with np.errstate(over="ignore"):
        cs_bound = column["sum_wy2"] * column["sum_ws2"]
        if (column["sum_wys"] * column["sum_wys"] > cs_bound * (1.0 + _CS_SLACK) + _CS_SLACK).any():
            raise InvalidSumsError("sum_wys^2 exceeds sum_wy2 * sum_ws2")


def compute_sums_from_arrays(
    y: np.ndarray, s: np.ndarray, w: np.ndarray, bounds: Bounds
) -> SumVector:
    """Exact summary sums from parallel label/score/weight arrays.

    Validates every value against ``bounds`` (out-of-bounds records are
    errors, never clipped) and collapses duplicate sums according to the
    declared profile.  The result does not depend on record order beyond
    1e-12 relative (see :func:`weighted_sums`).
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    s = np.ascontiguousarray(s, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if y.ndim != 1 or s.shape != y.shape or w.shape != y.shape:
        raise InvalidConfigError("y, s, w must be one-dimensional arrays of equal length")
    if y.size == 0:
        raise EmptyDatasetError("dataset has no records")
    _check_records(y, s, w, bounds, 0)
    totals = weighted_sums(y, s, w)
    bounds.profile.mirror(totals)
    return SumVector(profile=bounds.profile, **dict(zip(SUM_FIELDS, totals.tolist())))


def compute_sums(records: Sequence[Record], bounds: Bounds) -> SumVector:
    """Exact summary sums of a sequence of :class:`Record`."""
    n = len(records)
    if n == 0:
        raise EmptyDatasetError("dataset has no records")
    y = np.fromiter((r.y for r in records), dtype=np.float64, count=n)
    s = np.fromiter((r.s for r in records), dtype=np.float64, count=n)
    w = np.fromiter((r.w for r in records), dtype=np.float64, count=n)
    return compute_sums_from_arrays(y, s, w, bounds)


def _summand_bounds(bounds: Bounds) -> dict[str, float]:
    """The largest summand of each of the seven sums, in ``SUM_FIELDS`` order.

    Each is the summand :func:`_summands` makes at the upper bounds; bounds
    keep every factor non-negative and rounding is monotone, so no summand
    of records within ``bounds`` exceeds it.
    """
    return dict(zip(SUM_FIELDS, _summands(bounds.y_high, bounds.s_high, bounds.w_high)))


def sensitivity_per_sum(bounds: Bounds) -> dict[str, float]:
    """Add/remove-one sensitivity of each released sum.

    Adding or removing one record changes each sum by at most its summand
    evaluated at the upper bounds (:func:`_summand_bounds`).  Returns one
    entry per released sum of the bounds' profile, in canonical field order.
    """
    full = _summand_bounds(bounds)
    return {name: full[name] for name in bounds.profile.released_fields}


def kish_effective_n(sums: SumVector) -> float:
    """Kish's effective sample size, (sum w)^2 / sum w^2."""
    return float(kish_rows(np.array([getattr(sums, f) for f in SUM_FIELDS])))


def kish_rows(totals: np.ndarray) -> np.ndarray:
    """:func:`kish_effective_n` of (7,) or (rows, 7) ``SUM_FIELDS`` rows."""
    sum_w, sum_w2 = totals[..., SUM_FIELDS.index("sum_w")], totals[..., SUM_FIELDS.index("sum_w2")]
    if not (sum_w2 > 0.0).all():
        raise InvalidSumsError("sum_w2 must be positive")
    with np.errstate(over="ignore"):
        return sum_w * sum_w / sum_w2


def _usable_cores() -> int:
    """CPUs this process may run on, which pinning can make fewer than the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _BinnedSums:
    """Running sums of the seven :func:`_summands`, exact whatever the order of the records.

    Pre-rounded ("binned") summation (Demmel & Nguyen, "Fast Reproducible
    Floating-Point Summation", ARITH 2013; Rump, Ogita & Oishi, "Accurate
    Floating-Point Summation, Part I", SIAM J. Sci. Comput. 2008).  At most
    ``records`` summands are added to each sum, each at most that sum's
    bound M (:func:`_summand_bounds`; the records are checked first).
    Fold j of a sum rounds what is left of each summand x to
    q = (x + σ) − σ, where σ is a power of two at least 2·records times the
    largest value left: 2·records·M for the first fold, the largest
    remainder of the last fold after it.  Then q and the remainder x − q
    are exact, and every partial sum of the q is too, so a fold's total is
    the same in any order, under any block cuts and across processes.  A
    block folds until its remainders are all 0; each sum is then the
    ``math.fsum`` of its fold totals, the correctly rounded exact sum.
    """

    def __init__(self, bounds: Bounds, records: int) -> None:
        reach = records.bit_length() + 1  # 2**reach >= 2 * records
        exponents = []
        for field, bound in _summand_bounds(bounds).items():
            # bound < 2**exponent, so the first sigma, 2**(exponent + reach), exceeds 2 * records * bound.
            exponent = math.frexp(bound)[1] + reach
            if not math.isfinite(bound) or exponent > 1023:
                raise InvalidConfigError(
                    f"bounds allow {field} summands up to {bound!r}: a sum over up to {records} records "
                    "can overflow a double"
                )
            exponents.append(exponent)
        self._first = np.array(exponents)
        self._step = 53 - reach  # fold j + 1 starts where the remainders of fold j can reach
        self.folds: list[np.ndarray] = []

    def _fold(self, j: int) -> np.ndarray:
        """The (7,) running totals of fold ``j``, added as the folds are reached."""
        while len(self.folds) <= j:
            self.folds.append(np.zeros(len(SUM_FIELDS)))
        return self.folds[j]

    def add(self, y: np.ndarray, s: np.ndarray, w: np.ndarray) -> None:
        """Fold the :func:`_summands` of one block of records, stacked (7, n)."""
        x = np.array(list(_summands(y, s, w)))
        q = np.empty_like(x)
        j = 0
        while x.any():
            sigma = np.ldexp(1.0, self._first - j * self._step)[:, None]
            np.add(x, sigma, out=q)
            q -= sigma
            x -= q
            totals = self._fold(j)
            totals += np.add.reduce(q, axis=1)
            j += 1

    def merge(self, other: "_BinnedSums") -> None:
        """Add the fold totals of records summed elsewhere, exactly."""
        for j, totals in enumerate(other.folds):
            mine = self._fold(j)
            mine += totals

    def sums(self) -> np.ndarray:
        """The seven sums, each correctly rounded, in ``SUM_FIELDS`` order."""
        return np.array([math.fsum(totals[i] for totals in self.folds) for i in range(len(SUM_FIELDS))])


class _RangeSums(NamedTuple):
    """What folding the records of one byte range found.

    ``violation`` is the index in the range and the (y, s, w) values of its
    first out-of-bounds record, after which nothing more is folded.
    """

    rows: int
    binned: _BinnedSums
    violation: tuple[int, float, float, float] | None


# Body bytes per block of the plain reader; each block is cut after its last
# newline, so it holds whole lines.  A block's transients are its bytes, a
# copy without ``.+-eE``, the int64 offsets of its non-digit bytes, and a few
# field-sized arrays: offsets, digit counts, three uint64 words and a
# longdouble quotient per field (no str, no StringIO).  At 64 KiB a block of
# lines like ``1,0.9123456789012345,1.234567890123456`` has about 5,000
# fields, and each transient stays under the 128 KiB at which the allocator
# maps fresh pages for it; larger blocks paid those page faults on every
# temporary and raised the peak.
_BLOCK_BYTES = 1 << 16

# Body bytes per byte range: a file of at least two ranges is summed by one
# process per usable core, the parent folding the first range.
_RANGE_BYTES = 1 << 22

# What a plain block's non-digit bytes may be.  Spaces, quotes, carriage
# returns, underscores and letters such as those of ``nan`` go to the strict
# parser.
_NEWLINE, _COMMA, _DOT, _PLUS, _MINUS, _EXPONENT = 1, 2, 3, 4, 5, 6
_BYTE_KINDS = np.zeros(256, dtype=np.uint8)
_BYTE_KINDS[list(b"\n,.+-eE")] = [_NEWLINE, _COMMA, _DOT, _PLUS, _MINUS, _EXPONENT, _EXPONENT]

# The decimal reader: x87 extended precision (a 64-bit significand, stored
# in 16 bytes, as on x86-64), the powers of ten it and a double hold
# exactly, and the constants of the eight-digit step.
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_EXTENDED_POWERS = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))
_POWERS = 10.0 ** np.arange(23)
_WINDOW_PAD = b"0" * 24  # the window of a field near the block start
# Row s clears the first s bytes of a 24-byte window, and its last word the
# first s - 16 bytes of an 8-byte one.
_WINDOW_MASKS = np.frombuffer(b"".join(bytes(s) + b"\xff" * (24 - s) for s in range(25)), dtype=np.uint64)
_WINDOW_MASKS = _WINDOW_MASKS.reshape(25, 3)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_EVERY_FOURTH_BYTE = np.uint64(0x000000FF000000FF)
_WEIGHTS_OF_BYTES_0_4 = np.uint64(100 + (10**6 << 32))
_WEIGHTS_OF_BYTES_2_6 = np.uint64(1 + (10**4 << 32))

_Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


class _NotPlain(Exception):
    """The plain reader cannot vouch for a file, which the strict parser then reads whole."""


def read_dataset_csv(path: str | Path) -> _Columns:
    """Read a ``y,s,w`` CSV (the ``w`` column is optional) into arrays.

    Values must parse as finite decimal reals; a missing weight column means
    unit weights.  Raises :class:`DatasetFormatError` naming the offending
    physical line on any malformed content, including bytes that are not
    UTF-8 and fields the csv module refuses.

    Files of plain numeric lines are parsed a block at a time by
    :func:`_parse_plain_block`; at any other file, valid or not, the plain
    reader raises :class:`_NotPlain` and the strict csv parser reads the
    file again from the start: it alone decides what else is accepted and
    how errors read.  Both yield the blocks that :func:`sum_dataset_csv` folds.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            width = _plain_header_width(fh.readline())
            body, size = fh.tell(), os.fstat(fh.fileno()).st_size
        return _join(list(_plain_blocks(path, width, body, size)))
    except _NotPlain:
        return _read_strict(path)


def sum_dataset_csv(path: str | Path, bounds: Bounds) -> SumVector:
    """The sums of a ``y,s[,w]`` CSV, read as :func:`read_dataset_csv` reads it.

    The columns are never held: each block of records is checked against
    ``bounds`` and folded into :class:`_BinnedSums`, so every sum is
    correctly rounded, equal to ``math.fsum`` of its summands whatever the
    record order, block size or number of processes.  A plain file's body is
    cut at line starts into one byte range per usable core, at most one per
    ``_RANGE_BYTES``; the parent folds the first while a process pool folds
    the rest.  A :class:`_NotPlain` from the header or any range sends the
    whole file to the strict parser, in this process.

    Errors are those of reading, then summing, the whole file: a format
    error anywhere wins over any bounds violation, the first out-of-bounds
    record in file order is named by its 0-based index, and a file without
    records raises :class:`EmptyDatasetError`.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.readline()
        body, size = fh.tell(), os.fstat(fh.fileno()).st_size
        # Every record takes at least 3 bytes ("y,s") plus a newline before the next.
        records = size // 3 + 1
        total = _BinnedSums(bounds, records)
        count = max(1, min(_usable_cores(), (size - body) // _RANGE_BYTES))
        try:
            width = _plain_header_width(header)
            parts = _fold_ranges(path, width, bounds, records, _range_cuts(fh, body, size, count))
        except _NotPlain:
            parts = [_fold_blocks(_strict_blocks(path), bounds, records)]
    rows = 0
    for part in parts:
        if part.violation is not None:
            # The range's first out-of-bounds record, checked again under its index in the file.
            index, *record = part.violation
            _check_records(*(np.array([v]) for v in record), bounds, rows + index)
        rows += part.rows
        total.merge(part.binned)
    if rows == 0:
        raise EmptyDatasetError("dataset has no records")
    if rows > records:
        raise DatasetFormatError(f"{path} grew while it was read")
    sums = total.sums()
    bounds.profile.mirror(sums)
    return SumVector(profile=bounds.profile, **dict(zip(SUM_FIELDS, sums.tolist())))


def _range_cuts(fh, start: int, stop: int, count: int) -> list[int]:
    """``count + 1`` offsets from ``start`` to ``stop`` that cut the lines
    between them into ``count`` ranges of about equal size.

    Each inner cut is the start of the line that holds the byte before its
    even share.  A line longer than the csv field size limit, which no
    plain line is, raises :class:`_NotPlain`.
    """
    limit = csv.field_size_limit()
    cuts = [start]
    for i in range(1, count):
        fh.seek(start + (stop - start) * i // count - 1)
        line = fh.readline(limit + 1)
        if len(line) > limit:
            raise _NotPlain
        cuts.append(min(fh.tell(), stop))
    return cuts + [stop]


def _fold_ranges(
    path: Path, width: int, bounds: Bounds, records: int, cuts: list[int]
) -> list[_RangeSums]:
    """:func:`_fold_range` of each range between ``cuts``, in file order."""
    fold = partial(_fold_range, path, width, bounds, records)
    if len(cuts) == 2:
        return [fold(*cuts)]
    with ProcessPoolExecutor(max_workers=len(cuts) - 2) as pool:
        rest = pool.map(fold, cuts[1:-1], cuts[2:])
        return [fold(cuts[0], cuts[1]), *rest]


def _fold_range(
    path: Path, width: int, bounds: Bounds, records: int, start: int, stop: int
) -> _RangeSums:
    """The folded plain lines in bytes ``start`` to ``stop``."""
    return _fold_blocks(_plain_blocks(path, width, start, stop), bounds, records)


def _fold_blocks(blocks: Iterable[_Columns], bounds: Bounds, records: int) -> _RangeSums:
    """Check and fold each block until the first out-of-bounds record, then
    only read on, since a later format error wins."""
    binned = _BinnedSums(bounds, records)
    rows, violation = 0, None
    for columns in blocks:
        if violation is None:
            try:
                _check_records(*columns, bounds, 0)
            except BoundsViolationError as exc:
                violation = (rows + exc.index, *(float(c[exc.index]) for c in columns))
            else:
                binned.add(*columns)
        rows += len(columns[0])
    return _RangeSums(rows, binned, violation)


def _join(blocks: list[_Columns]) -> _Columns:
    """One column of each kind from a list of blocks of columns."""
    if not blocks:
        return np.empty(0), np.empty(0), np.empty(0)
    y, s, w = (np.concatenate(column) for column in zip(*blocks))
    return y, s, w


def _plain_blocks(path: Path, width: int, start: int, stop: int) -> Iterable[_Columns]:
    """The (y, s, w) columns of the lines in bytes ``start`` to ``stop``, a block at a time.

    ``start`` is a line start and ``stop`` a line start or the end of the
    file.  Raises :class:`_NotPlain` at the first block the plain reader
    cannot vouch for: a quoted newline can straddle a block cut, so such a
    block sends the whole file, not just that block, to the strict parser.
    """
    limit = csv.field_size_limit()
    with path.open("rb") as fh:
        fh.seek(start)
        left, tail = stop - start, b""
        while True:
            chunk = fh.read(min(_BLOCK_BYTES, left))
            left -= len(chunk)
            data = tail + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            block, tail = data[:cut], data[cut:]
            if len(tail) > limit:
                raise _NotPlain
            if block:
                values = _parse_plain_block(block, width, limit)
                y, s, *rest = values.T
                yield y, s, rest[0] if rest else np.ones(len(values))
            if not chunk:
                return


def _plain_header_width(line: bytes) -> int:
    """:func:`_header_width` of a header line without quotes or carriage returns.

    Those two can make a csv record span physical lines; without them the
    csv module splits this one line as it would split the whole file's
    first record.  :class:`_NotPlain` where the strict parser must judge it.
    """
    if b'"' in line or b"\r" in line:
        raise _NotPlain
    try:
        return _header_width(next(csv.reader([line.decode("utf-8")])))
    except (UnicodeDecodeError, csv.Error, DatasetFormatError):
        raise _NotPlain from None


def _parse_plain_block(block: bytes, width: int, limit: int) -> np.ndarray:
    """The ``(lines, width)`` values of one block.

    Every value has the bits ``float()`` gives its field: most fields are
    read by :func:`_decimal_values`, the rest by ``float()`` itself.  Raises
    :class:`_NotPlain` at what the strict parser must judge: a byte outside
    ``0-9 . , + - e E`` and newline, a blank line, a line of another width
    or longer than the csv field size limit, and a field that ``float()``
    rejects or reads as inf.
    """
    codes = np.frombuffer(block, dtype=np.uint8)
    odd = np.flatnonzero(codes - np.uint8(ord("0")) > 9)
    kinds = _BYTE_KINDS.take(codes[odd])
    if not kinds.all():
        raise _NotPlain
    if not block.endswith(b"\n"):
        odd = np.append(odd, len(block))
        kinds = np.append(kinds, np.uint8(_NEWLINE))
    # Every field ends at a separator: each line's last at a newline, the
    # others at commas.  A blank line is a line of one field.  The last
    # separator is a newline, so a count of fields that ``width`` does not
    # divide leaves one newline more than there are line ends.
    is_sep = kinds <= _COMMA
    at_sep = np.flatnonzero(is_sep)
    fields = at_sep.size
    line_ends = at_sep[width - 1 :: width]
    if not (kinds[line_ends] == _NEWLINE).all() or np.count_nonzero(kinds == _NEWLINE) != line_ends.size:
        raise _NotPlain
    seps = odd[at_sep]
    # No line is longer than its block.
    if len(block) > limit and np.diff(odd[line_ends], prepend=-1).max() > limit + 1:
        raise _NotPlain

    # Each field's dot, sign or exponent ("mark"), and the field it lies in.
    # Once the marks are deleted, the byte at block offset p lies at p less
    # the count of marks before it, so mark m stood at ``marks[m] - m``.
    at_mark = np.flatnonzero(~is_sep)
    marks, mark_kinds = odd[at_mark], kinds[at_mark]
    mark_fields = at_mark - np.arange(at_mark.size)
    # The field ends once the marks are deleted, and the digits of each field.
    ends = seps - at_sep
    ends += np.arange(fields)
    digits = np.diff(ends, prepend=-1)
    digits -= 1
    stripped = block.translate(None, b".+-eE")
    scale = np.zeros(fields, dtype=np.intp)
    rejected, negative = [], None
    dots = mark_kinds == _DOT
    at_other = np.flatnonzero(~dots)
    if at_other.size:
        # Signs and exponents.  A sign is read here at the start of its field
        # or right after an exponent mark.
        fields_of, kinds_of, at = mark_fields[at_other], mark_kinds[at_other], marks[at_other]
        is_exponent = kinds_of == _EXPONENT
        leading = at == np.where(fields_of > 0, seps[fields_of - 1] + 1, 0)
        read = _BYTE_KINDS[codes[at - 1]] == _EXPONENT
        read |= leading
        read |= is_exponent
        rejected.append(fields_of[~read])
        negative = fields_of[leading & (kinds_of == _MINUS)]
        if is_exponent.any():
            # The field's stripped bytes after its exponent mark are the
            # exponent's digits: at most 8 are read here, and the integer
            # they write comes off the scale.
            exponent_fields, exponent_marks = fields_of[is_exponent], at_other[is_exponent]
            exponent_at = marks[exponent_marks]
            exponent_digits = ends[exponent_fields] - exponent_at
            exponent_digits += exponent_marks
            exponents = _digit_words(stripped, ends[exponent_fields], exponent_digits, 8).ravel().astype(np.intp)
            exponents[codes.take(exponent_at + 1, mode="clip") == ord("-")] *= -1
            rejected += [
                exponent_fields[1:][exponent_fields[1:] == exponent_fields[:-1]],
                exponent_fields[(exponent_digits < 1) | (exponent_digits > 8)],
            ]
            ends[exponent_fields] -= exponent_digits
            digits[exponent_fields] -= exponent_digits
            scale[exponent_fields] -= exponents
    # Each dot adds to the scale the digits between it and the mantissa's
    # end; a count below 0 is a dot after the exponent mark.
    at_dot = np.flatnonzero(dots)
    dot_fields = mark_fields[at_dot]
    fraction_digits = ends[dot_fields] - marks[at_dot]
    fraction_digits += at_dot
    scale[dot_fields] += fraction_digits
    rejected += [dot_fields[1:][dot_fields[1:] == dot_fields[:-1]], dot_fields[fraction_digits < 0]]
    values, inexact = _decimal_values(stripped, ends, digits, scale)
    for i in rejected:
        inexact[i] = True
    if negative is not None:
        values[negative] *= -1.0

    for i in np.flatnonzero(inexact).tolist():
        start = int(seps[i - 1]) + 1 if i else 0
        try:
            value = float(block[start : seps[i]])
        except ValueError:
            raise _NotPlain from None
        if not math.isfinite(value):
            raise _NotPlain
        values[i] = value
    return values.reshape(-1, width)


def _decimal_values(stripped: bytes, ends: np.ndarray, digits: np.ndarray, scale: np.ndarray):
    """The doubles of decimal fields, and a mask of those it cannot vouch for.

    Field i is the ``digits[i]`` bytes of ``stripped`` before ``ends[i]``,
    read by :func:`_digit_words` as an integer D, over 10**``scale[i]``.
    D < 2**64 and 10**k for k <= 27 are exact in x87 extended precision, so
    one extended division (or, for a negative scale, multiplication) rounds
    D / 10**k once; rounding that to a double rounds twice, which can differ
    from rounding once only when the extended result lies on the midpoint
    between two doubles (Clinger, "How to Read Floating Point Numbers
    Accurately", PLDI 1990).  Without extended precision only D <= 2**53
    and |k| <= 22, exact in a double, are read here.  The mask holds fields
    of 0 or more than 24 digits, D that may not fit 64 bits, |k| beyond
    those bounds, and those two cases; their values are left undefined.
    """
    high, middle, low = _digit_words(stripped, ends, digits, 24).T
    inexact = high > np.uint64(1843)  # D >= 1844 * 10**16 may not fit 64 bits
    mantissa = high * np.uint64(10**16)
    middle *= np.uint64(10**8)
    mantissa += middle
    mantissa += low
    inexact |= digits < 1
    inexact |= digits > 24
    bound = 27 if _EXTENDED else 22
    powers = np.abs(scale)
    inexact |= powers > bound
    np.minimum(powers, bound, out=powers)
    scaled_up = np.flatnonzero(scale < 0)
    if _EXTENDED:
        quotient = mantissa.astype(np.longdouble)
        quotient /= _EXTENDED_POWERS[powers]
        quotient[scaled_up] = mantissa[scaled_up] * _EXTENDED_POWERS[powers[scaled_up]]
        # The low 11 of the 64 significand bits are what rounding to a double drops.
        inexact |= quotient.view(np.uint64)[::2] & np.uint64(0x7FF) == np.uint64(0x400)
        return quotient.astype(np.float64), inexact
    inexact |= mantissa > np.uint64(1 << 53)
    values = mantissa.astype(np.float64)
    values /= _POWERS[powers]
    values[scaled_up] = mantissa[scaled_up] * _POWERS[powers[scaled_up]]
    return values, inexact


def _digit_words(stripped: bytes, ends: np.ndarray, digits: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` (8 or 24) bytes of ``stripped`` before each of ``ends``
    as ``size // 8`` words, each the integer its eight digits write, where
    the bytes before the last ``digits[i]`` count as zeros.

    The words are read little-endian, the bytes before the field's digits
    are masked off, and each word's eight digits become one integer in a
    few multiply-shift steps (Lemire, "Number Parsing at a Gigabyte per
    Second", Softw. Pract. Exp. 2021).
    """
    padded = _WINDOW_PAD + stripped
    windows = np.ndarray((len(stripped) + 1,), dtype=f"V{size}", buffer=padded, offset=24 - size, strides=(1,))
    words = windows[ends].view(np.uint64).reshape(len(ends), size // 8)
    words ^= _ASCII_ZEROS  # digits to 0-9; a subtraction would borrow across bytes
    words &= _WINDOW_MASKS[:, 3 - size // 8 :].take(24 - np.minimum(digits, size), axis=0)
    pairs = words >> np.uint64(8)
    words *= np.uint64(10)
    words += pairs  # byte i: the two-digit number of digits i and i + 1
    np.right_shift(words, np.uint64(16), out=pairs)
    pairs &= _EVERY_FOURTH_BYTE
    pairs *= _WEIGHTS_OF_BYTES_2_6
    words &= _EVERY_FOURTH_BYTE
    words *= _WEIGHTS_OF_BYTES_0_4
    words += pairs
    words >>= np.uint64(32)  # each word's eight digits as one integer
    return words


def _read_strict(path: Path) -> _Columns:
    """:func:`read_dataset_csv` by the csv module, one ``float()`` per field."""
    return _join(list(_strict_blocks(path)))


def _strict_blocks(path: Path) -> Iterable[_Columns]:
    """The (y, s, w) columns of the records the csv module reads, a block at a time."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield from _parse_rows(reader)
        except csv.Error as exc:
            raise DatasetFormatError(f"line {reader.line_num}: {exc}", line=reader.line_num) from None
        except UnicodeDecodeError:
            # The text layer decodes ahead of the reader, so reader.line_num lags.
            line = _first_non_utf8_line(path)
            raise DatasetFormatError(f"line {line}: not valid UTF-8", line=line) from None


def _header_width(header: list[str]) -> int:
    """Number of columns a header row names: 3 for ``y,s,w``, 2 for ``y,s``."""
    names = [h.strip() for h in header]
    if names == ["y", "s", "w"]:
        return 3
    if names == ["y", "s"]:
        return 2
    raise DatasetFormatError(f"expected header 'y,s,w' or 'y,s', got {names!r}", line=1)


def _parse_rows(reader) -> Iterable[_Columns]:
    """The header check and the row parsing of :func:`_strict_blocks`.

    Blocks hold about as many records as a plain block.  ``reader.line_num``
    counts physical lines, so a record holding a quoted newline moves every
    later line number on by one.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("missing header row", line=1) from None
    width = _header_width(header)

    rows: list[list[float]] = []
    for row in reader:
        lineno = reader.line_num
        if len(row) != width:
            raise DatasetFormatError(
                f"line {lineno}: expected {width} fields, got {len(row)}", line=lineno
            )
        try:
            parsed = [float(tok) for tok in row]
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: non-numeric value in {row!r}", line=lineno) from None
        if not all(math.isfinite(v) for v in parsed):
            raise DatasetFormatError(f"line {lineno}: non-finite value in {row!r}", line=lineno)
        rows.append(parsed if width == 3 else parsed + [1.0])
        if len(rows) * 32 >= _BLOCK_BYTES:
            yield _strict_columns(rows)
            rows = []
    if rows:
        yield _strict_columns(rows)


def _strict_columns(rows: list[list[float]]) -> _Columns:
    y, s, w = np.array(rows, dtype=np.float64).T
    return y, s, w


def _first_non_utf8_line(path: Path) -> int | None:
    """Number of the first line of ``path`` that does not decode as UTF-8.

    A newline byte never occurs inside a multi-byte UTF-8 sequence, so each
    line decodes on its own.
    """
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None
