"""Domain types and exact summary statistics.

Everything downstream (noise calibration, ratio inference, simulation) runs
on up to seven weighted sums of the raw records.  This module computes those
sums exactly, knows their sensitivity under add/remove-one neighboring, and
provides Kish's effective sample size.  All functions here are pure and all
types immutable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

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
    Columns are summed one at a time: stacking them first costs an extra
    n-by-7 copy.
    """
    totals = np.empty(y.shape[:-1] + (len(SUM_FIELDS),))
    wy = w * y
    ws = w * s
    # Each product is summed as soon as it is made, so one at most is alive.
    for i, product in enumerate((w, wy, ws)):
        np.add.reduce(product, axis=-1, out=totals[..., i])
    np.add.reduce(w * w, axis=-1, out=totals[..., 3])
    np.add.reduce(wy * y, axis=-1, out=totals[..., 4])
    np.add.reduce(ws * s, axis=-1, out=totals[..., 5])
    np.add.reduce(wy * s, axis=-1, out=totals[..., 6])
    return totals


def _check_records(y: np.ndarray, s: np.ndarray, w: np.ndarray, bounds: Bounds, first_row: int) -> None:
    """Every value within ``bounds`` and, for binary labels, every label 0 or 1.

    The arrays hold one dataset, (n,), or one per row, (rows, n).  The
    error names the first offending record of the first offending dataset,
    checked as on its own: its labels, scores and weights against their
    bounds, then its labels for binariness.  A matrix's rows are the
    replications ``first_row`` onwards, and the error names that one too.
    NaN compares false, so it is always out of bounds.
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
    if y.ndim == 1:
        row, where = (), ""
    else:
        row = int(np.argmin(np.logical_and.reduce(ok).all(axis=-1)))
        where = f"replication {first_row + row}, "
        row = (row,)
    for (name, values, low, high), mask in zip(columns, ok):
        if not mask[row].all():
            idx = int(np.argmin(mask[row]))
            raise BoundsViolationError(
                f"{where}record {idx}: {name}={float(values[row][idx])} outside [{low}, {high}]", index=idx
            )
    idx = int(np.argmin(ok[-1][row]))
    raise BoundsViolationError(f"{where}record {idx}: y={float(y[row][idx])} not in {{0, 1}}", index=idx)


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


def sensitivity_per_sum(bounds: Bounds) -> dict[str, float]:
    """Add/remove-one sensitivity of each released sum.

    Adding or removing one record changes each sum by at most its summand
    evaluated at the upper bounds, so the sensitivities are products of
    ``w_high``, ``y_high``, ``s_high``.  Returns one entry per released sum
    of the bounds' profile, in canonical field order.
    """
    uw, uy, us = bounds.w_high, bounds.y_high, bounds.s_high
    full = {
        "sum_w": uw,
        "sum_wy": uw * uy,
        "sum_ws": uw * us,
        "sum_w2": uw * uw,
        "sum_wy2": uw * uy * uy,
        "sum_ws2": uw * us * us,
        "sum_wys": uw * uy * us,
    }
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


def read_dataset_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a ``y,s,w`` CSV (the ``w`` column is optional) into arrays.

    Values must parse as finite decimal reals; a missing weight column means
    unit weights.  Raises :class:`DatasetFormatError` naming the offending
    physical line on any malformed content, including bytes that are not
    UTF-8 and fields the csv module refuses.

    Files of plain numeric lines are parsed by numpy's C reader; any other
    file, valid or not, is read again from the start by the strict csv
    parser, which alone decides what else is accepted and how errors read.
    """
    path = Path(path)
    columns = _read_plain(path)
    return columns if columns is not None else _read_strict(path)


# Body bytes per block of the plain reader; each block is cut after its last
# newline, so it holds whole lines.  A block's transients (its bytes, text
# and StringIO) are a few times this size; at 1 MiB the allocator kept up
# to ~12 MB of them after the read, more or less with the file's line
# lengths, and the peak moved with it.  At 256 KiB it keeps ~1 MB.
_BLOCK_BYTES = 1 << 18

# The only bytes a plain block may hold.  Spaces, quotes, carriage returns,
# underscores and letters such as those of ``nan`` go to the strict parser.
_PLAIN_BYTES = b"0123456789.,+-eE\n"


def _read_plain(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns of a file of plain numeric lines, or None for the strict parser.

    A quoted newline can straddle a block cut, so one block the plain reader
    cannot vouch for sends the whole file, not just that block, to the
    strict parser.

    The lines are counted first and each block is copied into columns of
    that length, so memory holds the result once, beside one block's
    transients, rather than twice while per-block arrays are joined.
    """
    limit = csv.field_size_limit()
    with path.open("rb") as fh:
        width = _plain_header_width(fh.readline())
        if width is None:
            return None
        body = fh.tell()
        rows = _count_lines(fh)
        fh.seek(body)
        columns = [np.empty(rows) for _ in range(width)]
        filled = 0
        tail = b""
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            data = tail + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            block, tail = data[:cut], data[cut:]
            if len(tail) > limit:
                return None
            if block:
                values = _parse_plain_block(block, width, limit)
                if values is None or filled + len(values) > rows:
                    return None
                for column, part in zip(columns, values.T):
                    column[filled:filled + len(values)] = part
                filled += len(values)
            if not chunk:
                break
    if filled != rows:  # the file changed between the count and the parse
        return None
    y, s, *rest = columns
    return y, s, rest[0] if rest else np.ones(rows)


def _count_lines(fh) -> int:
    """Lines from the position of ``fh`` to its end, an unterminated last one included."""
    lines, last = 0, b"\n"
    while chunk := fh.read(_BLOCK_BYTES):
        lines += chunk.count(b"\n")
        last = chunk[-1:]
    return lines + (last != b"\n")


def _plain_header_width(line: bytes) -> int | None:
    """:func:`_header_width` of a header line without quotes or carriage returns.

    Those two can make a csv record span physical lines; without them the
    csv module splits this one line as it would split the whole file's
    first record.  Returns None where the strict parser must judge the line.
    """
    if b'"' in line or b"\r" in line:
        return None
    try:
        return _header_width(next(csv.reader([line.decode("utf-8")])))
    except (UnicodeDecodeError, csv.Error, DatasetFormatError):
        return None


def _parse_plain_block(block: bytes, width: int, limit: int) -> np.ndarray | None:
    """The ``(lines, width)`` values of one block, or None for the strict parser.

    numpy's C reader parses each field with the same correctly rounded
    conversion as ``float()``, but it skips blank lines and does not know
    the csv module's field size limit, so both are checked here first.
    """
    if block.translate(None, _PLAIN_BYTES):
        return None
    ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(block))
    spans = np.diff(ends, prepend=-1)  # line lengths plus one
    if spans.min() == 1 or spans.max() > limit + 1:
        return None
    try:
        values = np.loadtxt(
            io.StringIO(block.decode("ascii")), dtype=np.float64, delimiter=",", comments=None, ndmin=2
        )
    except ValueError:
        return None
    if values.shape != (ends.size, width) or not np.isfinite(values).all():
        return None
    return values


def _read_strict(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`read_dataset_csv` by the csv module, one ``float()`` per field."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _parse_rows(reader)
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


def _parse_rows(reader) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The header check and the row parsing of :func:`_read_strict`.

    ``reader.line_num`` counts physical lines, so a record holding a quoted
    newline moves every later line number on by one.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("missing header row", line=1) from None
    width = _header_width(header)

    ys: list[float] = []
    ss: list[float] = []
    ws: list[float] = []
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
        ys.append(parsed[0])
        ss.append(parsed[1])
        ws.append(parsed[2] if width == 3 else 1.0)

    return (
        np.asarray(ys, dtype=np.float64),
        np.asarray(ss, dtype=np.float64),
        np.asarray(ws, dtype=np.float64),
    )


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
