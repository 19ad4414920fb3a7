import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dpratio as d
from dpratio import core

finite_weights = st.lists(
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False), min_size=2, max_size=40
)


def _random_arrays(rng, n, weighted=True):
    y = rng.random(n)
    s = rng.random(n)
    w = rng.uniform(0.5, 4.0, n) if weighted else np.ones(n)
    return y, s, w


def _loose_bounds():
    return d.Bounds(0.0, 1.0, 0.0, 1.0, 0.1, 10.0)


class TestComputeSums:
    def test_two_record_example(self):
        bounds = d.Bounds.binary_unweighted()
        sums = d.compute_sums([d.Record(0, 0.5, 1.0), d.Record(1, 0.7, 1.0)], bounds)
        assert sums.sum_w == 2.0
        assert sums.sum_wy == 1.0
        assert sums.sum_ws == pytest.approx(1.2, rel=1e-15)
        assert sums.sum_wys == pytest.approx(0.7, rel=1e-15)
        assert sums.profile is d.Profile.UNWEIGHTED5

    def test_duplication_doubles_every_sum(self):
        rng = np.random.default_rng(11)
        y, s, w = _random_arrays(rng, 37)
        bounds = _loose_bounds()
        once = d.compute_sums_from_arrays(y, s, w, bounds)
        twice = d.compute_sums_from_arrays(
            np.concatenate([y, y]), np.concatenate([s, s]), np.concatenate([w, w]), bounds
        )
        for f in d.core.SUM_FIELDS:
            assert getattr(twice, f) == pytest.approx(2.0 * getattr(once, f), rel=1e-12)

    def test_matches_streaming_accumulator(self):
        # Independent oracle: naive one-pass running totals in python floats.
        rng = np.random.default_rng(3)
        y, s, w = d.generate_arrays(1000, True, 1.1, rng)
        totals = [0.0] * 7
        for yi, si, wi in zip(y.tolist(), s.tolist(), w.tolist()):
            totals[0] += wi
            totals[1] += wi * yi
            totals[2] += wi * si
            totals[3] += wi * wi
            totals[4] += wi * yi * yi
            totals[5] += wi * si * si
            totals[6] += wi * yi * si
        sums = d.compute_sums_from_arrays(y, s, w, d.Bounds.binary(w_low=1 / 3, w_high=3.0))
        for f, expected in zip(d.core.SUM_FIELDS, totals):
            assert getattr(sums, f) == pytest.approx(expected, rel=1e-9)

    def test_linearity_of_concatenation(self):
        rng = np.random.default_rng(4)
        bounds = _loose_bounds()
        ya, sa, wa = _random_arrays(rng, 23)
        yb, sb, wb = _random_arrays(rng, 41)
        part_a = d.compute_sums_from_arrays(ya, sa, wa, bounds)
        part_b = d.compute_sums_from_arrays(yb, sb, wb, bounds)
        joint = d.compute_sums_from_arrays(
            np.concatenate([ya, yb]), np.concatenate([sa, sb]), np.concatenate([wa, wb]), bounds
        )
        summed = part_a + part_b
        for f in d.core.SUM_FIELDS:
            assert getattr(joint, f) == pytest.approx(getattr(summed, f), rel=1e-12)

    def test_order_independence(self):
        rng = np.random.default_rng(5)
        y, s, w = _random_arrays(rng, 500)
        bounds = _loose_bounds()
        base = d.compute_sums_from_arrays(y, s, w, bounds)
        perm = rng.permutation(500)
        shuffled = d.compute_sums_from_arrays(y[perm], s[perm], w[perm], bounds)
        for f in d.core.SUM_FIELDS:
            assert getattr(shuffled, f) == pytest.approx(getattr(base, f), rel=1e-12)

    def test_profile_collapse_is_exact(self):
        rng = np.random.default_rng(6)
        n = 200
        y = (rng.random(n) < 0.4).astype(float)
        s = rng.random(n)
        w = rng.uniform(0.5, 2.0, n)
        weighted = d.compute_sums_from_arrays(y, s, w, d.Bounds.binary(w_low=0.5, w_high=2.0))
        assert weighted.sum_wy == weighted.sum_wy2

        unw = d.compute_sums_from_arrays(y, s, np.ones(n), d.Bounds.binary_unweighted())
        assert unw.sum_w == unw.sum_w2 == float(n)

    def test_single_record_accepted(self):
        sums = d.compute_sums([d.Record(1, 0.5)], d.Bounds.binary_unweighted())
        assert sums.sum_w == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(d.EmptyDatasetError):
            d.compute_sums([], d.Bounds.binary_unweighted())

    def test_out_of_bounds_record_identified(self):
        bounds = d.Bounds.binary_unweighted()
        records = [d.Record(0, 0.5), d.Record(1, 1.5), d.Record(1, 0.2)]
        with pytest.raises(d.BoundsViolationError) as err:
            d.compute_sums(records, bounds)
        assert err.value.index == 1

    def test_nan_rejected(self):
        with pytest.raises(d.BoundsViolationError):
            d.compute_sums([d.Record(math.nan, 0.5)], d.Bounds.binary_unweighted())

    def test_non_binary_label_rejected_in_binary_profile(self):
        with pytest.raises(d.BoundsViolationError):
            d.compute_sums([d.Record(0.5, 0.5)], d.Bounds.binary_unweighted())

    def test_non_unit_weight_rejected_when_declared_unit(self):
        with pytest.raises(d.BoundsViolationError):
            d.compute_sums([d.Record(1, 0.5, 2.0)], d.Bounds.binary_unweighted())


class TestSumVector:
    def test_cauchy_schwarz_guard(self):
        with pytest.raises(d.InvalidSumsError):
            d.SumVector(10.0, 5.0, 5.0, 10.0, 5.0, 5.0, 40.0, d.Profile.FULL7)

    def test_alias_consistency_guard(self):
        with pytest.raises(d.InvalidSumsError):
            d.SumVector(10.0, 5.0, 5.0, 10.0, 4.0, 5.0, 3.0, d.Profile.BINARY6)

    def test_profile_mismatch_on_add(self):
        a = d.compute_sums([d.Record(1, 0.5)], d.Bounds.binary_unweighted())
        b = d.compute_sums([d.Record(1, 0.5, 2.0)], d.Bounds.binary(w_low=0.5, w_high=2.0))
        with pytest.raises(d.InvalidSumsError):
            a + b


class TestSensitivities:
    def test_binary_unit_weight_all_ones(self):
        for bounds in (d.Bounds.binary_unweighted(), d.Bounds.binary()):
            sens = d.sensitivity_per_sum(bounds)
            assert len(sens) == bounds.profile.size
            assert all(v == 1.0 for v in sens.values())

    def test_product_of_upper_bounds(self):
        bounds = d.Bounds(0.0, 1.0, 0.0, 1.0, 0.5, 3.0)
        sens = d.sensitivity_per_sum(bounds)
        assert [sens[f] for f in d.core.SUM_FIELDS] == [3.0, 3.0, 3.0, 9.0, 3.0, 3.0, 3.0]

        binary = d.sensitivity_per_sum(d.Bounds.binary(w_low=0.5, w_high=3.0))
        assert list(binary.values()) == [3.0, 3.0, 3.0, 9.0, 3.0, 3.0]

    def test_zero_label_bound(self):
        bounds = d.Bounds(0.0, 0.0, 0.0, 1.0, 1.0, 2.0)
        sens = d.sensitivity_per_sum(bounds)
        assert sens["sum_wy"] == sens["sum_wy2"] == sens["sum_wys"] == 0.0

    def test_monotone_in_each_upper_bound(self):
        base = d.Bounds(0.0, 0.8, 0.0, 0.6, 0.2, 2.0)
        sens = d.sensitivity_per_sum(base)
        bumps = [
            d.Bounds(0.0, 0.9, 0.0, 0.6, 0.2, 2.0),
            d.Bounds(0.0, 0.8, 0.0, 0.7, 0.2, 2.0),
            d.Bounds(0.0, 0.8, 0.0, 0.6, 0.2, 2.5),
        ]
        for bumped in bumps:
            larger = d.sensitivity_per_sum(bumped)
            assert all(larger[f] >= sens[f] for f in d.core.SUM_FIELDS)
            assert any(larger[f] > sens[f] for f in d.core.SUM_FIELDS)


class TestKish:
    def test_equal_weights_gives_n(self):
        n = 17
        records = [d.Record(1, 0.5, 2.5) for _ in range(n)]
        sums = d.compute_sums(records, d.Bounds.binary(w_low=2.5, w_high=2.5))
        assert d.kish_effective_n(sums) == pytest.approx(float(n), rel=1e-14)

    def test_two_weight_example(self):
        records = [d.Record(1, 0.5, 1.0), d.Record(0, 0.5, 3.0)]
        sums = d.compute_sums(records, d.Bounds.binary(w_low=1.0, w_high=3.0))
        assert d.kish_effective_n(sums) == pytest.approx(1.6, rel=1e-14)

    @given(finite_weights)
    @settings(max_examples=60, deadline=None)
    def test_at_most_n_with_equality_iff_equal(self, weights):
        n = len(weights)
        w = np.asarray(weights)
        sums = d.compute_sums_from_arrays(
            np.ones(n), np.full(n, 0.5), w, d.Bounds(0.0, 1.0, 0.0, 1.0, 0.05, 100.0)
        )
        eff = d.kish_effective_n(sums)
        assert eff <= n * (1 + 1e-12)
        if len(set(weights)) == 1:
            assert eff == pytest.approx(n, rel=1e-12)
        elif np.ptp(w) > 1e-6 * w.max():
            assert eff < n

    def test_weighted_dataset_average_near_reported_value(self):
        # Clipped Exp(1) weights concentrate the Kish ratio near 0.616.
        rng = np.random.default_rng(12)
        values = []
        for _ in range(30):
            y, s, w = d.generate_arrays(5000, True, 1.1, rng)
            sums = d.compute_sums_from_arrays(y, s, w, d.Bounds.binary(w_low=1 / 3, w_high=3.0))
            values.append(d.kish_effective_n(sums))
        assert 2950 <= np.mean(values) <= 3200

    def test_invalid_sums(self):
        sums = d.compute_sums([d.Record(1, 0.5)], d.Bounds.binary_unweighted())
        broken = d.SumVector(
            sums.sum_w, sums.sum_wy, sums.sum_ws, -1.0, sums.sum_wy2, sums.sum_ws2,
            sums.sum_wys, d.Profile.FULL7,
        )
        with pytest.raises(d.InvalidSumsError):
            d.kish_effective_n(broken)


class TestBounds:
    def test_binary_forces_unit_bounds(self):
        with pytest.raises(d.InvalidConfigError):
            d.Bounds(0.0, 2.0, 0.0, 1.0, binary_y=True)

    def test_weight_bounds_must_be_positive(self):
        with pytest.raises(d.InvalidConfigError):
            d.Bounds(w_low=0.0, w_high=1.0)

    def test_profile_selection(self):
        assert d.Bounds.binary_unweighted().profile is d.Profile.UNWEIGHTED5
        assert d.Bounds.binary().profile is d.Profile.UNWEIGHTED5
        assert d.Bounds.binary(w_low=1.0, w_high=1.0).profile is d.Profile.UNWEIGHTED5
        assert d.Bounds(0, 1, 0, 1, 1, 1).profile is d.Profile.FULL7
        assert d.Bounds.binary(w_low=0.5, w_high=2.0).profile is d.Profile.BINARY6
        assert d.Bounds(0, 1, 0, 1, 0.5, 2.0).profile is d.Profile.FULL7


class TestCsv:
    def test_roundtrip_with_weights(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,s,w\n0,0.5,1.0\n1,0.7,2.5\n")
        y, s, w = d.read_dataset_csv(path)
        assert y.tolist() == [0.0, 1.0]
        assert s.tolist() == [0.5, 0.7]
        assert w.tolist() == [1.0, 2.5]

    def test_missing_weight_column_means_unit_weights(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,s\n0,0.5\n1,0.7\n")
        _, _, w = d.read_dataset_csv(path)
        assert w.tolist() == [1.0, 1.0]

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        for content, message in [
            (b"y,s\n0,0.5\n1,oops\n", "non-numeric"),
            (b"y,s,w\n1,0.5,1\n0,0.5\n", "expected 3 fields, got 2"),
            (b"y,s\n0,0.5\n\n1,0.7\n", "expected 2 fields, got 0"),
            (b"y,s\n1,0.5\n0,0.2\xe95\n", "not valid UTF-8"),
            (b"y,s\n0,0.5\n1," + b"1" * (csv.field_size_limit() + 1) + b"\n", "field larger"),
            # Finite when parsed, so only the field size limit can reject it.
            (b"y,s\n0,0.5\n1,0." + b"0" * csv.field_size_limit() + b"1\n", "field larger"),
        ]:
            path.write_bytes(content)
            with pytest.raises(d.DatasetFormatError, match=message) as err:
                d.read_dataset_csv(path)
            assert err.value.line == 3

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        for content, message in [("a,b\n0,0.5\n", "expected header"), ("", "missing header row")]:
            path.write_text(content)
            with pytest.raises(d.DatasetFormatError, match=message) as err:
                d.read_dataset_csv(path)
            assert err.value.line == 1

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,s\n0,nan\n")
        with pytest.raises(d.DatasetFormatError) as err:
            d.read_dataset_csv(path)
        assert err.value.line == 2

    def test_errors_name_physical_lines(self, tmp_path):
        # The quoted newline makes the record on lines 2-3 one record.
        path = tmp_path / "data.csv"
        path.write_bytes(b'y,s\n"0\n",0.5\n1,x\n')
        with pytest.raises(d.DatasetFormatError, match="line 4") as err:
            d.read_dataset_csv(path)
        assert err.value.line == 4

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        for content in ("y,s\n", "y,s,w\n"):
            path.write_text(content)
            columns = d.read_dataset_csv(path)
            assert [c.shape for c in columns] == [(0,), (0,), (0,)]
            with pytest.raises(d.EmptyDatasetError):
                d.compute_sums_from_arrays(*columns, _loose_bounds())

    def test_blocks_keep_global_record_index(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        y, s, w = _random_arrays(rng, 300)
        w[250] = 20.0
        path = tmp_path / "data.csv"
        rows = zip(y.tolist(), s.tolist(), w.tolist())
        path.write_text("y,s,w\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        monkeypatch.setattr(core, "_BLOCK_BYTES", 256)
        assert path.stat().st_size > 20 * core._BLOCK_BYTES

        def strict(path):
            raise AssertionError("plain file sent to the strict parser")

        monkeypatch.setattr(core, "_read_strict", strict)
        columns = d.read_dataset_csv(path)
        for got, want in zip(columns, (y, s, w)):
            assert got.tobytes() == want.tobytes()
        with pytest.raises(d.BoundsViolationError) as err:
            d.compute_sums_from_arrays(*columns, _loose_bounds())
        assert err.value.index == 250


_PLAIN_TOKENS = ["0", "1", "0.1", "1e-3", "+.5", "-0", "0.30000000000000004", "2.5E+2", "1e999"]
# Fields the strict parser accepts, or rejects with its own message, that the
# plain reader must leave to it.
_ODD_TOKENS = [" 1", "1_0", "nan", "inf", "-Infinity", '"0.5"', '"0\n"', "#1", "", "1,", "e"]
_HEADERS = {2: ["y,s", " y , s", '"y",s'], 3: ["y,s,w", "y,s, w", '"y","s","w"']}


@st.composite
def _csv_files(draw):
    """CSV bytes; about half are plain, the rest mix in what only the csv module reads."""
    width = draw(st.sampled_from([2, 3]))
    token = st.one_of(
        st.sampled_from(_PLAIN_TOKENS), st.floats(allow_nan=False, allow_infinity=False).map(repr)
    )
    plain_row = st.lists(token, min_size=width, max_size=width)
    if draw(st.booleans()):
        header = draw(st.sampled_from(_HEADERS[width]))
        # Mostly plain rows, so that later blocks are reached too; blank lines,
        # rows of the wrong width and odd fields in the rest.
        odd_row = st.lists(st.one_of(token, st.sampled_from(_ODD_TOKENS)), max_size=width + 1)
        row = st.one_of(plain_row, plain_row, plain_row, st.just([]), odd_row)
        newline = st.sampled_from(["\n", "\n", "\n", "\r\n"])
    else:
        header, row, newline = _HEADERS[width][0], plain_row, st.just("\n")
    lines = draw(st.lists(st.tuples(row, newline), max_size=30))
    text = header + "\n" + "".join(",".join(r) + end for r, end in lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    return text.encode()


def _outcome(read, path):
    try:
        columns = read(path)
    except d.DPRatioError as exc:
        return type(exc), exc.line
    return [c.tobytes() for c in columns]


class TestPlainReaderMatchesStrictParser:
    @given(content=_csv_files(), block_bytes=st.integers(min_value=1, max_value=64))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_arrays_or_same_error(self, tmp_path, monkeypatch, content, block_bytes):
        # Blocks of a few dozen bytes cut most files several times.
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
        assert _outcome(d.read_dataset_csv, path) == _outcome(core._read_strict, path)


def _csv_bytes(y, s, w, newline="\n"):
    rows = zip(y.tolist(), s.tolist(), w.tolist())
    return ("y,s,w" + newline + "".join(f"{a!r},{b!r},{c!r}{newline}" for a, b, c in rows)).encode()


def _sum_bytes(sums):
    return np.array([getattr(sums, f) for f in core.SUM_FIELDS]).tobytes()


@pytest.fixture
def three_ranges(monkeypatch):
    """Small blocks and ranges and three usable cores: a few kB of CSV are
    summed in three byte ranges, two of them by a process pool.  Yields the
    cuts of each summed file."""
    monkeypatch.setattr(core, "_BLOCK_BYTES", 512)
    monkeypatch.setattr(core, "_RANGE_BYTES", 1024)
    monkeypatch.setattr(core, "_usable_cores", lambda: 3)
    cuts = []
    range_cuts = core._range_cuts

    def spy(*args):
        cuts.append(range_cuts(*args))
        return cuts[-1]

    monkeypatch.setattr(core, "_range_cuts", spy)
    return cuts


class TestSumDatasetCsv:
    def test_sums_equal_fsum_bit_for_bit(self, tmp_path, three_ranges):
        # Scores over 600 binary orders of magnitude take many folds to reach.
        rng = np.random.default_rng(17)
        n = 400
        y = (rng.random(n) < 0.5).astype(float)
        s = rng.random(n) * 2.0 ** -rng.integers(0, 600, n)
        w = rng.uniform(1 / 3, 3.0, n)
        path = tmp_path / "data.csv"
        path.write_bytes(_csv_bytes(y, s, w))
        sums = core.sum_dataset_csv(path, d.Bounds.binary(w_low=1 / 3, w_high=3.0))
        assert len(three_ranges[-1]) == 4
        want = np.array([math.fsum(column) for column in core._summands(y, s, w)])
        assert _sum_bytes(sums) == want.tobytes()

    def test_plain_and_strict_paths_agree(self, tmp_path, three_ranges):
        # CRLF line endings send the same records to the strict parser.
        rng = np.random.default_rng(3)
        y, s, w = _random_arrays(rng, 300)
        bounds = _loose_bounds()
        plain, strict = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        plain.write_bytes(_csv_bytes(y, s, w))
        strict.write_bytes(_csv_bytes(y, s, w, "\r\n"))
        from_plain = core.sum_dataset_csv(plain, bounds)
        assert len(three_ranges) == 1 and len(three_ranges[0]) == 4
        from_strict = core.sum_dataset_csv(strict, bounds)
        assert len(three_ranges) == 1  # the CR in the header goes to the strict parser
        assert _sum_bytes(from_plain) == _sum_bytes(from_strict)
        want = np.array([math.fsum(column) for column in core._summands(y, s, w)])
        assert _sum_bytes(from_plain) == want.tobytes()

    def test_bounds_violation_in_last_range_has_global_index(self, tmp_path, three_ranges):
        rng = np.random.default_rng(5)
        y, s, w = _random_arrays(rng, 300)
        w[290] = 20.0
        path = tmp_path / "data.csv"
        path.write_bytes(_csv_bytes(y, s, w))
        with pytest.raises(d.BoundsViolationError, match="^record 290: w=20.0 outside") as err:
            core.sum_dataset_csv(path, _loose_bounds())
        assert err.value.index == 290
        cuts = three_ranges[-1]
        assert len(cuts) == 4 and path.read_bytes()[: cuts[2]].count(b"\n") < 1 + 290

    def test_first_violation_in_file_order_wins(self, tmp_path, three_ranges):
        # A score out of bounds in the first range is named before a label
        # out of bounds in the last, though labels are checked first.
        rng = np.random.default_rng(6)
        y, s, w = _random_arrays(rng, 300)
        s[10], y[280] = 1.5, 2.0
        path = tmp_path / "data.csv"
        path.write_bytes(_csv_bytes(y, s, w))
        with pytest.raises(d.BoundsViolationError, match="^record 10: s=1.5 outside") as err:
            core.sum_dataset_csv(path, _loose_bounds())
        assert err.value.index == 10

    def test_format_error_in_later_range_beats_earlier_violation(self, tmp_path, three_ranges):
        rng = np.random.default_rng(7)
        y, s, w = _random_arrays(rng, 300)
        w[3] = 20.0
        lines = _csv_bytes(y, s, w).split(b"\n")
        lines[281] = b"1,oops,1"  # record 280 is on physical line 282
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(d.DatasetFormatError, match="non-numeric") as err:
            core.sum_dataset_csv(path, _loose_bounds())
        assert err.value.line == 282
        assert len(three_ranges[-1]) == 4

    def test_header_only_file_is_empty(self, tmp_path, three_ranges):
        path = tmp_path / "data.csv"
        for content in ("y,s\n", "y,s,w\n", "y,s,w", "y,s\r\n"):
            path.write_text(content, newline="")
            with pytest.raises(d.EmptyDatasetError):
                core.sum_dataset_csv(path, _loose_bounds())

    def test_bounds_whose_sums_can_overflow(self, tmp_path, three_ranges):
        # With w_high = 1e300, sum_w2's summands are bounded by inf; at 1e154
        # by 1e308, which a few records can overflow.  Either is a structured
        # error before any record is read; at 1e150 the sums are exact.
        rng = np.random.default_rng(8)
        y, s, w = _random_arrays(rng, 300)
        path = tmp_path / "data.csv"
        path.write_bytes(_csv_bytes(y, s, w))
        for w_high in (1e300, 1e154):
            with pytest.raises(d.InvalidConfigError, match="sum_w2 summands up to"):
                core.sum_dataset_csv(path, d.Bounds(w_low=0.1, w_high=w_high))
        sums = core.sum_dataset_csv(path, d.Bounds(w_low=0.1, w_high=1e150))
        want = np.array([math.fsum(column) for column in core._summands(y, s, w)])
        assert _sum_bytes(sums) == want.tobytes()
