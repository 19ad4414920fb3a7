import csv
import decimal
import math
import pickle

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

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("y", 1.5, r"y=1.5 outside \[0.0, 1.0\]"),
            ("s", math.nan, r"s=nan outside \[0.0, 1.0\]"),
            ("w", 5.0, r"w=5.0 outside \[0.3333333333333333, 3.0\]"),
            ("s", -0.25, r"s=-0.25 outside"),
            ("y", 0.5, r"y=0.5 not in \{0, 1\}"),
        ],
    )
    def test_bad_value_names_record(self, column, value, message):
        # The value lands at record 211 of 300.  Record 212 holds an
        # out-of-bounds label, and labels are checked first, yet the earlier
        # record is named.
        rng = np.random.default_rng(8)
        y, s, w = rng.integers(0, 2, 300).astype(float), rng.random(300), rng.uniform(0.5, 2.0, 300)
        {"y": y, "s": s, "w": w}[column][211] = value
        y[212] = 2.0
        with pytest.raises(d.BoundsViolationError, match="^record 211: " + message) as err:
            d.compute_sums_from_arrays(y, s, w, d.Bounds.binary(w_low=1 / 3, w_high=3.0))
        assert err.value.index == 211


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


@st.composite
def _bounds_of_each_profile(draw):
    """Bounds of a drawn profile, every bound at most 1e100 so no summand overflows."""
    profile = draw(st.sampled_from(list(core.Profile)))
    if profile is core.Profile.UNWEIGHTED5:
        return d.Bounds.binary()
    pair = st.lists(st.floats(0.0, 1e100), min_size=2, max_size=2).map(sorted)
    w_low, w_high = draw(pair.filter(lambda w: w[0] > 0.0 and w != [1.0, 1.0]))
    if profile is core.Profile.BINARY6:
        return d.Bounds.binary(w_low, w_high)
    return d.Bounds(*draw(pair), *draw(pair), w_low, w_high)


class TestSensitivities:
    @given(
        bounds=_bounds_of_each_profile(),
        fractions=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_is_the_largest_summand_the_kernel_adds(self, bounds, fractions):
        # The kernel's sums of the one record at the upper bounds, bit for bit.
        fields = [core.SUM_FIELDS.index(f) for f in bounds.profile.released_fields]
        sens = np.array(list(d.sensitivity_per_sum(bounds).values()))
        top = core.weighted_sums(
            *(np.array([v]) for v in (bounds.y_high, bounds.s_high, bounds.w_high)), bounds.profile
        )
        assert sens.tobytes() == top[fields].tobytes()
        # Records within the bounds, one per row, so each row's sums are its summands.
        lows, highs = (bounds.y_low, bounds.s_low, bounds.w_low), (bounds.y_high, bounds.s_high, bounds.w_high)
        y, s, w = (
            np.minimum(low + np.array(f) * (high - low), high)[:, None]
            for f, low, high in zip(zip(*fractions), lows, highs)
        )
        if bounds.binary_y:
            y = np.round(y)
        core._check_records(y.ravel(), s.ravel(), w.ravel(), bounds, 0)
        assert (core.weighted_sums(y, s, w, bounds.profile)[:, fields] <= sens).all()

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


class TestSumLayout:
    """Each profile's table of collapsed (alias, source) columns, and all that derives from it."""

    ALIASES = {
        d.Profile.FULL7: {},
        d.Profile.BINARY6: {"sum_wy2": "sum_wy"},
        d.Profile.UNWEIGHTED5: {"sum_wy2": "sum_wy", "sum_w2": "sum_w"},
    }
    BOUNDS = {
        d.Profile.FULL7: d.Bounds(0.0, 2.0, 0.0, 3.0, 0.5, 4.0),
        d.Profile.BINARY6: d.Bounds.binary(0.5, 4.0),
        d.Profile.UNWEIGHTED5: d.Bounds.binary(),
    }

    def test_columns_name_the_canonical_order(self):
        assert core.SUM_FIELDS == ("sum_w", "sum_wy", "sum_ws", "sum_w2", "sum_wy2", "sum_ws2", "sum_wys")
        columns = (core.SUM_W, core.SUM_WY, core.SUM_WS, core.SUM_W2, core.SUM_WY2, core.SUM_WS2, core.SUM_WYS)
        assert columns == tuple(range(7))

    @pytest.mark.parametrize("profile", list(d.Profile))
    def test_every_view_agrees_with_the_table(self, profile):
        names = {core.SUM_FIELDS[alias]: core.SUM_FIELDS[source] for alias, source in profile.collapsed}
        assert names == profile.aliases == self.ALIASES[profile]
        assert profile.columns == tuple(c for c in range(7) if c not in dict(profile.collapsed))
        assert all(source in profile.columns for _, source in profile.collapsed)
        assert profile.released_fields == tuple(core.SUM_FIELDS[c] for c in profile.columns)
        assert profile.size == len(profile.columns) == 7 - len(profile.collapsed)
        assert self.BOUNDS[profile].profile is profile
        profile.aliases.clear()
        assert profile.aliases == self.ALIASES[profile]
        rows = np.arange(14.0).reshape(2, 7)
        profile.mirror(rows)
        want = np.arange(14.0).reshape(2, 7)
        for alias, source in self.ALIASES[profile].items():
            want[:, core.SUM_FIELDS.index(alias)] = want[:, core.SUM_FIELDS.index(source)]
        np.testing.assert_array_equal(rows, want)

    @pytest.mark.parametrize("profile", list(d.Profile))
    def test_summands_are_the_released_columns_in_order(self, profile):
        bounds = self.BOUNDS[profile]
        rng = np.random.default_rng(5)
        y = rng.random(50) < 0.5 if bounds.binary_y else rng.uniform(0.0, 2.0, 50)
        w = np.ones(50) if profile is d.Profile.UNWEIGHTED5 else rng.uniform(0.5, 4.0, 50)
        y, s = y.astype(float), rng.uniform(0.0, bounds.s_high, 50)
        products = (w, w * y, w * s, w * w, w * y * y, w * s * s, w * y * s)
        for args in ((y, s, w), (bounds.y_high, bounds.s_high, bounds.w_high)):
            summands = list(core._summands(*args, profile))
            assert tuple(column for column, _ in summands) == profile.columns
            if args[0] is y:
                for column, summand in summands:
                    np.testing.assert_array_equal(np.broadcast_to(summand, y.shape), products[column])
        assert tuple(d.sensitivity_per_sum(bounds)) == profile.released_fields

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("profile", list(d.Profile))
    def test_members_survive_pickle_as_themselves(self, profile, protocol):
        assert pickle.loads(pickle.dumps(profile, protocol)) is profile
        assert d.Profile(profile.value) is profile and profile == profile.value


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


def _midpoint_decimal(x, digits):
    """The exact decimal expansion of the midpoint above the double ``x``,
    cut to ``digits`` significant digits when that is given."""
    high = math.nextafter(x, math.inf)
    with decimal.localcontext(decimal.Context(prec=2000)):
        mid = (decimal.Decimal(x) + decimal.Decimal(high)) / 2
        if digits is not None:
            mid = decimal.Context(prec=digits).plus(mid)
    return format(mid, "f")


def _digit_string(sign, body, dot):
    return sign + (body if dot is None else body[:dot] + "." + body[dot:])


def _exponent_string(mantissa, mark, sign, zeros, exponent):
    return f"{mantissa}{mark}{sign}{'0' * zeros}{exponent}"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_FIELDS = st.one_of(
    _finite.map(repr),
    _finite.map(lambda x: "%.17e" % x),
    _finite.map(lambda x: "%.18e" % x),
    # Exponents around the |k| <= 27 the fast path reads, some with leading zeros.
    st.builds(
        _exponent_string,
        st.builds(
            _digit_string,
            st.sampled_from(["", "-"]),
            st.text("0123456789", min_size=1, max_size=26),
            st.none() | st.integers(0, 26),
        ),
        st.sampled_from("eE"),
        st.sampled_from(["", "+", "-"]),
        st.sampled_from([0, 0, 1, 6, 7]),
        st.integers(0, 60),
    ),
    st.builds(
        _digit_string,
        st.sampled_from(["", "+", "-"]),
        st.text("0123456789", min_size=1, max_size=26),
        st.none() | st.integers(0, 26),
    ),
    # Ties that must round to even, and cuts just off a tie, where rounding
    # twice (to extended, then to double) can differ from rounding once.
    st.builds(
        _midpoint_decimal,
        st.floats(min_value=0.0, max_value=2.0**70) | st.floats(min_value=1e-30, max_value=1e30),
        st.none() | st.integers(16, 21),
    ),
)

# Fields around what the fast path reads: signs and bare dots, 19 and 20
# digits, the largest D it takes (1843 99999999 99999999), 2**64 - 1 and
# 2**64, 24 and 25 digits, k = 22, 23, 27 and 28, both sides of 2**53, two
# cuts near a tie between doubles where rounding twice errs, and exponents:
# k from -28 to 28, 8 and 9 exponent digits, a dot at either end of the
# mantissa, and a tie reached by multiplying.
_EDGE_FIELDS = [
    "-0", "+0", "-0.0", "+.5", "-.5", "5.", "-5.", "0", "00000000000000000000001",
    "9999999999999999999", "99999999999999999999", "1844674407370955161.5", "18446744073709551615",
    "18439999999999999999", "18440000000000000000", "18446744073709551616", "18449999999999999999",
    "000000000000000000001234", "1000000000000000000000000",
    "0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "0." + "0" * 26 + "1", "0." + "0" * 27 + "1",
    "1." + "0" * 26 + "1", "1." + "0" * 27 + "1", "9." + "9" * 22, "9." + "9" * 23,
    "9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995",
    "-9007199254740993", "900719925474099.3", "90071992547409.925", "0.432959649893271320",
    "0.8812407764289670875", "1e-5", "-1e-5", "2.5E+2",
    "1e-05", "-0e0", "0E-99", "1e0", "+1e+0", "5.e-3", ".5e3", "-.5E+3",
    "1e22", "1e23", "1e27", "1e28",
    "1e-22", "1e-23", "1e-27", "1e-28", "9.999999999999999e22",
    "1e00000027", "1e000000027", "1e-000000027", "1e-100000001",
    "123456789012345678901234e-3", "1234567890123456789012345e3",
    "18446744073709551615e-27", "18446744073709551615e8",
    "1.7976931348623157e308", "2.2250738585072014e-308", "5e-324", "9007199254740993e0", "9.007199254740993e15",
    "4503599627370497e1", "1.000000000000000000e+00", "9.862425869288434788e-01",
]


def _check_decimal_reader(fields, width, monkeypatch):
    """Both branches of the reader give the bits of ``float()`` on every field."""
    fields = fields + ["0"] * (-len(fields) % width)
    block = "\n".join(",".join(fields[i : i + width]) for i in range(0, len(fields), width)).encode()
    want = np.array([float(f) for f in fields]).reshape(-1, width)
    for extended in (core._EXTENDED, False):
        monkeypatch.setattr(core, "_EXTENDED", extended)
        got = core._parse_plain_block(block + b"\n", width, csv.field_size_limit())
        assert got.tobytes() == want.tobytes(), (extended, block)


def _decimal_values_of(fields):
    """:func:`core._decimal_values` of unsigned fields of digits and at most one dot."""
    stripped = ",".join(f.replace(".", "") for f in fields).encode()
    ends = np.array([i for i, b in enumerate(stripped + b",") if b == ord(",")])
    digits = np.diff(ends, prepend=-1) - 1
    scale = np.array([len(f) - f.index(".") - 1 if "." in f else 0 for f in fields])
    return core._decimal_values(stripped, ends, digits, scale)


class TestDecimalReader:
    @given(fields=st.lists(_FIELDS, min_size=1, max_size=40), width=st.sampled_from([2, 3]))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bits_equal_float(self, monkeypatch, fields, width):
        _check_decimal_reader(fields, width, monkeypatch)

    def test_edge_fields(self, monkeypatch):
        _check_decimal_reader(_EDGE_FIELDS, 3, monkeypatch)

    @pytest.mark.parametrize(
        "field",
        [
            "e5", "+e5", "5e", "1e5e5", "1.2.3", "..5", "+-1", "--1", "1-", "1+2", ".", "-", "+", "",
            "1e5.5", "1e1.5", "1e0.0", "1ee5", "1e+-5", "1e5-", ".e1", "1e-", "1E+", "e+5", "-e5", "1e-5+",
        ],
    )
    def test_fields_float_rejects_send_the_block_to_the_strict_parser(self, field):
        with pytest.raises(ValueError):
            float(field)
        for block in (f"{field},1\n".encode(), f"1,2\n3,{field}".encode()):
            with pytest.raises(core._NotPlain):
                core._parse_plain_block(block, 2, csv.field_size_limit())

    def test_double_rounding_traps_are_left_to_float(self):
        # The extended quotient of each lies on a midpoint between two doubles
        # (an exact tie for the first two): one more rounding would give the
        # wrong neighbour, or the right one only by luck.
        fields = ["9007199254740993", "9007199254740995", "0.432959649893271320", "0.8812407764289670875"]
        _, inexact = _decimal_values_of(fields)
        assert inexact.all()

    def test_benchmark_shaped_fields_stay_on_the_fast_path(self):
        # Labels, and reprs of scores and weights: a field goes to float()
        # only on a tie, about once in 20,000 such fields.
        if not core._EXTENDED:
            pytest.skip("without extended precision, mantissas above 2**53 go to float()")
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.random(300), rng.uniform(1 / 3, 3.0, 300), [0.0, 1.0]])
        got, inexact = _decimal_values_of([repr(v) for v in values.tolist()])
        assert not inexact.any()
        assert got.tobytes() == values.tobytes()


    def test_exponent_spellings_stay_on_the_fast_path(self, monkeypatch):
        # np.savetxt's default %.18e, and reprs such as 1e-05, are read by
        # the vectorised path, not one float() call per field.
        if not core._EXTENDED:
            pytest.skip("without extended precision, mantissas above 2**53 go to float()")
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.random(300), rng.uniform(1 / 3, 3.0, 300), -rng.random(100), [0.0, 1.0]])
        fields = ["%.18e" % v for v in values.tolist()] + ["%.17e" % v for v in values.tolist()]
        fields += [repr(v) for v in (values * 1e-5).tolist()]
        calls = []
        monkeypatch.setattr(core, "float", lambda field: calls.append(field) or float(field), raising=False)
        got = core._parse_plain_block(("\n".join(fields) + "\n").encode(), 1, csv.field_size_limit())
        assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()
        assert calls == []


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
        want = np.array([math.fsum(column) for _, column in core._summands(y, s, w, core.Profile.FULL7)])
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
        want = np.array([math.fsum(column) for _, column in core._summands(y, s, w, core.Profile.FULL7)])
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

    def test_late_quoted_field_sends_the_file_to_the_strict_parser(self, tmp_path, three_ranges):
        # The header and the first ranges are plain; the pool worker that
        # reads the last range meets the quotes, and the strict parser then
        # reads the whole file, with the same values.
        rng = np.random.default_rng(9)
        y, s, w = _random_arrays(rng, 300)
        lines = _csv_bytes(y, s, w).split(b"\n")
        label, score, weight = lines[300].split(b",")
        lines[300] = b",".join([label, b'"' + score + b'"', weight])
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines))
        sums = core.sum_dataset_csv(path, _loose_bounds())
        cuts = three_ranges[-1]
        assert len(cuts) == 4 and path.read_bytes().index(b'"') > cuts[2]
        want = np.array([math.fsum(column) for _, column in core._summands(y, s, w, core.Profile.FULL7)])
        assert _sum_bytes(sums) == want.tobytes()
        columns = core.read_dataset_csv(path)
        strict = core._read_strict(path)
        assert [c.tobytes() for c in columns] == [c.tobytes() for c in strict] == [c.tobytes() for c in (y, s, w)]

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
        want = np.array([math.fsum(column) for _, column in core._summands(y, s, w, core.Profile.FULL7)])
        assert _sum_bytes(sums) == want.tobytes()
