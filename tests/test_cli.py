import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpratio import DP_METHODS, FLAGS, REFUSAL_CAUSES, cli, core
from dpratio.cli import main


@pytest.fixture
def binary_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,s\n0,0.5\n1,0.7\n")
    return path


def run_cli(capsys, *args):
    status = main(list(args))
    return status, capsys.readouterr().out


class TestEstimate:
    def test_vanishing_noise_recovers_public_ratio(self, binary_csv, capsys):
        status, out = run_cli(
            capsys, "estimate", "--input", str(binary_csv), "--epsilon", "1e6",
            "--binary", "--seed", "42",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["released"]["profile"] == "unweighted5"
        assert len(doc["released"]["values"]) == 5
        assert len(doc["estimates"]) == 3
        for est in doc["estimates"]:
            assert est["point"] == pytest.approx(1.2, abs=1e-3)
            assert est["ci"][0] <= est["point"] <= est["ci"][1]

    def test_seeded_runs_are_byte_identical(self, binary_csv, capsys):
        args = ("estimate", "--input", str(binary_csv), "--epsilon", "2.0",
                "--binary", "--seed", "42")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_both_scales(self, binary_csv, capsys):
        status, out = run_cli(
            capsys, "estimate", "--input", str(binary_csv), "--epsilon", "1e6",
            "--binary", "--scale", "both", "--seed", "1",
        )
        assert status == 0
        doc = json.loads(out)
        scales = {est["scale"] for est in doc["estimates"]}
        assert scales == {"ratio", "log"}
        assert len(doc["estimates"]) == 2 * len(DP_METHODS)
        for scale in ("ratio", "log"):
            methods = [est["method"] for est in doc["estimates"] if est["scale"] == scale]
            assert methods == [method.value for method in DP_METHODS]

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for content in (b"y,s\n0,0.5\n1,not-a-number\n", b"y,s\n1,0.5\n0,0.2\xe95\n"):
            path.write_bytes(content)
            status, out = run_cli(capsys, "estimate", "--input", str(path), "--epsilon", "1.0")
            assert status == 2
            doc = json.loads(out)
            assert doc["error"]["type"] == "DatasetFormatError"
            assert doc["error"]["line"] == 3

    def test_header_only_input_is_empty_dataset(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        for content in ("y,s\n", "y,s,w\n"):
            path.write_text(content)
            status, out = run_cli(capsys, "estimate", "--input", str(path), "--epsilon", "1.0")
            assert status == 2
            assert json.loads(out)["error"]["type"] == "EmptyDatasetError"

    def test_bounds_violation_reports_index(self, tmp_path, capsys):
        path = tmp_path / "oob.csv"
        path.write_text("y,s\n0,0.5\n2,0.5\n")
        status, out = run_cli(
            capsys, "estimate", "--input", str(path), "--epsilon", "1.0", "--binary"
        )
        assert status == 2
        doc = json.loads(out)
        assert doc["error"]["type"] == "BoundsViolationError"
        assert doc["error"]["index"] == 1
        assert "np.float64" not in doc["error"]["message"]

    def test_missing_input_file_is_structured_error(self, tmp_path, capsys):
        status, out = run_cli(
            capsys, "estimate", "--input", str(tmp_path / "absent.csv"), "--epsilon", "1.0"
        )
        assert status == 2
        assert json.loads(out)["error"]["type"] == "FileNotFoundError"

    def test_mechanism_budget_checked_before_data(self, tmp_path, capsys):
        # The delta/mechanism contradiction must win over any data problem.
        path = tmp_path / "oob.csv"
        path.write_text("y,s\n0,0.5\n2,0.5\n")
        status, out = run_cli(
            capsys, "estimate", "--input", str(path), "--epsilon", "1.0",
            "--mechanism", "laplace", "--delta", "1e-6", "--binary",
        )
        assert status == 2
        assert json.loads(out)["error"]["type"] == "MechanismMismatchError"

    def test_negative_seed_rejected_before_data(self, tmp_path, capsys):
        # Each bad setting is reported instead of the missing file.  A total
        # epsilon or delta of 5e-324 is valid, but its per-sum share is 0; at
        # a total epsilon of 1e-300 the noise variance overflows.
        for flags, error_type, field in (
            (("--epsilon", "1.0", "--seed", "-1"), "InvalidConfigError", "seed"),
            (("--epsilon", "1.0", "--level", "1.5"), "InvalidConfigError", "level"),
            (("--epsilon", "1.0", "--mc-draws", "1"), "InvalidConfigError", "mc_draws"),
            (
                ("--epsilon", "5e-324", "--binary", "--mechanism", "laplace"),
                "InvalidBudgetError", "split over k=5",
            ),
            (("--epsilon", "1.0", "--delta", "5e-324"), "InvalidBudgetError", "split over k=7"),
            # Positive per-sum shares whose noise variance overflows.
            (("--epsilon", "1e-300"), "InvalidBudgetError", "gaussian noise at total epsilon 1e-300"),
            (
                ("--epsilon", "1e-300", "--binary", "--mechanism", "laplace"),
                "InvalidBudgetError", "laplace noise at total epsilon 1e-300",
            ),
        ):
            status, out = run_cli(
                capsys, "estimate", "--input", str(tmp_path / "absent.csv"), *flags
            )
            assert status == 2
            error = json.loads(out)["error"]
            assert error["type"] == error_type
            assert field in error["message"]

    def test_draw_count_numpy_cannot_size_rejected_before_data(self, tmp_path, capsys):
        # The input is absent: reading it first would be a FileNotFoundError.
        status, out = run_cli(
            capsys, "estimate", "--input", str(tmp_path / "absent.csv"), "--binary", "--epsilon", "1",
            "--mc-draws", "100000000000000000000",
        )
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError" and "mc_draws must be at most" in error["message"]

    def test_binary_rejects_other_bounds(self, binary_csv, capsys):
        status, out = run_cli(
            capsys, "estimate", "--input", str(binary_csv), "--epsilon", "1.0",
            "--binary", "--y-bounds", "0", "5",
        )
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError"
        assert "binary_y" in error["message"]

    def test_public_output_needs_acknowledgement(self, binary_csv, capsys):
        status, out = run_cli(
            capsys, "estimate", "--input", str(binary_csv), "--epsilon", "1.0",
            "--binary", "--include-public",
        )
        assert status == 2
        assert "allow-non-dp" in json.loads(out)["error"]["message"]

        status, out = run_cli(
            capsys, "estimate", "--input", str(binary_csv), "--epsilon", "1e6",
            "--binary", "--include-public", "--allow-non-dp", "--seed", "7",
        )
        assert status == 0
        doc = json.loads(out)
        assert [e["method"] for e in doc["public_estimates"]] == ["public"]

    def test_unit_weights_flag_removed(self, binary_csv):
        # Binary data at weight bounds (1, 1) already releases the 5-sum profile.
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "--input", str(binary_csv), "--epsilon", "1.0", "--binary",
                  "--unit-weights"])
        assert exit_info.value.code == 2

    def test_laplace_requires_zero_delta(self, binary_csv, capsys):
        status, out = run_cli(
            capsys, "estimate", "--input", str(binary_csv), "--epsilon", "1.0",
            "--mechanism", "laplace", "--delta", "1e-6", "--binary",
        )
        assert status == 2
        assert json.loads(out)["error"]["type"] == "MechanismMismatchError"


_RECORDS = st.lists(
    st.tuples(st.sampled_from([0, 1]), st.floats(0.0, 1.0), st.floats(0.5, 2.0)), max_size=60
)


class TestEstimateIngest:
    @given(records=_RECORDS, data=st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_json_identical_under_line_permutation(self, tmp_path, capsys, monkeypatch, records, data):
        # Each run cuts the file into its own blocks and up to three ranges.
        # One positive label keeps the public ratio defined, and at epsilon
        # 1e3 no interval refuses, so the whole document is compared.
        lines = [f"{y},{s!r},{w!r}\n" for y, s, w in [(1, 0.5, 1.0), *records]]
        order = data.draw(st.permutations(range(len(lines))))
        terminated = data.draw(st.booleans())
        path = tmp_path / "data.csv"
        outputs = []
        for chosen in (lines, [lines[i] for i in order]):
            monkeypatch.setattr(core, "_BLOCK_BYTES", data.draw(st.integers(1, 256)))
            monkeypatch.setattr(core, "_RANGE_BYTES", data.draw(st.integers(8, 256)))
            cores = data.draw(st.integers(1, 3))
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            body = "".join(chosen)
            path.write_text("y,s,w\n" + (body if terminated else body.removesuffix("\n")))
            outputs.append(run_cli(
                capsys, "estimate", "--input", str(path), "--epsilon", "1e3", "--binary",
                "--w-bounds", "0.5", "2", "--scale", "both", "--include-public", "--allow-non-dp", "--seed", "3",
            ))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    def test_bounds_violation_names_global_index(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(core, "_RANGE_BYTES", 256)
        monkeypatch.setattr(core, "_usable_cores", lambda: 3)
        path = tmp_path / "oob.csv"
        path.write_text("y,s\n" + "0,0.5\n" * 200 + "2,0.5\n" + "1,0.5\n" * 5)
        status, out = run_cli(capsys, "estimate", "--input", str(path), "--epsilon", "1.0", "--binary")
        assert status == 2
        assert json.loads(out)["error"] == {
            "type": "BoundsViolationError", "message": "record 200: y=2.0 outside [0.0, 1.0]", "index": 200,
        }

    def test_huge_bounds_give_finite_sums_or_a_structured_error(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("y,s,w\n" + "1,0.5,3\n0,0.25,1\n" * 50)
        # At 1e300 the sum_w2 noise variance overflows; at 1e154 a sum of 100
        # summands up to 1e308 can overflow; at 1e150 the sums are exact.
        cases = (("1e300", "InvalidBudgetError"), ("1e154", "InvalidConfigError"), ("1e150", None))
        for w_high, error_type in cases:
            status, out = run_cli(
                capsys, "estimate", "--input", str(path), "--epsilon", "1e300", "--mechanism", "laplace",
                "--delta", "0", "--w-bounds", "1", w_high, "--seed", "1",
            )
            assert "NaN" not in out
            doc = json.loads(out)
            if error_type is None:
                assert status == 0
                assert doc["released"]["values"]["sum_w2"] == pytest.approx(500.0, abs=200.0)
            else:
                assert status == 2 and doc["error"]["type"] == error_type

    def test_overflowing_variance_is_a_structured_error(self, tmp_path, capsys):
        # The sums are finite, but squaring weights near 1e140 overflows the
        # variance plug-in to inf - inf: no NaN may reach the JSON.
        path = tmp_path / "data.csv"
        path.write_text("y,s,w\n" + "1,0.5,3\n0,0.25,1e140\n" * 50)
        status, out = run_cli(
            capsys, "estimate", "--input", str(path), "--epsilon", "1e300", "--mechanism", "laplace",
            "--delta", "0", "--w-bounds", "1", "1e150", "--seed", "1",
        )
        assert "NaN" not in out
        assert status == 2
        assert json.loads(out)["error"]["type"] == "DegenerateVarianceError"


class TestSimulate:
    def test_smoke_run_writes_outputs(self, tmp_path, capsys):
        status, out = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--n", "200",
            "--epsilon", "0.5", "--epsilon", "1", "--replications", "2", "--mc-draws", "20",
            "--seed", "3", "--threads", "1",
        )
        assert status == 0
        csv_path = tmp_path / "gaussian_ratio_n200_unweighted.csv"
        assert csv_path.exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["cells"]) == 1
        rows = report["cells"][0]["rows"]
        assert [(r["method"], r["epsilon"]) for r in rows] == [("public", None)] + [
            (method.value, eps) for eps in (0.5, 1.0) for method in DP_METHODS
        ]
        for row in rows:
            assert list(row["flags"]) == list(FLAGS)
            assert list(row["refusals_by_cause"]) == list(REFUSAL_CAUSES)
            assert sum(row["refusals_by_cause"].values()) == row["refusals"]
        table = "\n".join([
            "mechanism=gaussian  scale=ratio  n=200  weighted=no  replications=2  level=0.95  "
            "effective n=200",
            "public method: width = 0.317, coverage = 1.000, score = 0.317",
            "",
            "               no_correction             monte_carlo              analytical       ",
            " epsilon    width   cover   score    width   cover   score    width   cover   score",
            "     0.5    0.836   0.500  14.342  103.249   1.000 103.249    6.173   1.000   6.173",
            "       1    0.355   0.000  35.789   44.329   1.000  44.329    4.557   1.000   4.557",
        ])
        assert out == f"{table}\n\nwrote {tmp_path / 'report.json'}\n"

    def test_single_replication_is_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        status, _ = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--n", "5000",
            "--replications", "1", "--seed", "1", "--threads", "1",
        )
        elapsed = time.perf_counter() - start
        assert status == 0
        assert elapsed < 1.0

    def test_default_grid_shape(self, tmp_path, capsys):
        status, _ = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--n", "100",
            "--replications", "2", "--mc-draws", "20", "--seed", "1", "--threads", "1",
        )
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        rows = report["cells"][0]["rows"]
        assert len(rows) == 1 + 4 * len(DP_METHODS)  # public + default four-epsilon grid
        assert report["cells"][0]["config"]["epsilons"] == [0.2, 0.5, 1.0, 4.0]

    def test_gaussian_rejects_zero_delta(self, tmp_path, capsys):
        # An invalid budget fails before the output directory is created; two
        # underflow to 0 when split over the 5 sums, and at epsilon 1e-300 the
        # noise variance overflows.
        for i, (flags, error_type) in enumerate((
            (("--mechanism", "gaussian", "--delta", "0"), "MechanismMismatchError"),
            (("--mechanism", "gaussian", "--delta", "1.5"), "InvalidBudgetError"),
            (("--mechanism", "laplace", "--epsilon", "5e-324"), "InvalidBudgetError"),
            (("--mechanism", "gaussian", "--delta", "5e-324"), "InvalidBudgetError"),
            (("--mechanism", "gaussian", "--epsilon", "1e-300"), "InvalidBudgetError"),
            (("--mechanism", "laplace", "--epsilon", "1e-300"), "InvalidBudgetError"),
        )):
            out_dir = tmp_path / f"out-{i}"
            status, out = run_cli(
                capsys, "simulate", "--output-dir", str(out_dir), "--n", "100",
                "--replications", "2", *flags,
            )
            assert status == 2
            assert json.loads(out)["error"]["type"] == error_type
            assert not out_dir.exists()

    def test_laplace_with_zero_delta_accepted(self, tmp_path, capsys):
        status, _ = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--n", "100",
            "--epsilon", "0.5", "--replications", "2", "--mc-draws", "20",
            "--mechanism", "laplace", "--delta", "0", "--seed", "2", "--threads", "1",
        )
        assert status == 0
        assert (tmp_path / "laplace_ratio_n100_unweighted.csv").exists()

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "replications": 2, "epsilons": [0.5], "seed": 4}))
        status, _ = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--config", str(cfg),
            "--n", "120", "--mc-draws", "20", "--threads", "1",
        )
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        config = report["cells"][0]["config"]
        assert config["n"] == 120  # flag wins
        assert config["replications"] == 2  # from file
        assert config["master_seed"] == 4

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        status, out = run_cli(capsys, "simulate", "--output-dir", str(tmp_path), "--config", str(cfg))
        assert status == 2
        assert "bogus" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "field, value",
        [("n", "abc"), ("epsilons", 0.5), ("weighted", "no"), ("replications", 2.5)],
    )
    def test_config_value_types_checked(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        status, out = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--config", str(cfg), "--threads", "1"
        )
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError"
        assert field in error["message"]

    def test_config_integers_equal_flag_floats(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mechanism": "laplace", "delta": 0, "true_ratio": 2, "epsilons": [1]}))
        common = ["--n", "100", "--replications", "3", "--mc-draws", "20", "--seed", "5",
                  "--scale", "both", "--threads", "1"]
        for sub, flags in (("file", ["--config", str(cfg)]),
                           ("flags", ["--mechanism", "laplace", "--delta", "0", "--true-ratio", "2",
                                      "--epsilon", "1"])):
            status, _ = run_cli(capsys, "simulate", "--output-dir", str(tmp_path / sub), *common, *flags)
            assert status == 0
        for name in ("laplace_ratio_n100_unweighted.csv", "laplace_log_n100_unweighted.csv", "report.json"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    def test_repeated_epsilon_exits_before_output(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        status, out = run_cli(
            capsys, "simulate", "--output-dir", str(out_dir), "--n", "100", "--replications", "2",
            "--epsilon", "0.5", "--epsilon", "0.5",
        )
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError" and "epsilons" in error["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--n", "1000000000000000000000", "--mc-draws", "2"), "n"),
            (("--n", "100", "--mc-draws", "100000000000000000000"), "mc_draws"),
        ],
    )
    def test_count_numpy_cannot_size_exits_before_output(self, tmp_path, capsys, flags, field):
        out_dir = tmp_path / "out"
        status, out = run_cli(
            capsys, "simulate", "--output-dir", str(out_dir), "--replications", "1", "--epsilon", "1",
            "--threads", "1", *flags,
        )
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError" and error["message"].startswith(f"{field} must be at most")
        assert not out_dir.exists()

    def test_memory_error_is_a_structured_error(self, tmp_path, capsys):
        # 24 bytes a record at n = 10**15 is 21.3 PiB, more than any address
        # space holds, so the first allocation fails at once.
        status, out = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path / "out"), "--n", "1000000000000000",
            "--replications", "1", "--epsilon", "1", "--mc-draws", "2", "--threads", "1",
        )
        assert status == 2
        assert json.loads(out)["error"]["type"] == "MemoryError"
        assert not (tmp_path / "out").exists()

    def test_config_must_hold_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"n": 100}]))
        status, out = run_cli(capsys, "simulate", "--output-dir", str(tmp_path), "--config", str(cfg))
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError"
        assert "JSON object" in error["message"]

    def test_config_number_too_large_for_a_double(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"true_ratio": 1' + "0" * 400 + "}")
        out_dir = tmp_path / "out"
        status, out = run_cli(capsys, "simulate", "--output-dir", str(out_dir), "--config", str(cfg))
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError" and "true_ratio" in error["message"]
        assert not out_dir.exists()

    def test_config_number_too_long_to_read(self, tmp_path, capsys):
        # More digits than Python converts to an int by default (4,300).
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epsilons": [1' + "0" * 5000 + "]}")
        out_dir = tmp_path / "out"
        status, out = run_cli(capsys, "simulate", "--output-dir", str(out_dir), "--config", str(cfg))
        assert status == 2
        assert json.loads(out)["error"]["type"] == "InvalidConfigError"
        assert not out_dir.exists()

    def test_threads_must_be_positive(self, tmp_path, capsys):
        status, out = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--n", "100",
            "--replications", "2", "--threads", "0",
        )
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidConfigError"
        assert "threads" in error["message"]

    def test_csv_bytes_identical_across_thread_counts(self, tmp_path, capsys):
        outputs = []
        for threads, sub in ((1, "a"), (2, "b")):
            out_dir = tmp_path / sub
            status, _ = run_cli(
                capsys, "simulate", "--output-dir", str(out_dir), "--n", "150",
                "--epsilon", "0.5", "--replications", "6", "--mc-draws", "20",
                "--seed", "11", "--threads", str(threads),
            )
            assert status == 0
            outputs.append((out_dir / "gaussian_ratio_n150_unweighted.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("pinned", [True, False])
    def test_threads_default_to_usable_cores(self, tmp_path, capsys, monkeypatch, pinned):
        # Pinned to one CPU of many, the default pool has one worker; where
        # the affinity mask cannot be read, every core counts.
        seen = []
        run_experiments = cli.run_experiments

        def spy(configs, threads):
            seen.append(threads)
            return run_experiments(configs, threads)

        monkeypatch.setattr(cli, "run_experiments", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if pinned:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        status, _ = run_cli(
            capsys, "simulate", "--output-dir", str(tmp_path), "--n", "100",
            "--epsilon", "0.5", "--replications", "1", "--mc-draws", "20",
        )
        assert status == 0
        assert seen == [1 if pinned else 64]

    def test_both_scales_match_separate_runs(self, tmp_path, capsys):
        args = ["--n", "100", "--weighted", "--mechanism", "laplace", "--epsilon", "0.05",
                "--replications", "20", "--mc-draws", "1000", "--seed", "4", "--threads", "2"]
        for scale in ("both", "ratio", "log"):
            status, _ = run_cli(
                capsys, "simulate", "--output-dir", str(tmp_path / scale), "--scale", scale, *args
            )
            assert status == 0
        for scale in ("ratio", "log"):
            name = f"laplace_{scale}_n100_weighted.csv"
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / scale / name).read_bytes()
