import json
import math
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dpratio as d
from dpratio import inference, simulation
from dpratio._seeding import _Seed, generators, state_words
from dpratio.core import SUM_FIELDS
from dpratio.simulation import (
    _PURPOSE_DATA,
    _PURPOSE_MC,
    _PURPOSE_RELEASE,
    WEIGHT_CLIP,
    _block_cuts,
    _block_sums,
    _run_block,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _substream(master_seed, replication, purpose, epsilon=None):
    """numpy's own seed of one stream, the oracle of ``_seeding.state_words``:
    ``np.random.default_rng`` of it draws what the engine's generator draws."""
    key = [replication, purpose]
    if epsilon is not None:
        key.append(int(np.float64(epsilon).view(np.uint64)))
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))


def small_config(**overrides):
    base = dict(n=400, epsilons=(0.5,), replications=6, mc_draws=20, master_seed=99)
    base.update(overrides)
    return d.SimulationConfig(**base)


class TestGenerate:
    def test_labels_binary_and_scores_in_unit_interval(self):
        rng = np.random.default_rng(0)
        y, s, w = d.generate_arrays(5000, False, 1.1, rng)
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert s.min() > 0.0 and s.max() < 1.0
        assert (s / 1.1 <= 1.0 / 1.1).all()
        assert (w == 1.0).all()

    def test_large_sample_means(self):
        rng = np.random.default_rng(1)
        y, s, _ = d.generate_arrays(1_000_000, False, 1.1, rng)
        assert abs(s.mean() - 0.5) < 0.003
        assert abs(s.mean() / y.mean() - 1.1) < 0.01

    def test_weighted_design(self):
        rng = np.random.default_rng(2)
        _, _, w = d.generate_arrays(1_000_000, True, 1.1, rng)
        assert w.min() >= WEIGHT_CLIP[0] and w.max() <= WEIGHT_CLIP[1]
        kish_ratio = w.sum() ** 2 / (w @ w) / w.size
        assert abs(kish_ratio - 0.6) < 0.05

    @pytest.mark.parametrize("weighted", [False, True])
    def test_stream_layout(self, weighted):
        # Three n-blocks of score uniforms, n label uniforms, then n
        # Exponential(1) draws if weighted, all from the one stream.
        n, ratio = 257, 1.3
        y, s, w = d.generate_arrays(n, weighted, ratio, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        a, b, c, labels = rng.random(4 * n).reshape(4, n)
        np.testing.assert_array_equal(s, np.median([a, b, c], axis=0))
        np.testing.assert_array_equal(y, (labels < s / ratio).astype(float))
        expected_w = np.clip(rng.standard_exponential(n), *WEIGHT_CLIP) if weighted else np.ones(n)
        np.testing.assert_array_equal(w, expected_w)

    def test_scores_are_beta_2_2(self):
        count = 200_000
        _, s, _ = d.generate_arrays(count, False, 1.1, np.random.default_rng(12))
        x = np.sort(s)
        cdf = 3.0 * x**2 - 2.0 * x**3
        steps = np.arange(1, count + 1) / count
        distance = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / count)))
        assert distance < 1.95 / math.sqrt(count)  # Kolmogorov-Smirnov at the 0.1% level
        assert abs(s.mean() - 0.5) < 0.003
        assert abs(s.var() - 0.05) < 0.003

    def test_unit_ratio_supported(self):
        rng = np.random.default_rng(3)
        y, s, _ = d.generate_arrays(50_000, False, 1.0, rng)
        assert abs(s.mean() / y.mean() - 1.0) < 0.02

    def test_sample_size_numpy_cannot_size_rejected(self):
        # One below the least n, and one past the largest whose three float64
        # columns numpy can size.
        high = np.iinfo(np.intp).max // 24
        for n, message in ((0, "n must be at least 1"), (high + 1, f"n must be at most {high}")):
            with pytest.raises(d.InvalidConfigError, match=message):
                d.generate_arrays(n, False, 1.1, np.random.default_rng(0))
            with pytest.raises(d.InvalidConfigError, match="n must be at"):
                small_config(n=n)

    def test_sub_unit_ratio_rejected(self):
        for ratio in (0.9, math.nan, math.inf):
            with pytest.raises(d.InvalidConfigError):
                d.generate_arrays(10, False, ratio, np.random.default_rng(0))


class TestIntervalScore:
    def test_covered_equals_width(self):
        assert d.interval_score(0.0, 1.0, 0.5, 0.05) == 1.0

    def test_miss_penalty(self):
        assert d.interval_score(0.0, 1.0, 1.1, 0.05) == pytest.approx(5.0, rel=1e-12)

    def test_boundary_counts_as_covered(self):
        assert d.interval_score(0.0, 1.0, 1.0, 0.05) == 1.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(d.InvalidIntervalError):
            d.interval_score(1.0, 0.0, 0.5, 0.05)

    @given(
        st.floats(-5, 5), st.floats(0, 5), st.floats(-10, 10),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_at_least_width_with_equality_iff_covered(self, lower, extent, truth, alpha):
        upper = lower + extent
        score = d.interval_score(lower, upper, truth, alpha)
        width = upper - lower
        assert score >= width
        if lower <= truth <= upper:
            assert score == width
        else:
            # A miss so tiny that its penalty is absorbed by the width in
            # double precision cannot be distinguished from coverage.
            miss = max(lower - truth, truth - upper)
            assume(2.0 / alpha * miss > 1e-9 * (1.0 + width))
            assert score > width


class TestRunExperiment:
    def test_bit_identical_reruns(self):
        config = small_config()
        assert d.run_experiment(config) == d.run_experiment(config)

    def test_row_layout(self):
        config = small_config(epsilons=(0.5, 1.0))
        rows = d.run_experiment(config)
        assert [(r.method, r.epsilon) for r in rows] == [(d.Method.PUBLIC, None)] + [
            (method, eps) for eps in (0.5, 1.0) for method in d.DP_METHODS
        ]

    @pytest.mark.parametrize("method", [d.Method.ANALYTICAL, d.Method.MONTE_CARLO])
    def test_cut_method_table_moves_no_row(self, monkeypatch, method):
        # Streams are keyed by purpose and epsilon, not by method, so running
        # one method alone gives exactly its rows of the full run.
        config = small_config(epsilons=(0.5, 1.0))
        full = d.run_experiment(config, threads=1)
        monkeypatch.setattr(simulation, "DP_METHODS", (method,))
        cut = d.run_experiment(config, threads=1)
        kept = [row for row in full if row.method in (d.Method.PUBLIC, method)]
        assert repr(cut) == repr(kept)  # float reprs round-trip: equal bit for bit

    def test_public_row_independent_of_epsilons(self):
        rows_a = d.run_experiment(small_config(epsilons=(0.2,)))
        rows_b = d.run_experiment(small_config(epsilons=(0.2, 4.0)))
        assert rows_a[0] == rows_b[0]

    def test_epsilon_streams_stable_under_grid_edits(self):
        # Rows for a given epsilon do not change when other epsilons join the grid.
        rows_pair = d.run_experiment(small_config(epsilons=(0.2, 0.5)))
        rows_single = d.run_experiment(small_config(epsilons=(0.5,)))
        by_key = {(r.method, r.epsilon): r for r in rows_pair}
        for row in rows_single[1:]:
            assert by_key[(row.method, row.epsilon)] == row

    def test_score_at_least_width_when_no_refusals(self):
        rows = d.run_experiment(small_config(replications=40))
        for row in rows:
            if row.refusal_count == 0:
                assert row.mean_interval_score >= row.mean_width - 1e-12

    def test_threads_do_not_change_results(self):
        # 131 replications at 1,000 draws send blocks of 43, 44 and 44 to the pool.
        assert _block_cuts(131, 1000) == [0, 43, 87, 131]
        for config in (small_config(replications=8), small_config(replications=131, mc_draws=1000)):
            assert d.run_experiment(config, threads=1) == d.run_experiment(config, threads=2)

    def test_refusals_counted_not_fatal(self):
        # Tiny budget on a small weighted sample drives the noisy label sum
        # negative in a sizable share of replications.
        config = d.SimulationConfig(
            n=100, epsilons=(0.02,), weighted=True, replications=40,
            mc_draws=20, master_seed=5,
        )
        rows = d.run_experiment(config)
        nc = rows[1]
        assert 0 < nc.refusal_count < config.replications
        assert math.isfinite(nc.mean_width)
        assert rows[0].refusal_count == 0

    def test_effective_n_matches_design(self):
        rows = d.run_experiment(small_config(weighted=True, replications=20, n=2000))
        assert rows[0].mean_effective_n == pytest.approx(0.616 * 2000, rel=0.05)
        unweighted = d.run_experiment(small_config(replications=4))
        assert unweighted[0].mean_effective_n == 400.0


def _scalar_outcome(estimate, *args):
    """(estimate or None, refusal cause or None, flags) of one scalar API call."""
    try:
        est = estimate(*args)
    except d.DegenerateNumeratorError:
        return None, "nonpositive_log_numerator", ()
    except d.MonteCarloRedrawCapError:
        return None, "monte_carlo_redraw_cap", ()
    except d.DegenerateDenominatorError:
        return None, "nonpositive_denominator", ()
    return est, None, est.flags


def _scalar_replication(config, r):
    """Per-cell outcomes of replication ``r`` from the public scalar API,
    on the engine's substreams and in its cell order."""
    rng = np.random.default_rng(_substream(config.master_seed, r, _PURPOSE_DATA))
    sums = d.compute_sums_from_arrays(
        *d.generate_arrays(config.n, config.weighted, config.true_ratio, rng), config.bounds
    )
    outcomes = [_scalar_outcome(d.public_estimate, sums, config.scale, config.level)]
    for eps in config.epsilons:
        released = d.release(
            sums, config.bounds, d.PrivacyBudget(eps, config.delta), config.mechanism,
            np.random.default_rng(_substream(config.master_seed, r, _PURPOSE_RELEASE, eps)),
        )
        mc_rng = np.random.default_rng(_substream(config.master_seed, r, _PURPOSE_MC, eps))
        outcomes += [
            _scalar_outcome(d.ci_no_correction, released, config.scale, config.level),
            _scalar_outcome(
                d.ci_monte_carlo, released, config.scale, config.level, config.mc_draws, mc_rng
            ),
            _scalar_outcome(d.ci_analytical, released, config.scale, config.level),
        ]
    return outcomes


class TestBatchedEngineEquivalence:
    """The block engine against a per-replication loop over the scalar API."""

    @pytest.mark.parametrize("scale", [d.Scale.RATIO, d.Scale.LOG])
    @pytest.mark.parametrize(
        "mechanism, delta", [(d.MechanismKind.GAUSSIAN, 1e-6), (d.MechanismKind.LAPLACE, 0.0)]
    )
    def test_per_replication_results_match_scalar_api(self, mechanism, delta, scale):
        # Epsilon 0.02 on 100 weighted records makes refusals and Monte Carlo
        # redraws common.  The block runs both scales in one pass, as simulate
        # --scale both does; ``scale`` picks the one checked here.  The rows
        # come from a pool of two, which gets blocks of 33 and 34 replications.
        config = d.SimulationConfig(
            n=100, epsilons=(0.02, 1.0), weighted=True, mechanism=mechanism, delta=delta,
            scale=scale, replications=67, mc_draws=1000, master_seed=5,
        )
        assert _block_cuts(config.replications, config.mc_draws) == [0, 33, 67]
        scales = (d.Scale.RATIO, d.Scale.LOG)
        engine = _run_block(config, scales, 0, config.replications)[scales.index(scale)]
        truth = math.log(config.true_ratio) if scale is d.Scale.LOG else config.true_ratio
        alpha = 1.0 - config.level

        expected = np.full(engine.metrics.shape, np.nan)
        causes = Counter()
        flags = Counter()
        for r in range(config.replications):
            for cell, (est, cause, est_flags) in enumerate(_scalar_replication(config, r)):
                causes[cell, cause] += 1
                for flag in est_flags:
                    flags[cell, flag] += 1
                if est is not None:
                    expected[r, cell] = (
                        est.width,
                        float(est.ci_lower <= truth <= est.ci_upper),
                        d.interval_score(est.ci_lower, est.ci_upper, truth, alpha),
                    )
        np.testing.assert_allclose(engine.metrics, expected, rtol=1e-12, atol=0.0, equal_nan=True)
        assert sum(n for (_, cause), n in causes.items() if cause is not None) > 0
        assert sum(n for (_, flag), n in flags.items() if flag == "monte_carlo_redraw") > 0

        rows = d.run_experiment(config, threads=2)
        for cell, row in enumerate(rows):
            assert row.refusals_by_cause == {c: causes[cell, c] for c in d.REFUSAL_CAUSES}
            assert row.flags == {f: flags[cell, f] for f in d.FLAGS}
            assert row.refusal_count == sum(row.refusals_by_cause.values())


class TestRunExperiments:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "mechanism, delta", [(d.MechanismKind.GAUSSIAN, 1e-6), (d.MechanismKind.LAPLACE, 0.0)]
    )
    def test_each_cell_equals_its_own_run(self, mechanism, delta, threads):
        # Two blocks of 33 and 34 replications; epsilon 0.02 brings refusals
        # and redraws, which differ between the scales.
        ratio = small_config(
            n=100, epsilons=(0.02, 1.0), weighted=True, mechanism=mechanism, delta=delta,
            replications=67, mc_draws=1000,
        )
        assert _block_cuts(ratio.replications, ratio.mc_draws) == [0, 33, 67]
        log = replace(ratio, scale=d.Scale.LOG)
        separate = [d.run_experiment(ratio), d.run_experiment(log)]
        assert d.run_experiments([ratio, log], threads) == separate
        assert d.run_experiments([log, ratio], threads) == separate[::-1]
        assert separate[0] != separate[1]

    @pytest.mark.parametrize(
        "change", [{"n": 401}, {"epsilons": (0.5, 1.0)}, {"master_seed": 98}, {"weighted": True}]
    )
    def test_cells_must_differ_only_in_scale(self, change):
        ratio = small_config()
        log = replace(ratio, scale=d.Scale.LOG, **change)
        with pytest.raises(d.InvalidConfigError, match="only in scale"):
            d.run_experiments([ratio, log])

    def test_needs_a_config(self):
        with pytest.raises(d.InvalidConfigError):
            d.run_experiments([])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "mechanism, delta", [(d.MechanismKind.GAUSSIAN, 1e-6), (d.MechanismKind.LAPLACE, 0.0)]
    )
    def test_rows_do_not_depend_on_block_layout(self, monkeypatch, mechanism, delta, threads):
        # A redraw-heavy cell, both scales in one pass, in blocks of at most 1
        # and 7 replications, at the default cap (blocks of 33 and 34) and in
        # one block.  A cap of 50 rejected replicates (1,000 draws) makes some
        # rows reach it, which no symmetric noise does at the default cap.  The
        # patched cap reaches pool workers only when they fork.
        ratio = d.SimulationConfig(
            n=100, epsilons=(0.02, 1.0), weighted=True, mechanism=mechanism, delta=delta,
            replications=67, mc_draws=1000, master_seed=5,
        )
        configs = [ratio, replace(ratio, scale=d.Scale.LOG)]
        monkeypatch.setattr(inference, "_REDRAW_CAP_PER_DRAW", 0.05)
        runs = {}
        for per_block in (1, 7, None, ratio.replications + 1):
            with monkeypatch.context() as patch:
                if per_block is not None:
                    patch.setattr(simulation, "_BLOCK_VALUES", per_block * ratio.mc_draws)
                cuts = _block_cuts(ratio.replications, ratio.mc_draws)
                runs[tuple(cuts)] = d.run_experiments(configs, threads)
        assert len(runs) == 4 and len({repr(cells) for cells in runs.values()}) == 1
        rows = [row for cell in runs.popitem()[1] for row in cell]
        if threads == 1 or multiprocessing.get_start_method() == "fork":
            assert sum(row.refusals_by_cause["monte_carlo_redraw_cap"] for row in rows) > 0
        assert sum(row.flags["monte_carlo_redraw"] for row in rows) > 0


class TestBlockCuts:
    @settings(max_examples=200, deadline=None)
    @given(
        replications=st.integers(1, 20_000),
        mc_draws=st.integers(2, 2**18),
    )
    def test_even_blocks_under_the_cap(self, replications, mc_draws):
        cuts = _block_cuts(replications, mc_draws)
        sizes = np.diff(cuts)
        # Every replication once, in order, in blocks whose sizes differ by at most one.
        assert cuts[0] == 0 and cuts[-1] == replications and sizes.min() >= 1
        assert sizes.max() - sizes.min() <= 1
        # No block's Monte Carlo matrix passes the cap, unless it holds one replication.
        assert sizes.max() * mc_draws <= simulation._BLOCK_VALUES or sizes.max() == 1
        # The fewest blocks under the cap, so a one-block run stays one block.
        assert len(sizes) == -(-replications // max(1, simulation._BLOCK_VALUES // mc_draws))

    def test_known_layouts(self):
        # 1,000 replications at 200 draws: four blocks of 250, where a plain
        # cap of 327 would leave a last block of 19.
        assert _block_cuts(1000, 200) == [0, 250, 500, 750, 1000]
        assert _block_cuts(131, 1000) == [0, 43, 87, 131]
        assert _block_cuts(2, 200) == [0, 2]
        assert _block_cuts(3, 2**17) == [0, 1, 2, 3]


class TestBlockSums:
    """The chunked data path of a block against a per-replication loop of
    generate_arrays, compute_sums_from_arrays and kish_effective_n."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 700),
        weighted=st.booleans(),
        start=st.integers(0, 200),
        rows=st.integers(1, 90),
        master_seed=st.integers(0, 2**64 - 1),
        mc_draws=st.sampled_from([200, 1000, 2**14, 2**17]),
        chunk_values=st.sampled_from([None, 700, 1500]),
    )
    def test_matches_per_replication_loop(
        self, n, weighted, start, rows, master_seed, mc_draws, chunk_values
    ):
        # The range is cut where run_experiments cuts the blocks of a run of
        # start + rows replications; chunks of max(1, chunk_values // n) rows
        # cut each block.
        config = small_config(
            n=n, weighted=weighted, master_seed=master_seed, replications=start + rows, mc_draws=mc_draws
        )
        run_cuts = _block_cuts(config.replications, mc_draws)
        cuts = [start] + [c for c in run_cuts if start < c < start + rows] + [start + rows]
        with pytest.MonkeyPatch.context() as patch:
            if chunk_values is not None:
                patch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
            parts = [_block_sums(config, a, b) for a, b in zip(cuts, cuts[1:])]
        exact = np.concatenate([p[0] for p in parts])
        kish = np.concatenate([p[1] for p in parts])
        assert exact.shape == (rows, len(SUM_FIELDS)) and kish.shape == (rows,)
        for i, r in enumerate(range(start, start + rows)):
            rng = np.random.default_rng(_substream(master_seed, r, _PURPOSE_DATA))
            y, s, w = d.generate_arrays(n, weighted, config.true_ratio, rng)
            sums = d.compute_sums_from_arrays(y, s, w, config.bounds)
            assert exact[i].tobytes() == np.array([getattr(sums, f) for f in SUM_FIELDS]).tobytes()
            assert kish[i].tobytes() == np.float64(d.kish_effective_n(sums)).tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 500),
        rows=st.integers(1, 12),
        true_ratio=st.floats(1.0, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_datasets_lie_within_bounds(self, weighted, n, rows, true_ratio, seed):
        # _block_sums sums the datasets it draws without checking their
        # records, so they must lie within the config's bounds by construction.
        bounds = small_config(n=n, weighted=weighted, true_ratio=true_ratio).bounds
        y, s, w = np.empty((3, rows, n))
        for i, row in enumerate(zip(y, s, w)):
            simulation._draw_dataset(np.random.default_rng([seed, i]), weighted, *row)
        simulation._finish_datasets(weighted, true_ratio, y, s, w)
        for values, low, high in ((y, bounds.y_low, bounds.y_high), (s, bounds.s_low, bounds.s_high),
                                  (w, bounds.w_low, bounds.w_high)):
            assert ((values >= low) & (values <= high)).all()
        assert ((y == 0.0) | (y == 1.0)).all()
        assert weighted or (w == 1.0).all()


def _float_from_bits(bits):
    return float(np.uint64(bits).view(np.float64))


_EPSILONS = st.one_of(
    st.none(),
    st.floats(min_value=np.finfo(np.float64).tiny, max_value=1e300),
    # Subnormals whose bit pattern is one 32-bit key word.
    st.integers(1, 2**32 - 1).map(_float_from_bits),
)


class TestStreamSeeds:
    """The vectorised seeding against numpy's SeedSequence."""

    @given(
        master_seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 20),
        purpose=st.integers(0, 2),
        epsilon=_EPSILONS,
    )
    @settings(max_examples=300, deadline=None)
    def test_every_row_matches_numpy(self, master_seed, start, rows, purpose, epsilon):
        stop = min(start + rows, 2**32)
        engine = generators(state_words(master_seed, start, stop, [(purpose, epsilon)])[0])
        assert len(engine) == stop - start
        for r, rng in zip(range(start, stop), engine):
            oracle = np.random.default_rng(_substream(master_seed, r, purpose, epsilon))
            assert rng.bit_generator.state == oracle.bit_generator.state

    @given(
        master_seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
        keys=st.lists(st.tuples(st.integers(0, 2), _EPSILONS), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    # Keys of one, two and three words after the replication index (no
    # epsilon; a subnormal or zero one; a normal one), mixed in one call.
    @example(master_seed=5, start=3, rows=4,
             keys=[(1, 0.5), (0, None), (2, _float_from_bits(7)), (2, 0.5), (1, 0.0)])
    def test_batched_keys_equal_single_keys(self, master_seed, start, rows, keys):
        stop = min(start + rows, 2**32)
        batched = state_words(master_seed, start, stop, keys)
        assert batched.shape == (len(keys), stop - start, 4) and batched.dtype == np.uint64
        for words, key in zip(batched, keys):
            assert words.tobytes() == state_words(master_seed, start, stop, [key])[0].tobytes()
            for r, row in zip(range(start, stop), words):
                oracle = _substream(master_seed, r, *key).generate_state(4, np.uint64)
                assert row.tobytes() == oracle.tobytes()

    def test_seed_answers_only_pcg64s_request(self):
        words = state_words(7, 0, 1, [(_PURPOSE_DATA, None)])[0, 0]
        assert _Seed(words).generate_state(4, np.uint64) is words
        for request in ((4, np.uint32), (8, np.uint64), (2, np.uint64), (4,)):
            with pytest.raises(ValueError, match="generate_state"):
                _Seed(words).generate_state(*request)

    def test_package_import_leaves_numpy_random_unloaded(self):
        # Only the block runner loads numpy.random, so a pooled simulate's
        # parent process and every command's start-up stay without it.
        code = "import dpratio, dpratio.cli, sys; assert 'numpy.random' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestConfigValidation:
    def test_laplace_requires_zero_delta(self):
        with pytest.raises(d.InvalidConfigError):
            small_config(mechanism=d.MechanismKind.LAPLACE, delta=1e-6)
        small_config(mechanism=d.MechanismKind.LAPLACE, delta=0.0)

    def test_gaussian_requires_positive_delta(self):
        with pytest.raises(d.InvalidConfigError):
            small_config(delta=0.0)

    def test_epsilons_must_be_positive(self):
        with pytest.raises(d.InvalidConfigError):
            small_config(epsilons=(0.5, -1.0))
        with pytest.raises(d.InvalidConfigError):
            small_config(epsilons=())

    def test_level_in_unit_interval(self):
        with pytest.raises(d.InvalidConfigError):
            small_config(level=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 1), ("replications", 0), ("mc_draws", 1), ("true_ratio", 0.9),
            ("true_ratio", math.nan), ("true_ratio", math.inf), ("master_seed", 2**64),
            ("delta", 1.5), ("replications", 2**32 + 1), ("epsilons", (5e-324,)),
            ("delta", 5e-324), ("epsilons", (1e-300,)), ("epsilons", (0.5, 1.0, 0.5)),
            # A dict holds every override of an input that needs more than one.
            pytest.param(
                "epsilons", {"epsilons": (1e-300,), "mechanism": d.MechanismKind.LAPLACE, "delta": 0.0},
                id="epsilons-1e-300-laplace",
            ),
            # Values of the wrong type, each named by the parser of its field.
            ("n", "abc"), ("epsilons", 0.5), ("weighted", "no"), ("replications", 2.5),
            ("level", True), ("delta", "0"), ("mechanism", "gausian"), ("scale", "both"),
            ("n", True), ("epsilons", (0.5, "1")),
        ],
    )
    def test_out_of_range_setting_rejected(self, field, value):
        overrides = value if isinstance(value, dict) else {field: value}
        with pytest.raises(d.InvalidConfigError, match=field):
            small_config(**overrides)

    def test_values_parse_to_the_member_config(self):
        by_value = small_config(mechanism="gaussian", scale="log", epsilons=[0.5])
        by_member = small_config(mechanism=d.MechanismKind.GAUSSIAN, scale=d.Scale.LOG)
        assert by_value == by_member
        assert (by_value.mechanism, by_value.scale) == (d.MechanismKind.GAUSSIAN, d.Scale.LOG)
        assert repr(d.run_experiment(by_value)) == repr(d.run_experiment(by_member))

    def test_numbers_are_stored_as_python_numbers(self):
        config = d.SimulationConfig(
            n=np.int64(200), epsilons=(np.float32(0.5), 1), true_ratio=2, level=np.float64(0.9),
            mechanism="laplace", delta=0, master_seed=np.uint64(7),
        )
        text = json.dumps(config.to_json_dict())
        assert type(config.n) is int and type(config.master_seed) is int
        assert all(type(e) is float for e in config.epsilons)
        assert [type(config.delta), type(config.true_ratio), type(config.level)] == [float] * 3
        for item in ('"n": 200', '"epsilons": [0.5, 1.0]', '"delta": 0.0', '"true_ratio": 2.0',
                     '"mechanism": "laplace"', '"master_seed": 7'):
            assert item in text

    def test_delta_defaults_per_mechanism(self):
        laplace = d.SimulationConfig(n=100, mechanism=d.MechanismKind.LAPLACE)
        assert laplace.delta == 0.0 == d.default_delta(d.MechanismKind.LAPLACE)
        gaussian = d.SimulationConfig(n=100)
        assert gaussian.delta == 1e-6 == d.default_delta(d.MechanismKind.GAUSSIAN)
        assert gaussian.n == 100 and d.SimulationConfig().n == 5000
        assert laplace.to_json_dict()["delta"] == 0.0


class TestCsvOutput:
    def test_rows_roundtrip(self, tmp_path):
        rows = d.run_experiment(small_config())
        path = tmp_path / "rows.csv"
        d.write_rows_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,epsilon,width,coverage,score,effective_n,refusals"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "public" and first[1] == ""
        assert float(first[2]) == rows[0].mean_width

    def test_json_dict_replaces_nan(self):
        row = d.ExperimentRow(d.Method.PUBLIC, None, math.nan, math.nan, math.nan, 5.0, 6)
        payload = json.loads(json.dumps(row.to_json_dict()))
        assert payload["width"] is None
        assert payload["refusals"] == 6
