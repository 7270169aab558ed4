"""Metric and sweep harness tests."""

import tracemalloc

import numpy as np
import pytest

from echochan import reservoir as reservoir_mod
from echochan.channelsim import Multipath, SequenceDataset, Tap, WaveformSpec, generate_dataset
from echochan.errors import DegenerateMetricError, ShapeError
from echochan.evaluation import (
    SweepAxis,
    SweepSpec,
    evaluate,
    mape,
    run_sweep,
    split_indices,
    write_sweep_csv,
)
from echochan.readout import Lasso, ReadoutModel, Ridge, accumulate_dataset, fit
from echochan.reservoir import BLOCK, CHUNK, Activation, ReservoirConfig, build, harvest


def small_wave(seed=0, bits=80):
    return WaveformSpec(
        bits_per_sequence=bits, samples_per_symbol=2, sequence_length=bits, seed=seed
    )


IDENTITY_CHANNEL = Multipath(taps=(Tap(0, 1.0, 0.0),), snr_db=np.inf)
ECHO_CHANNEL = Multipath(taps=(Tap(0, 0.9, 0.2), Tap(2, -0.3, 0.15)), snr_db=28.0)


class TestMape:
    def test_worked_example_ten_percent(self):
        report = mape([100.0, 200.0], [110.0, 180.0])
        assert report.mape_percent == pytest.approx(10.0, abs=1e-12)
        assert report.samples_used == 2
        assert report.samples_excluded == 0

    def test_perfect_prediction(self):
        a = np.array([1.0, -2.0, 3.0])
        assert mape(a, a).mape_percent == 0.0

    def test_near_zero_actuals_excluded(self):
        report = mape([0.0, 1.0], [5.0, 1.0], epsilon=1e-9)
        assert report.mape_percent == 0.0
        assert report.samples_excluded == 1
        assert report.samples_used == 1

    def test_mse_covers_all_samples(self):
        report = mape([0.0, 1.0], [5.0, 1.0], epsilon=1e-9)
        assert report.mse == pytest.approx(12.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 2.0, size=100)
        f = a + rng.uniform(-0.1, 0.1, size=100)
        base = mape(a, f).mape_percent
        # power-of-two scales are exact in binary floating point
        for c in (-2.0, 0.25, 8.0):
            assert mape(c * a, c * f).mape_percent == base
        for c in (-3.0, 10.0):
            assert mape(c * a, c * f).mape_percent == pytest.approx(base, rel=1e-12)

    def test_all_excluded_is_degenerate(self):
        with pytest.raises(DegenerateMetricError):
            mape([0.0, 0.0], [1.0, 2.0], epsilon=1e-9)

    def test_zero_actuals_degenerate_with_default_epsilon(self):
        with pytest.raises(DegenerateMetricError):
            mape(np.zeros(5), np.ones(5))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mape(np.ones(3), np.ones(4))


class TestEvaluate:
    def setup_method(self):
        self.config = ReservoirConfig(input_dim=2, reservoir_size=150, output_dim=2, seed=19)
        self.reservoir = build(self.config)

    def test_identity_channel_under_one_percent(self):
        dataset = generate_dataset(small_wave(seed=20, bits=160), IDENTITY_CHANNEL, 12)
        model = fit(self.reservoir, dataset, Ridge(lam=1e-9))
        report = evaluate(self.reservoir, model, dataset)
        assert report.mape_percent < 1.0

    def test_zero_readout_scores_hundred_percent(self):
        dataset = generate_dataset(small_wave(seed=21), ECHO_CHANNEL, 4)
        model = ReadoutModel(w_out=np.zeros((2, 150)), method=Ridge())
        report = evaluate(self.reservoir, model, dataset)
        assert report.mape_percent == pytest.approx(100.0, abs=1e-9)

    def test_deterministic(self):
        dataset = generate_dataset(small_wave(seed=22), ECHO_CHANNEL, 4)
        model = fit(self.reservoir, dataset, Ridge())
        a = evaluate(self.reservoir, model, dataset)
        b = evaluate(self.reservoir, model, dataset)
        assert a.mape_percent == b.mape_percent
        assert a.mse == b.mse

    def test_report_counts_are_consistent(self):
        dataset = generate_dataset(small_wave(seed=23), ECHO_CHANNEL, 5)
        model = fit(self.reservoir, dataset, Ridge())
        report = evaluate(self.reservoir, model, dataset)
        assert report.samples_used + report.samples_excluded == dataset.targets.size

    def test_dimension_mismatch(self):
        dataset = generate_dataset(small_wave(seed=24), ECHO_CHANNEL, 3)
        other = build(ReservoirConfig(input_dim=3, reservoir_size=10, output_dim=2, seed=1))
        model = fit(self.reservoir, dataset, Ridge())
        with pytest.raises(ShapeError):
            evaluate(other, model, dataset)

    def test_feedback_reservoir_runs_closed_loop(self):
        config = ReservoirConfig(
            input_dim=2, reservoir_size=60, output_dim=2, use_feedback=True, seed=25
        )
        r = build(config)
        dataset = generate_dataset(small_wave(seed=26), ECHO_CHANNEL, 6)
        model = fit(r, dataset, Ridge())  # teacher-forced during training
        a = evaluate(r, model, dataset)  # own predictions fed back here
        b = evaluate(r, model, dataset)
        assert np.isfinite(a.mape_percent)
        assert a.mape_percent == b.mape_percent

    def test_diverged_states_raise_instead_of_scoring(self):
        from echochan.errors import NonFiniteError
        from echochan.readout import ReadoutModel
        from echochan.reservoir import Reservoir

        config = ReservoirConfig(
            input_dim=1,
            reservoir_size=1,
            output_dim=1,
            activation=Activation.RELU,
            target_spectral_radius=4.0,
            allow_unstable=True,
            seed=0,
        )
        r = Reservoir(
            config=config,
            w_in=np.array([[1.0]]),
            w=np.array([[4.0]]),
            w_fb=np.array([[0.0]]),
            achieved_radius=4.0,
        )
        inputs = np.ones((1, 1, 700))
        dataset = SequenceDataset(inputs=inputs, targets=inputs.copy())
        model = ReadoutModel(w_out=np.array([[0.0]]), method=Ridge())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                evaluate(r, model, dataset)


class TestEvaluateMatchesHarvest:
    """The one-chunk evaluation scores what per-sequence harvests predict."""

    @pytest.fixture(params=["shipped", "small"])
    def chunking(self, request, monkeypatch):
        # small: a budget of 8 state rows, so evaluation steps 3 chunks of
        # 1-step blocks
        if request.param == "small":
            monkeypatch.setattr(reservoir_mod, "CHUNK", 2)
            monkeypatch.setattr(reservoir_mod, "BLOCK", 4)

    @pytest.mark.parametrize("feedback", [False, True], ids=["open-loop", "closed-loop"])
    def test_equals_per_sequence_predictions(self, chunking, feedback):
        config = ReservoirConfig(
            input_dim=2, reservoir_size=60, output_dim=2, use_feedback=feedback, washout=5, seed=27
        )
        r = build(config)
        dataset = generate_dataset(small_wave(seed=28), ECHO_CHANNEL, CHUNK + 3)
        model = fit(r, dataset, Ridge())
        predictions = np.stack(
            [model.w_out @ harvest(r, u, w_out=model.w_out).states for u in dataset.inputs]
        )
        expected = mape(dataset.targets[:, :, config.washout :], predictions)
        report = evaluate(r, model, dataset)
        assert report.mape_percent == pytest.approx(expected.mape_percent, rel=1e-12, abs=0)
        assert report.mse == pytest.approx(expected.mse, rel=1e-12, abs=0)
        assert report.samples_used == expected.samples_used

    def test_empty_dataset(self):
        r = build(ReservoirConfig(input_dim=2, reservoir_size=10, output_dim=2, seed=29))
        empty = SequenceDataset(inputs=np.zeros((0, 2, 10)), targets=np.zeros((0, 2, 10)))
        model = ReadoutModel(w_out=np.zeros((2, 10)), method=Ridge())
        with pytest.raises(ShapeError, match="dataset contains no sequences"):
            evaluate(r, model, empty)


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """States are folded or scored block by block, never held whole."""

    N, STEPS, SEQUENCES = 100, 2000, 3 * CHUNK
    # one chunk's block of states plus a few N x N accumulators and products
    BUDGET = CHUNK * BLOCK * N * 8 + 8 * N * N * 8
    # one chunk's whole-sequence states (25.6 MB), which must not fit
    WHOLE = CHUNK * STEPS * N * 8

    def test_budget_excludes_whole_sequences(self):
        assert self.BUDGET < self.WHOLE / 4

    @pytest.fixture(params=[False, True], ids=["open-loop", "feedback"])
    def setting(self, request):
        r = build(
            ReservoirConfig(
                input_dim=2,
                reservoir_size=self.N,
                output_dim=2,
                use_feedback=request.param,
                seed=40,
            )
        )
        rng = np.random.default_rng(41)
        shape = (self.SEQUENCES, 2, self.STEPS)
        dataset = SequenceDataset(
            inputs=rng.uniform(-1, 1, shape), targets=rng.uniform(-1, 1, shape)
        )
        return r, dataset

    def test_accumulate_dataset(self, setting):
        r, dataset = setting
        peak = traced_peak(lambda: accumulate_dataset(r, dataset))
        assert peak < self.BUDGET, f"peak {peak} bytes, budget {self.BUDGET}"

    def test_evaluate(self, setting):
        r, dataset = setting
        model = ReadoutModel(w_out=np.full((2, self.N), 0.01), method=Ridge())
        # plus the stacked predictions that mape scores at once, and its temporaries
        budget = self.BUDGET + 6 * dataset.targets.nbytes
        peak = traced_peak(lambda: evaluate(r, model, dataset))
        assert peak < budget, f"peak {peak} bytes, budget {budget}"


class TestSplitIndices:
    def test_partition_is_disjoint_and_complete(self):
        train, test = split_indices(20, 0.8, seed=1)
        assert len(train) == 16
        assert len(test) == 4
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(20))

    def test_deterministic_per_seed(self):
        a_train, a_test = split_indices(15, 0.8, seed=2)
        b_train, b_test = split_indices(15, 0.8, seed=2)
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_test, b_test)

    def test_never_empty_sides(self):
        train, test = split_indices(2, 0.99, seed=3)
        assert len(train) == 1
        assert len(test) == 1


def sweep_spec(**overrides):
    dataset = generate_dataset(small_wave(seed=30, bits=120), ECHO_CHANNEL, 12)
    base = dict(
        axis=SweepAxis.RADIUS,
        values=(0.5,),
        base_config=ReservoirConfig(input_dim=2, reservoir_size=30, output_dim=2, seed=31),
        method=Ridge(),
        datasets=(("echo", dataset),),
        repeats=1,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestRunSweep:
    def test_single_value_sweep_matches_manual_cell(self):
        spec = sweep_spec()
        result = run_sweep(spec)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.error is None

        # reproduce the cell by hand with the same derived seed and split
        from echochan import seeding
        from echochan.reservoir import with_seed

        dataset = spec.datasets[0][1]
        train_idx, test_idx = split_indices(
            dataset.num_sequences,
            spec.train_fraction,
            seeding.child_seed(spec.base_config.seed, seeding.STREAM_SWEEP, 0),
        )
        cell_seed = seeding.child_seed(spec.base_config.seed, seeding.STREAM_SWEEP, 0, 0, 0)
        r = build(with_seed(spec.base_config, cell_seed))
        model = fit(r, dataset.subset(train_idx), spec.method)
        report = evaluate(r, model, dataset.subset(test_idx))
        assert row.mape_percent == report.mape_percent
        assert row.seed == cell_seed

    def test_dataset_given_twice_keeps_its_own_split(self):
        # each copy is split with the seed of its own position, not of the
        # last dataset with its name
        one = sweep_spec()
        twice = sweep_spec(datasets=one.datasets * 2)
        alone, first = run_sweep(one).rows[0], run_sweep(twice).rows[0]
        assert (first.mape_percent, first.mse, first.seed) == (
            alone.mape_percent,
            alone.mse,
            alone.seed,
        )

    def test_summary_keeps_a_dataset_given_twice_apart(self):
        twice = sweep_spec(datasets=sweep_spec().datasets * 2, repeats=2)
        result = run_sweep(twice)
        summary = result.summarize()
        assert [line["dataset"] for line in summary] == ["echo", "echo"]
        for line, rows in zip(summary, (result.rows[:2], result.rows[2:])):
            mapes = [row.mape_percent for row in rows]
            assert line["mean_mape_percent"] == pytest.approx(np.mean(mapes))

    def test_rerun_is_bit_identical(self):
        spec = sweep_spec(values=(0.3, 0.7), repeats=2)
        a = run_sweep(spec)
        b = run_sweep(spec)
        for row_a, row_b in zip(a.rows, b.rows):
            # everything except wall time must reproduce bit-exactly
            assert row_a.mape_percent == row_b.mape_percent
            assert row_a.mse == row_b.mse
            assert (row_a.axis, row_a.value, row_a.dataset, row_a.repeat, row_a.seed) == (
                row_b.axis,
                row_b.value,
                row_b.dataset,
                row_b.repeat,
                row_b.seed,
            )

    def test_error_rows_keep_sweep_alive(self):
        # a lasso allowed one cycle does not converge: a numeric failure
        spec = sweep_spec(axis=SweepAxis.REGRESSION, values=(Lasso(max_iter=1), Ridge()))
        result = run_sweep(spec)
        assert len(result.rows) == 2
        assert result.rows[0].error is not None
        assert np.isnan(result.rows[0].mape_percent)
        assert result.rows[1].error is None

    def test_axis_values_are_applied(self):
        spec = sweep_spec(axis=SweepAxis.SIZE, values=(20, 40), repeats=1)
        result = run_sweep(spec)
        assert [row.value for row in result.rows] == ["20", "40"]
        assert all(row.error is None for row in result.rows)

    def test_csv_schema(self, tmp_path):
        spec = sweep_spec()
        result = run_sweep(spec)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(result, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis,value,dataset,repeat,mape_percent,mse,train_seconds,seed"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "radius"
        assert fields[1] == "0.5"
        assert fields[2] == "echo"
        assert float(fields[4]) == result.rows[0].mape_percent

    def test_summary_aggregates_repeats(self):
        spec = sweep_spec(repeats=3)
        result = run_sweep(spec)
        summary = result.summarize()
        assert len(summary) == 1
        mapes = [row.mape_percent for row in result.rows]
        assert summary[0]["mean_mape_percent"] == pytest.approx(np.mean(mapes))
        assert summary[0]["std_mape_percent"] == pytest.approx(np.std(mapes))
