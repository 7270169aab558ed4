"""How ``reservoir.predictions`` and the training fold plan a call: split
in time segments or not.

An open-loop call of a few long sequences is stepped as P warmed-up
segments per sequence in one chunk, and each seam is checked; when a seam
fails, the call is stepped again unsplit. ``readout.accumulate_dataset``
of a few long sequences is split the same way, teacher-forced too, and
after a failed seam starts over and folds the call unsplit. The tests
observe the plan through the ``_step_blocks`` calls it makes (the
``step_calls`` fixture). Seam rounding depends on the BLAS thread count,
so CI runs this file on one thread as well.
"""

import numpy as np
import pytest
from test_evaluation import traced_peak

from echochan import reservoir as reservoir_mod
from echochan.channelsim import SequenceDataset
from echochan.errors import ShapeError
from echochan.evaluation import evaluate, mape
from echochan.readout import ReadoutModel, Ridge, accumulate_dataset
from echochan.reservoir import (
    BLOCK,
    CHUNK,
    FOLD_STEPS,
    WARMUP,
    Activation,
    ReservoirConfig,
    build,
    harvest,
    predictions,
    state_blocks,
)

# 937 = T - WARMUP is prime, so no segment count divides it
STEPS = 1001
# largest difference allowed between segmented and serial predictions,
# relative to the largest prediction
PREDICTION_RTOL = 1e-12


def config(**overrides):
    base = dict(input_dim=2, reservoir_size=60, output_dim=2, seed=11)
    base.update(overrides)
    return ReservoirConfig(**base)


def inputs(sequences, steps=STEPS, seed=12):
    return np.random.default_rng(seed).uniform(-1, 1, size=(sequences, 2, steps))


def readout(n, seed=13):
    return np.random.default_rng(seed).uniform(-1, 1, size=(2, n))


def split_width(sequences, steps=STEPS):
    """S * P, the chunk width of an open-loop call split in P segments."""
    warmup = reservoir_mod.WARMUP
    return sequences * min(CHUNK // sequences, (steps - warmup) // warmup)


def fold_width(sequences, steps=STEPS, n=60, channels=2, rows=BLOCK):
    """S * P of a split fold: the most segments, at most as many as
    ``split_width`` gives, whose block holds ``FOLD_STEPS`` steps once the
    segment inputs (``channels`` per step, the teacher's too), the step
    temporaries and the seam copies (5 N per chunk row) are taken from the
    unsplit fold's S * min(T, ``rows``) state rows; None when none does.
    ``predictions`` plans the same way from its own unsplit rows,
    ``CHUNK * BLOCK // S`` per sequence."""
    warmup = reservoir_mod.WARMUP
    for parts in range(split_width(sequences, steps) // sequences, 1, -1):
        width, window = parts * sequences, warmup + -(-(steps - warmup) // parts)
        budget = sequences * min(steps, rows) * n - width * (5 * n + channels * window)
        if budget // (width * n) >= FOLD_STEPS:
            return width
    return None


def widths(step_calls):
    return [width for width, _, _ in step_calls]


def serial_predictions(r, u, w_out):
    """``predictions`` unsplit: a ``WARMUP`` as long as the sequences
    leaves no room for 2 segments."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reservoir_mod, "WARMUP", u.shape[2])
        return predictions(r, u, w_out)


def serial_report(r, model, dataset):
    targets = dataset.targets[:, :, r.config.washout :]
    return mape(targets, serial_predictions(r, dataset.inputs, model.w_out))


def dataset(sequences, steps=STEPS, seed=14):
    rng = np.random.default_rng(seed)
    shape = (sequences, 2, steps)
    return SequenceDataset(inputs=rng.uniform(-1, 1, shape), targets=rng.uniform(-1, 1, shape))


def unsplit_fold(r, data):
    """``accumulate_dataset`` unsplit: a ``WARMUP`` as long as the
    sequences leaves no room for 2 segments."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reservoir_mod, "WARMUP", data.seq_len)
        return accumulate_dataset(r, data)


class TestMatchesSerial:
    @pytest.mark.parametrize("sequences", [1, 2, CHUNK // 2 - 1])
    @pytest.mark.parametrize("washout", [0, 150])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_predictions(self, step_calls, activation, washout, sequences):
        r = build(config(activation=activation, washout=washout))
        u, w_out = inputs(sequences), readout(60)
        segmented = predictions(r, u, w_out)
        # one pass, split, with every seam holding
        assert split_width(sequences) > sequences
        assert widths(step_calls) == [split_width(sequences)]
        expected = serial_predictions(r, u, w_out)
        assert widths(step_calls) == [split_width(sequences), sequences]
        assert segmented.shape == expected.shape == (sequences, 2, STEPS - washout)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(segmented, expected, rtol=0, atol=PREDICTION_RTOL * scale)

    def test_blocks_keep_fold_steps(self, step_calls):
        # at N = 20, 16 segments of one sequence of 8000 steps leave blocks
        # of under FOLD_STEPS steps: the call takes the most segments that
        # keep FOLD_STEPS, as the fold does
        steps = 8000
        r = build(config(reservoir_size=20))
        u, w_out = inputs(1, steps=steps), readout(20)
        segmented = predictions(r, u, w_out)
        width = fold_width(1, steps, n=20, rows=CHUNK * BLOCK)
        assert width is not None and 1 < width < split_width(1, steps)
        assert widths(step_calls) == [width]
        assert step_calls[0][1] >= FOLD_STEPS
        expected = serial_predictions(r, u, w_out)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(segmented, expected, rtol=0, atol=PREDICTION_RTOL * scale)

    def test_evaluate_scores_the_segments(self, step_calls):
        r = build(config())
        model = ReadoutModel(w_out=readout(60), method=Ridge())
        data = dataset(2)
        report = evaluate(r, model, data)
        assert widths(step_calls) == [split_width(2)]
        assert report == mape(data.targets, predictions(r, data.inputs, model.w_out))
        serial = serial_report(r, model, data)
        assert report.mape_percent == pytest.approx(serial.mape_percent, rel=1e-12, abs=0)
        assert report.mse == pytest.approx(serial.mse, rel=1e-12, abs=0)


class TestStaysSerial:
    def test_too_short_to_split(self, step_calls):
        # 2 segments need WARMUP warm-up steps and at least WARMUP kept steps each
        r = build(config())
        predictions(r, inputs(1, steps=3 * WARMUP - 1), readout(60))
        assert widths(step_calls) == [1]
        predictions(r, inputs(1, steps=3 * WARMUP), readout(60))
        assert widths(step_calls) == [1, 2]

    def test_wide_sets_are_not_split(self, step_calls):
        r = build(config())
        predictions(r, inputs(CHUNK // 2), readout(60))
        assert widths(step_calls) == [CHUNK // 2]

    def test_arguments_checked_before_stepping(self, step_calls):
        # predictions meets every check that state_blocks makes, with the
        # same message, before any step: it reads no width from its inputs
        r = build(config(washout=30))
        cases = [
            (np.zeros((2, 300)), readout(60), r"S x 2 x T, got shape \(2, 300\)"),
            (np.zeros(300), readout(60), r"S x 2 x T, got shape \(300,\)"),
            (np.float64(1.0), readout(60), r"S x 2 x T, got shape \(\)"),
            (np.zeros((1, 3, 300)), readout(60), r"S x 2 x T, got shape \(1, 3, 300\)"),
            (inputs(1, steps=30), readout(60), "length 30 leaves no states after washout 30"),
            (inputs(1), readout(61), r"w_out must be 2 x 60, got shape \(2, 61\)"),
        ]
        for u, w_out, message in cases:
            with pytest.raises(ShapeError, match=message) as trained:
                state_blocks(r, u, w_out=w_out)
            with pytest.raises(ShapeError, match=message) as predicted:
                predictions(r, u, w_out)
            assert str(predicted.value) == str(trained.value)
        assert step_calls == []

    @pytest.mark.parametrize("sequences", [1, 2])
    def test_feedback_is_never_split(self, step_calls, sequences):
        r = build(config(use_feedback=True))
        model = ReadoutModel(w_out=readout(60) * 0.05, method=Ridge())
        data = dataset(sequences)
        report = evaluate(r, model, data)
        assert widths(step_calls) == [sequences]
        assert report == serial_report(r, model, data)

    @pytest.mark.parametrize(
        "patch", [("WARMUP", 2), ("SEAM_TOL", -1.0)], ids=["short-warmup", "no-tolerance"]
    )
    @pytest.mark.parametrize("washout", [0, 150])
    def test_failed_seam_gives_serial_bytes(self, monkeypatch, step_calls, patch, washout):
        monkeypatch.setattr(reservoir_mod, *patch)
        r = build(config(washout=washout))
        model = ReadoutModel(w_out=readout(60), method=Ridge())
        data = dataset(2)
        report = evaluate(r, model, data)
        # the split pass, then the same call stepped again unsplit
        assert widths(step_calls) == [split_width(2), 2]
        assert report == serial_report(r, model, data)


class TestMemory:
    """Segments hold no more at once than one unsplit chunk of states."""

    N = 300
    # the segment plan and its generators: 1.6 KB measured
    OBJECTS = 4096

    @pytest.mark.parametrize("sequences", [1, 2, CHUNK // 2 - 1])
    @pytest.mark.parametrize("steps", [578, 4000])
    def test_peak_no_higher_than_serial(self, monkeypatch, step_calls, sequences, steps):
        r = build(config(reservoir_size=self.N))
        model = ReadoutModel(w_out=readout(self.N) * 0.05, method=Ridge())
        data = dataset(sequences, steps=steps)
        width = split_width(sequences, steps)
        # each plan runs once untraced, so one-time allocations count for neither
        evaluate(r, model, data)
        segmented = traced_peak(lambda: evaluate(r, model, data))
        # no room for 2 segments
        monkeypatch.setattr(reservoir_mod, "WARMUP", steps)
        evaluate(r, model, data)
        serial = traced_peak(lambda: evaluate(r, model, data))
        assert widths(step_calls) == [width] * 2 + [sequences] * 2
        assert segmented <= serial, f"segmented peak {segmented} bytes, serial {serial}"

    @pytest.mark.parametrize(
        "patch", [("WARMUP", 2), ("SEAM_TOL", -1.0)], ids=["short-warmup", "no-tolerance"]
    )
    def test_failed_seam_peak_no_higher_than_serial(self, monkeypatch, step_calls, patch):
        # the split block is dropped before the unsplit call steps its own;
        # only the plan and its generators, a few small Python objects, stay
        monkeypatch.setattr(reservoir_mod, *patch)
        r = build(config(reservoir_size=self.N))
        u, w_out = inputs(2), readout(self.N) * 0.05
        width = split_width(2)
        # each plan runs once untraced, so one-time allocations count for neither
        predictions(r, u, w_out)
        fallen_back = traced_peak(lambda: predictions(r, u, w_out))
        # no room for 2 segments
        monkeypatch.setattr(reservoir_mod, "WARMUP", STEPS)
        predictions(r, u, w_out)
        serial = traced_peak(lambda: predictions(r, u, w_out))
        assert widths(step_calls) == [width, 2] * 2 + [2] * 2
        assert fallen_back <= serial + self.OBJECTS, f"peak {fallen_back} bytes, serial {serial}"


class TestFold:
    """``accumulate_dataset`` of fewer than ``CHUNK // 2`` sequences of at
    least 3 ``WARMUP`` steps is split in time segments; anything else, or a
    failed seam, is folded unsplit."""

    # largest difference allowed between the split and unsplit fold's a and
    # B, relative to the largest entry of each: 2.1e-15 measured over this
    # class's calls, at N = 60 and 300, with feedback off and on
    ACCUMULATOR_RTOL = 1e-13

    def check_close(self, split, unsplit, samples):
        assert split.samples_seen == unsplit.samples_seen == samples
        for name in ("a", "b"):
            got, expected = getattr(split, name), getattr(unsplit, name)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(got, expected, rtol=0, atol=self.ACCUMULATOR_RTOL * scale)

    @pytest.mark.parametrize("sequences", [1, 2, CHUNK // 2 - 1])
    @pytest.mark.parametrize("washout", [0, 150])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_matches_unsplit(self, step_calls, activation, washout, sequences):
        r = build(config(activation=activation, washout=washout))
        data = dataset(sequences)
        split = accumulate_dataset(r, data)
        # one pass, split, with every seam holding
        width = fold_width(sequences)
        assert width is not None and width > sequences
        assert widths(step_calls) == [width]
        unsplit = unsplit_fold(r, data)
        assert widths(step_calls) == [width, CHUNK]
        self.check_close(split, unsplit, sequences * (STEPS - washout))

    @pytest.mark.parametrize("sequences", [1, 2, CHUNK // 2 - 1])
    @pytest.mark.parametrize("washout", [0, 150])
    def test_teacher_forced_feedback(self, step_calls, washout, sequences):
        # the teacher is cut into segments with the inputs, so each segment
        # has 4 input channels; at N = 60 one sequence would not split
        r = build(config(use_feedback=True, reservoir_size=300, washout=washout))
        data = dataset(sequences)
        split = accumulate_dataset(r, data)
        width = fold_width(sequences, n=300, channels=4)
        assert width is not None and width > sequences
        assert widths(step_calls) == [width]
        self.check_close(split, unsplit_fold(r, data), sequences * (STEPS - washout))

    @pytest.mark.parametrize(
        "patch", [("WARMUP", 2), ("SEAM_TOL", -1.0)], ids=["short-warmup", "no-tolerance"]
    )
    @pytest.mark.parametrize("washout", [0, 150])
    @pytest.mark.parametrize("use_feedback", [False, True])
    def test_failed_seam_gives_unsplit_bytes(
        self, monkeypatch, step_calls, patch, washout, use_feedback
    ):
        monkeypatch.setattr(reservoir_mod, *patch)
        r = build(config(use_feedback=use_feedback, reservoir_size=300, washout=washout))
        data = dataset(2)
        refolded = accumulate_dataset(r, data)
        # the split pass, then the fold started over on the unsplit blocks,
        # the training layout's: both sequences in one chunk of CHUNK
        width = fold_width(2, n=300, channels=4 if use_feedback else 2)
        assert width is not None
        assert widths(step_calls) == [width, CHUNK]
        unsplit = unsplit_fold(r, data)
        assert refolded.samples_seen == unsplit.samples_seen == 2 * (STEPS - washout)
        assert refolded.a.tobytes() == unsplit.a.tobytes()
        assert refolded.b.tobytes() == unsplit.b.tobytes()

    def test_wide_sets_are_not_split(self, step_calls):
        accumulate_dataset(build(config()), dataset(CHUNK // 2))
        assert widths(step_calls) == [CHUNK]

    def test_too_short_to_split(self, step_calls):
        r = build(config())
        accumulate_dataset(r, dataset(1, steps=3 * WARMUP - 1))
        assert widths(step_calls) == [CHUNK]
        accumulate_dataset(r, dataset(1, steps=3 * WARMUP))
        assert widths(step_calls) == [CHUNK, fold_width(1, steps=3 * WARMUP)]

    def test_harvest_and_initial_states_are_not_split(self, step_calls):
        # acceptance test_02 measures fading memory from given start states
        r = build(config())
        u = inputs(2)
        harvest(r, u[0])
        list(state_blocks(r, u, initial_state=np.full(60, 0.5), split=True))
        assert widths(step_calls) == [CHUNK, CHUNK]
        list(state_blocks(r, u, split=True))
        assert widths(step_calls) == [CHUNK, CHUNK, fold_width(2)]

    @pytest.mark.parametrize("sequences", [1, 2, CHUNK // 2 - 1])
    @pytest.mark.parametrize("steps", [578, 4000])
    def test_peak_no_higher_than_unsplit(self, monkeypatch, step_calls, sequences, steps):
        n = TestMemory.N
        r = build(config(reservoir_size=n))
        data = dataset(sequences, steps=steps)
        width = fold_width(sequences, steps, n=n)
        # each plan runs once untraced, so one-time allocations count for neither
        accumulate_dataset(r, data)
        split = traced_peak(lambda: accumulate_dataset(r, data))
        # no room for 2 segments
        monkeypatch.setattr(reservoir_mod, "WARMUP", steps)
        accumulate_dataset(r, data)
        unsplit = traced_peak(lambda: accumulate_dataset(r, data))
        assert width is not None
        assert widths(step_calls) == [width] * 2 + [CHUNK] * 2
        assert split <= unsplit, f"split fold peak {split} bytes, unsplit {unsplit}"
