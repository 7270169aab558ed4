"""Open-loop evaluation of a few long sequences in time segments.

``reservoir.segmented_predictions`` steps every sequence as P warmed-up
segments in one chunk and checks each seam; ``evaluation.evaluate`` falls
back to serial stepping when it returns None. Seam rounding depends on the
BLAS thread count, so CI runs this file on one thread as well.
"""

import numpy as np
import pytest
from test_evaluation import traced_peak

from echochan import evaluation
from echochan import reservoir as reservoir_mod
from echochan.channelsim import SequenceDataset
from echochan.errors import ShapeError
from echochan.evaluation import evaluate, mape
from echochan.readout import ReadoutModel, Ridge
from echochan.reservoir import (
    CHUNK,
    WARMUP,
    Activation,
    ReservoirConfig,
    build,
    segmented_predictions,
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


def serial_predictions(r, u, w_out):
    """What ``evaluate`` predicts without segments: one chunk, by blocks."""
    washout = r.config.washout
    out = np.empty((u.shape[0], w_out.shape[0], u.shape[2] - washout))
    for first, t0, states in state_blocks(r, u, w_out=w_out, chunk=len(u)):
        count, steps, _ = states.shape
        start = t0 - washout
        out[first : first + count, :, start : start + steps] = w_out @ states.transpose(0, 2, 1)
    return out


def serial_report(r, model, dataset):
    targets = dataset.targets[:, :, r.config.washout :]
    return mape(targets, serial_predictions(r, dataset.inputs, model.w_out))


def dataset(sequences, steps=STEPS, seed=14):
    rng = np.random.default_rng(seed)
    shape = (sequences, 2, steps)
    return SequenceDataset(inputs=rng.uniform(-1, 1, shape), targets=rng.uniform(-1, 1, shape))


class TestMatchesSerial:
    @pytest.mark.parametrize("sequences", [1, 2, CHUNK // 2 - 1])
    @pytest.mark.parametrize("washout", [0, 150])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_predictions(self, activation, washout, sequences):
        r = build(config(activation=activation, washout=washout))
        u, w_out = inputs(sequences), readout(60)
        segmented = segmented_predictions(r, u, w_out)
        assert segmented is not None, "the call was not split or a seam failed"
        expected = serial_predictions(r, u, w_out)
        assert segmented.shape == expected.shape == (sequences, 2, STEPS - washout)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(segmented, expected, rtol=0, atol=PREDICTION_RTOL * scale)

    def test_evaluate_scores_the_segments(self):
        r = build(config())
        model = ReadoutModel(w_out=readout(60), method=Ridge())
        data = dataset(2)
        report = evaluate(r, model, data)
        expected = mape(data.targets, segmented_predictions(r, data.inputs, model.w_out))
        assert report == expected
        serial = serial_report(r, model, data)
        assert report.mape_percent == pytest.approx(serial.mape_percent, rel=1e-12, abs=0)
        assert report.mse == pytest.approx(serial.mse, rel=1e-12, abs=0)


class TestStaysSerial:
    def test_too_short_to_split(self):
        # 2 segments need WARMUP warm-up steps and at least WARMUP kept steps each
        r = build(config())
        assert segmented_predictions(r, inputs(1, steps=3 * WARMUP - 1), readout(60)) is None
        assert segmented_predictions(r, inputs(1, steps=3 * WARMUP), readout(60)) is not None

    def test_wide_sets_are_not_split(self):
        r = build(config())
        assert segmented_predictions(r, inputs(CHUNK // 2), readout(60)) is None

    def test_arguments_checked_before_stepping(self):
        r = build(config())
        with pytest.raises(ShapeError, match="w_out must be 2 x 60"):
            segmented_predictions(r, inputs(1), readout(61))

    @pytest.mark.parametrize("sequences", [1, 2])
    def test_feedback_is_never_split(self, sequences):
        r = build(config(use_feedback=True))
        model = ReadoutModel(w_out=readout(60) * 0.05, method=Ridge())
        data = dataset(sequences)
        assert segmented_predictions(r, data.inputs, model.w_out) is None
        # the bytes of the unsplit closed loop
        assert evaluate(r, model, data) == serial_report(r, model, data)

    @pytest.mark.parametrize(
        "patch", [("WARMUP", 2), ("SEAM_TOL", -1.0)], ids=["short-warmup", "no-tolerance"]
    )
    @pytest.mark.parametrize("washout", [0, 150])
    def test_failed_seam_gives_serial_bytes(self, monkeypatch, patch, washout):
        monkeypatch.setattr(reservoir_mod, *patch)
        r = build(config(washout=washout))
        model = ReadoutModel(w_out=readout(60), method=Ridge())
        data = dataset(2)
        assert segmented_predictions(r, data.inputs, model.w_out) is None
        assert evaluate(r, model, data) == serial_report(r, model, data)


class TestMemory:
    """Segments hold no more at once than one serial chunk of states."""

    N = 300

    @pytest.mark.parametrize("sequences", [1, 2, CHUNK // 2 - 1])
    @pytest.mark.parametrize("steps", [578, 4000])
    def test_peak_no_higher_than_serial(self, monkeypatch, sequences, steps):
        r = build(config(reservoir_size=self.N))
        model = ReadoutModel(w_out=readout(self.N) * 0.05, method=Ridge())
        data = dataset(sequences, steps=steps)
        assert segmented_predictions(r, data.inputs, model.w_out) is not None
        # each path runs once untraced, so one-time allocations count for neither
        evaluate(r, model, data)
        segmented = traced_peak(lambda: evaluate(r, model, data))
        monkeypatch.setattr(evaluation, "segmented_predictions", lambda *args: None)
        evaluate(r, model, data)
        serial = traced_peak(lambda: evaluate(r, model, data))
        assert segmented <= serial, f"segmented peak {segmented} bytes, serial {serial}"
