"""Transfer workflow tests."""

import numpy as np
import pytest

from echochan import reservoir as reservoir_mod
from echochan.channelsim import Multipath, Tap, WaveformSpec, generate_dataset
from echochan.errors import ShapeError
from echochan.readout import Ridge, accumulate_dataset, fit, merge, solve
from echochan.reservoir import CHUNK, ReservoirConfig, build
from echochan.transfer import direct_transfer_eval, fine_tune

SOURCE_CHANNEL = Multipath(
    taps=(Tap(0, 0.8, 0.1), Tap(1, -0.3, 0.2), Tap(3, 0.15, -0.1)), snr_db=30.0
)
TARGET_CHANNEL = Multipath(taps=(Tap(0, 0.95, 0.1), Tap(1, -0.18, 0.12)), snr_db=26.0)


def wave(seed, bits=120):
    return WaveformSpec(
        bits_per_sequence=bits, samples_per_symbol=2, sequence_length=bits, seed=seed
    )


@pytest.fixture(scope="module")
def reservoir():
    return build(ReservoirConfig(input_dim=2, reservoir_size=60, output_dim=2, seed=40))


@pytest.fixture(scope="module")
def source(reservoir):
    return generate_dataset(wave(41), SOURCE_CHANNEL, 24)


@pytest.fixture(scope="module")
def target_train():
    return generate_dataset(wave(42), TARGET_CHANNEL, 24)


@pytest.fixture(scope="module")
def target_test():
    return generate_dataset(wave(43), TARGET_CHANNEL, 8)


class TestDirectTransfer:
    def test_same_distribution_is_comparable(self, reservoir, source):
        model = fit(reservoir, source, Ridge())
        same_dist = generate_dataset(wave(45), SOURCE_CHANNEL, 8)
        in_domain = direct_transfer_eval(reservoir, model, same_dist)
        trained_on = direct_transfer_eval(reservoir, model, source)
        assert in_domain.mape_percent < 3.0 * max(trained_on.mape_percent, 1.0)

    def test_cross_domain_is_worse_than_target_trained(
        self, reservoir, source, target_train, target_test
    ):
        model = fit(reservoir, source, Ridge())
        transferred = direct_transfer_eval(reservoir, model, target_test)
        target_model = fit(reservoir, target_train, Ridge())
        native = direct_transfer_eval(reservoir, target_model, target_test)
        assert transferred.mape_percent > native.mape_percent

    def test_deterministic(self, reservoir, source, target_test):
        model = fit(reservoir, source, Ridge())
        a = direct_transfer_eval(reservoir, model, target_test)
        b = direct_transfer_eval(reservoir, model, target_test)
        assert a.mape_percent == b.mape_percent


class TestFineTune:
    def test_alpha_zero_equals_target_fit(self, reservoir, source, target_train):
        tuned = fine_tune(reservoir, source, target_train, 0.0, Ridge())
        plain = fit(reservoir, target_train, Ridge())
        assert np.abs(tuned.w_out - plain.w_out).max() < 1e-12

    def test_alpha_one_equals_source_solve(self, reservoir, source, target_train):
        tuned = fine_tune(reservoir, source, target_train, 1.0, Ridge())
        source_only = solve(accumulate_dataset(reservoir, source), Ridge())
        np.testing.assert_array_equal(tuned.w_out, source_only.w_out)

    def test_half_blend_on_matched_domains_approximates_pooling(self, reservoir):
        # same distribution, equal sizes: blending halves both accumulators
        a = generate_dataset(wave(46), TARGET_CHANNEL, 16)
        b = generate_dataset(wave(47), TARGET_CHANNEL, 16)
        blended_model = fine_tune(reservoir, a, b, 0.5, Ridge())
        pooled = generate_dataset(wave(46), TARGET_CHANNEL, 16)
        acc_pooled = accumulate_dataset(reservoir, pooled)
        acc_pooled = merge(acc_pooled, accumulate_dataset(reservoir, b), (0.5, 0.5))
        pooled_model = solve(acc_pooled, Ridge())
        assert np.abs(blended_model.w_out - pooled_model.w_out).max() < 1e-6

    def test_blend_is_exact_convex_combination(self, reservoir, source, target_train):
        acc_s = accumulate_dataset(reservoir, source)
        acc_t = accumulate_dataset(reservoir, target_train)
        alpha = 0.3
        blended = merge(acc_s, acc_t, (alpha, 1 - alpha))
        np.testing.assert_array_equal(blended.a, alpha * acc_s.a + (1 - alpha) * acc_t.a)
        np.testing.assert_array_equal(blended.b, alpha * acc_s.b + (1 - alpha) * acc_t.b)

    def test_reservoir_unchanged_by_transfer(self, reservoir, source, target_train):
        w_before = reservoir.w.copy()
        w_in_before = reservoir.w_in.copy()
        fit(reservoir, source, Ridge())
        fine_tune(reservoir, source, target_train, 0.0, Ridge())
        np.testing.assert_array_equal(reservoir.w, w_before)
        np.testing.assert_array_equal(reservoir.w_in, w_in_before)

    def test_invalid_alpha_rejected(self, reservoir, source, target_train):
        with pytest.raises(ValueError):
            fine_tune(reservoir, source, target_train, 1.5, Ridge())

    def test_invalid_alpha_rejected_before_any_fold(
        self, reservoir, source, target_train, monkeypatch
    ):
        from echochan import readout, transfer

        folds = []
        monkeypatch.setattr(readout, "accumulate_dataset", lambda *args: folds.append(args))
        monkeypatch.setattr(transfer, "accumulate_dataset", lambda *args: folds.append(args))
        with pytest.raises(ValueError, match="alpha must be in"):
            fine_tune(reservoir, source, target_train, 1.5, Ridge())
        assert folds == []


class TestFewLongTargets:
    """The paper's low-data regime: a source fit blended with one or two
    long target recordings, whose fold is split in time segments."""

    # largest difference between w_out from a split and an unsplit target
    # fold, relative to the largest coefficient: at most 2.8e-11 measured
    # over 1 and 2 target sequences of 400, 600 and 1,000 steps, on 1 and 2
    # BLAS threads
    W_OUT_RTOL = 1e-9

    @pytest.mark.parametrize("sequences", [1, 2])
    def test_split_target_fold(self, monkeypatch, step_calls, reservoir, source, sequences):
        target = generate_dataset(wave(49, bits=600), TARGET_CHANNEL, sequences)
        tuned = fine_tune(reservoir, source, target, 0.5, Ridge())
        # the 24 short source sequences in chunks, the target split
        [source_width, target_width] = [width for width, _, _ in step_calls]
        assert source_width == CHUNK
        assert sequences < target_width <= CHUNK
        monkeypatch.setattr(reservoir_mod, "WARMUP", target.seq_len)  # no room to split
        unsplit = fine_tune(reservoir, source, target, 0.5, Ridge())
        assert [width for width, _, _ in step_calls[2:]] == [CHUNK, CHUNK]
        scale = np.abs(unsplit.w_out).max()
        np.testing.assert_allclose(tuned.w_out, unsplit.w_out, rtol=0, atol=self.W_OUT_RTOL * scale)


class TestPlan:
    """Direct transfer against fine-tuning, chained as ``echochan transfer`` runs them."""

    def test_fine_tune_beats_direct_on_shifted_domain(
        self, reservoir, source, target_train, target_test
    ):
        model = fit(reservoir, source, Ridge())
        direct_report = direct_transfer_eval(reservoir, model, target_test)
        tuned = fine_tune(reservoir, source, target_train, 0.0, Ridge())
        tuned_report = direct_transfer_eval(reservoir, tuned, target_test)
        assert tuned_report.mape_percent <= direct_report.mape_percent

    def test_mismatched_dims_rejected(self, reservoir, source, target_train):
        bad = generate_dataset(wave(48), TARGET_CHANNEL, 4)
        bad = type(bad)(inputs=bad.inputs[:, :1, :], targets=bad.targets, meta=bad.meta)
        model = fit(reservoir, source, Ridge())
        with pytest.raises(ShapeError):
            direct_transfer_eval(reservoir, model, bad)
        with pytest.raises(ShapeError):
            fine_tune(reservoir, source, bad, 0.0, Ridge())
