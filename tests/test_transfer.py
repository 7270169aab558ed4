"""Transfer workflow tests."""

import numpy as np
import pytest

from echochan import reservoir as reservoir_mod
from echochan.channelsim import Multipath, SequenceDataset, Tap, WaveformSpec, generate_dataset
from echochan.errors import ShapeError
from echochan.readout import Accumulators, Ridge, accumulate_dataset, fit, merge, solve
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
        assert tuned.w_out.tobytes() == plain.w_out.tobytes()

    def test_alpha_one_equals_source_solve(self, reservoir, source, target_train):
        tuned = fine_tune(reservoir, source, target_train, 1.0, Ridge())
        source_only = solve(accumulate_dataset(reservoir, source), Ridge())  # a source fit
        assert tuned.w_out.tobytes() == source_only.w_out.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_zero_weight_dataset_is_not_stepped(
        self, step_calls, reservoir, source, target_train, alpha
    ):
        # a 5-sequence target is stepped in one chunk of 5, and the 24
        # source sequences in chunks of 16 and 8: the blocks tell them apart
        target = target_train.subset(np.arange(5))
        acc = accumulate_dataset(reservoir, target, source, weights=(1 - alpha, alpha))
        folded = source if alpha else target
        [(_, _, blocks)] = step_calls
        assert {shape[0] for _, shape in blocks} == ({CHUNK, 8} if alpha else {5})
        assert acc.samples_seen == folded.num_sequences * folded.seq_len

    def test_half_blend_on_matched_domains_approximates_pooling(self, reservoir):
        # same distribution, equal sizes: blending halves both accumulators
        a = generate_dataset(wave(46), TARGET_CHANNEL, 16)
        b = generate_dataset(wave(47), TARGET_CHANNEL, 16)
        blended_model = fine_tune(reservoir, a, b, 0.5, Ridge())
        pooled = generate_dataset(wave(46), TARGET_CHANNEL, 16)
        summed = merge(accumulate_dataset(reservoir, pooled), accumulate_dataset(reservoir, b))
        # the plain sum halved, which is exact at 0.5
        halved = Accumulators(a=0.5 * summed.a, b=0.5 * summed.b, samples_seen=summed.samples_seen)
        pooled_model = solve(halved, Ridge())
        assert np.abs(blended_model.w_out - pooled_model.w_out).max() < 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_blend_is_one_weighted_fold(self, reservoir, source, target_train, alpha):
        # both datasets folded into one a and one b, each pair at its
        # dataset's weight: the weighted sum of their own folds up to
        # rounding (7e-16 relative measured), every row counted once
        acc_s = accumulate_dataset(reservoir, source)
        acc_t = accumulate_dataset(reservoir, target_train)
        blended = accumulate_dataset(reservoir, target_train, source, weights=(1 - alpha, alpha))
        for name in ("a", "b"):
            expected = alpha * getattr(acc_s, name) + (1 - alpha) * getattr(acc_t, name)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(getattr(blended, name), expected, rtol=0, atol=1e-13 * scale)
        assert blended.samples_seen == acc_s.samples_seen + acc_t.samples_seen
        np.testing.assert_array_equal(blended.b, blended.b.T)

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
        # the target split, then the 24 short source sequences in chunks
        [target_width, source_width] = [width for width, _, _ in step_calls]
        assert source_width == CHUNK
        assert sequences < target_width <= CHUNK
        monkeypatch.setattr(reservoir_mod, "WARMUP", target.seq_len)  # no room to split
        unsplit = fine_tune(reservoir, source, target, 0.5, Ridge())
        assert [width for width, _, _ in step_calls[2:]] == [CHUNK, CHUNK]
        scale = np.abs(unsplit.w_out).max()
        np.testing.assert_allclose(tuned.w_out, unsplit.w_out, rtol=0, atol=self.W_OUT_RTOL * scale)

    @pytest.mark.parametrize("use_feedback", [False, True])
    def test_failed_seams_restart_the_blend_unsplit(self, monkeypatch, step_calls, use_feedback):
        # a few long sequences on both sides, every seam failing: the
        # target's failed seam ends the split attempt, and the whole blend
        # runs once more with nothing split, the target then the source, as
        # an unsplit blend steps them and with its bytes
        r = build(ReservoirConfig(
            input_dim=2, reservoir_size=60, output_dim=2, seed=50, use_feedback=use_feedback
        ))
        source = generate_dataset(wave(51, bits=200), SOURCE_CHANNEL, 4)
        target = generate_dataset(wave(52, bits=200), TARGET_CHANNEL, 2)
        assert target.seq_len >= 3 * reservoir_mod.WARMUP
        monkeypatch.setattr(reservoir_mod, "SEAM_TOL", -1.0)
        restarted = fine_tune(r, source, target, 0.3, Ridge())
        [target_split, target_unsplit, source_unsplit] = step_calls
        assert target_split[0] > 2  # split in segments
        assert target_unsplit[0] == source_unsplit[0] == CHUNK
        monkeypatch.setattr(reservoir_mod, "WARMUP", target.seq_len)  # nothing split
        unsplit = fine_tune(r, source, target, 0.3, Ridge())
        assert step_calls[3:] == [target_unsplit, source_unsplit]
        assert restarted.w_out.tobytes() == unsplit.w_out.tobytes()

    def test_failed_target_seam_steps_the_source_unsplit(self, monkeypatch, step_calls):
        # at radius 0.9 the target's seams fail, while the source's, driven
        # 100 times harder into tanh's saturation, hold when it is folded
        # alone; in a blend the target's failed seam restarts the whole
        # fold, so the source is stepped unsplit too
        r = build(ReservoirConfig(
            input_dim=2, reservoir_size=60, output_dim=2, seed=11, target_spectral_radius=0.9
        ))
        rng = np.random.default_rng(53)
        target, source = (
            SequenceDataset(
                inputs=scale * rng.uniform(-1, 1, (2, 2, 1001)),
                targets=rng.uniform(-1, 1, (2, 2, 1001)),
            )
            for scale in (1.0, 100.0)
        )
        accumulate_dataset(r, source)
        accumulate_dataset(r, target)
        [source_alone, target_split, target_unsplit] = step_calls
        assert source_alone[0] == target_split[0] > 2  # the source's one pass held
        assert target_unsplit[0] == CHUNK
        blended = fine_tune(r, source, target, 0.5, Ridge())
        assert step_calls[3:5] == [target_split, target_unsplit]
        assert step_calls[5][0] == CHUNK  # the source, unsplit
        monkeypatch.setattr(reservoir_mod, "WARMUP", target.seq_len)  # nothing split
        unsplit = fine_tune(r, source, target, 0.5, Ridge())
        assert step_calls[6:] == step_calls[4:6]
        assert blended.w_out.tobytes() == unsplit.w_out.tobytes()


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

    @pytest.mark.parametrize("bad_side", ["target", "source"])
    def test_bad_dataset_rejected_before_any_step(
        self, step_calls, reservoir, source, target_train, bad_side
    ):
        # a blend checks both datasets before it steps either
        bad = type(source)(inputs=source.inputs[:, :1, :], targets=source.targets)
        datasets = {"source": source, "target": target_train, bad_side: bad}
        with pytest.raises(ShapeError):
            fine_tune(reservoir, datasets["source"], datasets["target"], 0.5, Ridge())
        assert step_calls == []

    def test_mismatched_dims_rejected(self, reservoir, source, target_train):
        bad = generate_dataset(wave(48), TARGET_CHANNEL, 4)
        bad = type(bad)(inputs=bad.inputs[:, :1, :], targets=bad.targets, meta=bad.meta)
        model = fit(reservoir, source, Ridge())
        with pytest.raises(ShapeError):
            direct_transfer_eval(reservoir, model, bad)
        with pytest.raises(ShapeError):
            fine_tune(reservoir, source, bad, 0.0, Ridge())
