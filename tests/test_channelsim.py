"""Signal chain and channel tests."""

import numpy as np
import pytest

from echochan.channelsim import (
    Awgn,
    Multipath,
    SequenceDataset,
    Tap,
    WaveformSpec,
    apply_channel,
    generate_dataset,
    qpsk_modulate,
    raised_cosine_taps,
)
from echochan.errors import NonFiniteError, ShapeError


def small_wave(seed=0, bits=80, sps=2):
    return WaveformSpec(
        bits_per_sequence=bits,
        samples_per_symbol=sps,
        sequence_length=(bits // 2) * sps,
        seed=seed,
    )


class TestQpsk:
    def test_gray_mapping(self):
        symbols = qpsk_modulate([0, 0, 0, 1, 1, 1, 1, 0])
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            symbols, [s + 1j * s, -s + 1j * s, -s - 1j * s, s - 1j * s], atol=5e-5
        )

    def test_pair_00(self):
        sym = qpsk_modulate([0, 0])[0]
        assert sym.real == pytest.approx(0.7071, abs=1e-4)
        assert sym.imag == pytest.approx(0.7071, abs=1e-4)

    def test_pair_11(self):
        sym = qpsk_modulate([1, 1])[0]
        assert sym.real == pytest.approx(-0.7071, abs=1e-4)
        assert sym.imag == pytest.approx(-0.7071, abs=1e-4)

    def test_unit_magnitude(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=1000)
        mags = np.abs(qpsk_modulate(bits))
        assert np.abs(mags - 1.0).max() < 1e-12

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ShapeError):
            qpsk_modulate([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            qpsk_modulate([0, 2])


class TestRaisedCosine:
    def test_center_tap_is_one(self):
        taps = raised_cosine_taps(0.35, 8, 4)
        assert taps[len(taps) // 2] == 1.0

    def test_tap_count(self):
        assert raised_cosine_taps(0.5, 8, 4).size == 33

    def test_nyquist_zero_crossings(self):
        for beta in (0.25, 0.35, 0.5, 1.0):
            sps = 4
            taps = raised_cosine_taps(beta, 8, sps)
            center = taps.size // 2
            for k in (1, 2, 3, 4):
                assert abs(taps[center + k * sps]) < 1e-12
                assert abs(taps[center - k * sps]) < 1e-12

    def test_singularity_value_at_beta_one(self):
        taps = raised_cosine_taps(1.0, 8, 2)
        center = taps.size // 2
        # half a symbol period from center
        assert abs(taps[center + 1] - 0.5) < 1e-12

    def test_symmetry(self):
        taps = raised_cosine_taps(0.35, 6, 4)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            raised_cosine_taps(0.0, 8, 4)
        with pytest.raises(ValueError):
            raised_cosine_taps(0.5, 1, 4)
        with pytest.raises(ValueError):
            raised_cosine_taps(0.5, 3, 3)


class TestApplyChannel:
    def test_awgn_noise_disabled(self):
        rng = np.random.default_rng(1)
        tx = rng.uniform(-1, 1, size=(2, 64))
        rx = apply_channel(Awgn(snr_db=np.inf), tx, seed=0)
        np.testing.assert_array_equal(rx, tx)

    def test_awgn_noise_variance(self):
        rng = np.random.default_rng(2)
        # unit-power complex signal
        tx = rng.normal(0, np.sqrt(0.5), size=(2, 200_000))
        rx = apply_channel(Awgn(snr_db=20.0), tx, seed=3)
        noise = rx - tx
        total_variance = noise[0].var() + noise[1].var()
        assert total_variance == pytest.approx(0.01, rel=0.05)

    def test_single_unit_tap_is_identity(self):
        rng = np.random.default_rng(4)
        tx = rng.uniform(-1, 1, size=(2, 50))
        chan = Multipath(taps=(Tap(0, 1.0, 0.0),), snr_db=np.inf)
        rx = apply_channel(chan, tx, seed=5)
        np.testing.assert_array_equal(rx, tx)

    def test_two_tap_matches_convolution_oracle(self):
        rng = np.random.default_rng(6)
        tx = rng.uniform(-1, 1, size=(2, 40))
        taps = (Tap(0, 0.8, -0.3), Tap(3, -0.25, 0.4))
        chan = Multipath(taps=taps, snr_db=np.inf)
        rx = apply_channel(chan, tx, seed=7)

        signal = tx[0] + 1j * tx[1]
        impulse = np.zeros(4, dtype=complex)
        impulse[0] = 0.8 - 0.3j
        impulse[3] = -0.25 + 0.4j
        expected = np.convolve(signal, impulse)[:40]
        assert np.abs(rx[0] - expected.real).max() < 1e-12
        assert np.abs(rx[1] - expected.imag).max() < 1e-12

    def test_noiseless_lti_is_linear(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(2, 60))
        y = rng.uniform(-1, 1, size=(2, 60))
        chan = Multipath(taps=(Tap(0, 0.7, 0.2), Tap(2, -0.3, 0.1)), snr_db=np.inf)
        combined = apply_channel(chan, 1.5 * x - 0.5 * y, seed=9)
        separate = 1.5 * apply_channel(chan, x, seed=9) - 0.5 * apply_channel(chan, y, seed=9)
        assert np.abs(combined - separate).max() < 1e-12

    def test_noiseless_lti_time_invariant(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, size=(2, 80))
        shift = 4
        x_shifted = np.zeros_like(x)
        x_shifted[:, shift:] = x[:, :-shift]
        chan = Multipath(taps=(Tap(0, 0.7, 0.2), Tap(5, -0.3, 0.1)), snr_db=np.inf)
        out = apply_channel(chan, x, seed=11)
        out_shifted = apply_channel(chan, x_shifted, seed=11)
        # interior samples: skip the zero-padded warmup region
        np.testing.assert_allclose(
            out_shifted[:, shift + 5 :], out[:, 5 : -shift], atol=1e-12
        )

    def test_disturbance_modulates_gain(self):
        tx = np.ones((2, 400))
        chan = Multipath(
            taps=(Tap(0, 1.0, 0.0),), disturbance=0.5, disturbance_period=100, snr_db=np.inf
        )
        rx = apply_channel(chan, tx, seed=12)
        assert rx[0].max() > 1.2
        assert rx[0].min() < 0.8

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ShapeError):
            apply_channel(Awgn(snr_db=10.0), np.ones((3, 10)), seed=0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            Multipath(taps=())
        with pytest.raises(ValueError):
            Multipath(taps=(Tap(2, 1.0, 0.0), Tap(2, 0.5, 0.0)))
        with pytest.raises(ValueError):
            Multipath(taps=(Tap(0, 1.0, 0.0),), disturbance=1.5)
        with pytest.raises(ValueError):
            Tap(-1, 1.0, 0.0)
        with pytest.raises(ValueError):
            Awgn(snr_db=float("nan"))


class TestWaveformSpec:
    def test_inconsistent_length_rejected(self):
        with pytest.raises(ValueError):
            WaveformSpec(bits_per_sequence=80, samples_per_symbol=2, sequence_length=100)

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            WaveformSpec(bits_per_sequence=81, samples_per_symbol=2, sequence_length=81)

    def test_defaults_are_consistent(self):
        wave = WaveformSpec()
        assert wave.sequence_length == 578


class TestGenerateDataset:
    def test_empty_dataset_has_metadata(self):
        ds = generate_dataset(small_wave(), Awgn(snr_db=20.0), 0)
        assert ds.num_sequences == 0
        assert ds.meta["channel"]["kind"] == "awgn"
        assert ds.meta["waveform"]["sequence_length"] == 80

    def test_identity_channel_targets_equal_inputs(self):
        chan = Multipath(taps=(Tap(0, 1.0, 0.0),), snr_db=np.inf)
        ds = generate_dataset(small_wave(seed=1), chan, 5)
        np.testing.assert_array_equal(ds.inputs, ds.targets)

    def test_deterministic_per_seed(self):
        chan = Multipath(taps=(Tap(0, 0.9, 0.1), Tap(2, -0.2, 0.3)), snr_db=25.0)
        a = generate_dataset(small_wave(seed=2), chan, 6)
        b = generate_dataset(small_wave(seed=2), chan, 6)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert a.meta == b.meta

    def test_different_seed_differs(self):
        chan = Awgn(snr_db=20.0)
        a = generate_dataset(small_wave(seed=3), chan, 2)
        b = generate_dataset(small_wave(seed=4), chan, 2)
        assert np.any(a.inputs != b.inputs)

    def test_sequences_are_independent_of_batch(self):
        # sequence i only draws from its own substream
        chan = Awgn(snr_db=15.0)
        big = generate_dataset(small_wave(seed=5), chan, 8)
        small = generate_dataset(small_wave(seed=5), chan, 3)
        np.testing.assert_array_equal(big.inputs[:3], small.inputs)
        np.testing.assert_array_equal(big.targets[:3], small.targets)

    def test_empirical_snr_close_to_spec(self):
        # >= 1e5 samples, +-0.5 dB
        wave = small_wave(seed=6, bits=1000, sps=2)
        ds = generate_dataset(wave, Awgn(snr_db=18.0), 120)
        assert ds.inputs.size >= 1e5
        assert ds.meta["empirical_snr_db"] == pytest.approx(18.0, abs=0.5)

    def test_shape_and_dims(self):
        ds = generate_dataset(small_wave(seed=7), Awgn(snr_db=20.0), 4)
        assert ds.inputs.shape == (4, 2, 80)
        assert ds.targets.shape == (4, 2, 80)
        assert ds.input_dim == ds.output_dim == 2


class TestSequenceDataset:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["inputs", "targets"])
    def test_non_finite_sample_is_a_non_finite_error(self, name, value):
        arrays = {"inputs": np.zeros((2, 2, 5)), "targets": np.zeros((2, 2, 5))}
        arrays[name][1, 0, 3] = value
        with pytest.raises(NonFiniteError, match="non-finite samples"):
            SequenceDataset(**arrays)

    def test_callers_arrays_do_not_reach_the_dataset(self):
        inputs, targets = np.zeros((2, 2, 5)), np.zeros((2, 2, 5))
        ds = SequenceDataset(inputs=inputs, targets=targets)
        inputs[0, 0, 0] = targets[1, 1, 4] = np.nan  # after the finiteness check
        assert np.isfinite(ds.inputs).all() and np.isfinite(ds.targets).all()
        assert inputs.flags.writeable and targets.flags.writeable

    def test_arrays_are_read_only(self):
        generated = generate_dataset(small_wave(seed=8), Awgn(snr_db=20.0), 3)
        for ds in (
            SequenceDataset(inputs=np.zeros((2, 2, 5)), targets=np.zeros((2, 2, 5))),
            generated,
            generated.subset([0, 2]),
        ):
            for array in (ds.inputs, ds.targets):
                assert not array.flags.writeable and array.flags.owndata
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0, 0] = np.nan
