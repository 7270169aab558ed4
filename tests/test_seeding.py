"""The seed derivations that ``seeding``'s tree lists, checked against
the code that draws from them (the sweep's and transfer's are checked in
``test_evaluation`` and ``test_cli``)."""

import numpy as np

from echochan import seeding
from echochan.channelsim import Multipath, Tap, WaveformSpec, generate_dataset, generate_sequence
from echochan.reservoir import InitMethod, ReservoirConfig, build, init_matrix


def test_reservoir_matrix_seed():
    # unrescaled, w is exactly the matrix drawn from child(seed, W)
    config = ReservoirConfig(
        input_dim=2, reservoir_size=30, output_dim=2, init=InitMethod.HE, sparsity=0.4,
        target_spectral_radius=1.5, seed=81, allow_unstable=True,
    )
    expected = init_matrix(
        InitMethod.HE, 30, 30, 0.4, seeding.child_seed(81, seeding.STREAM_W)
    )
    np.testing.assert_array_equal(build(config).w, expected)


def test_dataset_sequence_seed():
    # sequence i is generate_sequence's triple for child(wave.seed, SEQUENCE, i)
    wave = WaveformSpec(bits_per_sequence=40, samples_per_symbol=2, sequence_length=40, seed=82)
    chan = Multipath(taps=(Tap(0, 0.9, 0.2), Tap(3, -0.3, 0.1)), disturbance=0.3, snr_db=20.0)
    dataset = generate_dataset(wave, chan, 3)
    for i in range(3):
        tx, _, rx = generate_sequence(
            wave, chan, seeding.child_seed(wave.seed, seeding.STREAM_SEQUENCE, i)
        )
        np.testing.assert_array_equal(dataset.inputs[i], tx)
        np.testing.assert_array_equal(dataset.targets[i], rx)
