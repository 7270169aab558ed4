"""Peak memory of each stage at N=300 (the solve at N=1024 too), as
``tracemalloc`` sees it.

Each N x N array is held once: the ridge solve works in B itself, a
merge makes only the summed B, a transfer blend folds both datasets into
one B, and a load reads the file straight into the arrays that the model
or dataset keeps. The fold holds B and one time-major block of states,
and a dataset load checks each value once, a sequence at a time. CI runs
this file on one BLAS thread as well, so the in-place solve also runs
on OpenBLAS's single-thread kernels.
"""

import numpy as np
import pytest
from conftest import state_blocks_peak
from test_evaluation import traced_peak
from test_numerics import ridge_like

from echochan import numerics
from echochan.channelsim import BATCH, IQ, Multipath, Tap, WaveformSpec, generate_dataset
from echochan.numerics import BAND, solve_spd
from echochan.readout import Accumulators, ReadoutModel, Ridge, accumulate_dataset, fit, merge
from echochan.reservoir import BLOCK, CHUNK, ReservoirConfig, build
from echochan.store import load_dataset, load_model, make_artifact, save_dataset, save_model
from echochan.transfer import fine_tune

N = 300
# one band of N x N rows, and the boolean mask a check makes of it
BAND_BYTES = BAND * N * 8
MASK_BYTES = BAND * N
# headers, small Python objects and bookkeeping
OBJECTS = 16384
# and the buffer numpy's ufunc machinery takes for a strided operand
# (8,192 values, whatever N)
SLACK = 8192 * 8 + OBJECTS

needs_dpotrf = pytest.mark.skipif(
    numerics._DPOTRF is None, reason="numpy's LAPACK has no dpotrf to call"
)


def reservoir(seed=70):
    return build(ReservoirConfig(input_dim=2, reservoir_size=N, output_dim=2, seed=seed))


def dataset(sequences, bits=60, seed=71):
    wave = WaveformSpec(
        bits_per_sequence=bits, samples_per_symbol=2, sequence_length=bits, seed=seed
    )
    return generate_dataset(wave, Multipath(taps=(Tap(0, 0.9, 0.2),), snr_db=25.0), sequences)


@needs_dpotrf
@pytest.mark.parametrize("n", [N, 1024])  # at 1024 an N x N mask is larger than a band
def test_ridge_solve_makes_no_n_by_n_array(n):
    b, rhs, shift = ridge_like(n=n)
    peak = traced_peak(lambda: solve_spd(b, rhs, shift=shift))
    assert peak <= BAND * n * 8 + BAND * n + 4 * rhs.nbytes + SLACK


@needs_dpotrf
def test_fit_holds_b_the_states_and_the_readout():
    r, data = reservoir(), dataset(2)
    stepping = state_blocks_peak(r, sequences=2, steps=data.seq_len)
    peak = traced_peak(lambda: fit(r, data, Ridge()))
    assert peak <= N * N * 8 + stepping + BAND_BYTES + MASK_BYTES + SLACK


def test_fold_holds_b_and_one_time_major_block():
    # CHUNK + 1 sequences cross a chunk, and T > BLOCK fills a whole block;
    # the slack (a, the step's C x N temporaries, the drive) is O(N * (L +
    # CHUNK)), too small to hide a second block
    r, data = reservoir(seed=76), dataset(CHUNK + 1, bits=2 * BLOCK + 10, seed=77)
    block = CHUNK * BLOCK * N * 8
    slack = 8 * N * (IQ + CHUNK) * 8
    assert slack + SLACK < block
    peak = traced_peak(lambda: accumulate_dataset(r, data))
    assert peak <= N * N * 8 + block + slack + SLACK


@needs_dpotrf
def test_fine_tune_holds_one_b_and_one_block():
    # at 0 < alpha < 1 the target and the source are folded into one B, and
    # the target's last block is dropped before the source steps its first;
    # the slack is the fold test's
    r = reservoir(seed=81)
    source = dataset(CHUNK + 1, bits=2 * BLOCK + 10, seed=82)
    target = dataset(CHUNK + 1, bits=2 * BLOCK + 10, seed=83)
    block = CHUNK * BLOCK * N * 8
    slack = 8 * N * (IQ + CHUNK) * 8
    peak = traced_peak(lambda: fine_tune(r, source, target, 0.5, Ridge()))
    assert peak <= N * N * 8 + block + slack + SLACK


def random_accumulators(rng):
    return Accumulators(
        a=rng.standard_normal((2, N)), b=rng.standard_normal((N, N)), samples_seen=9
    )


@pytest.mark.parametrize("weight", [1.0, 0.3])
def test_gram_fallback_makes_one_n_by_n_temporary(monkeypatch, weight):
    # without dsyrk, x.T @ x is scaled in place and added to b
    monkeypatch.setattr(numerics, "_DSYRK", None)
    b, x = np.zeros((N, N)), np.random.default_rng(84).standard_normal((BLOCK, N))
    peak = traced_peak(lambda: numerics.add_gram_upper(b, x, weight))
    assert peak <= N * N * 8 + SLACK


def test_merge_makes_one_n_by_n_array():
    rng = np.random.default_rng(75)
    first, second = random_accumulators(rng), random_accumulators(rng)
    peak = traced_peak(lambda: merge(first, second))
    assert peak <= N * N * 8 + BAND_BYTES + SLACK


def test_load_model_holds_w_once(tmp_path):
    r = reservoir(seed=73)
    model = ReadoutModel(w_out=np.ones((2, N)), method=Ridge())
    path = tmp_path / "model.esn"
    save_model(make_artifact(r, model, {"seed": 73, "dataset_fingerprint": "0" * 64}), path)
    peak = traced_peak(lambda: load_model(path))
    assert peak <= N * N * 8 + BAND_BYTES + MASK_BYTES + SLACK


def test_load_model_checks_each_value_once(tmp_path, monkeypatch):
    # the load reads the matrices unchecked and the artifact checks each
    # value once, so every matrix value passes through one isfinite (the
    # config's scalars are checked on their own)
    r = reservoir(seed=79)
    model = ReadoutModel(w_out=np.ones((2, N)), method=Ridge())
    path = tmp_path / "model.esn"
    save_model(make_artifact(r, model, {"seed": 79, "dataset_fingerprint": "0" * 64}), path)
    checked = []
    isfinite = np.isfinite

    def counted(a, *args, **kwargs):
        if np.ndim(a) > 0:
            checked.append(np.size(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    artifact = load_model(path)
    values = sum(getattr(artifact, name).size for name in ("w_in", "w", "w_fb", "w_out"))
    assert sum(checked) == values


def test_load_dataset_holds_the_payload_once(tmp_path):
    path = tmp_path / "data.esd"
    save_dataset(dataset(40, bits=300, seed=74), path)
    payload = 40 * 4 * 300 * 8
    peak = traced_peak(lambda: load_dataset(path))
    assert peak <= payload + payload // 16 + SLACK


def test_load_dataset_checks_each_value_once(tmp_path):
    # the load reads the payload unchecked and the dataset checks it one
    # sequence at a time, so the only mask is one sequence's I/Q block
    path = tmp_path / "data.esd"
    save_dataset(dataset(40, bits=300, seed=78), path)
    payload, band = 40 * 4 * 300 * 8, IQ * 300 * 8
    peak = traced_peak(lambda: load_dataset(path))
    assert peak <= payload + band + OBJECTS


def test_generate_holds_one_batch_beyond_its_output():
    # sequences are made BATCH at a time, so beyond the dataset itself a run
    # holds one batch's S x T temporaries, however many sequences it makes
    wave = WaveformSpec(bits_per_sequence=578, samples_per_symbol=2, sequence_length=578, seed=80)
    chan = Multipath(
        taps=(Tap(0, 0.8, 0.3), Tap(4, -0.4, 0.3), Tap(9, 0.3, -0.2)), disturbance=0.6,
        disturbance_period=157, snr_db=14.0,
    )
    generate_dataset(wave, chan, 1)  # numpy's first-call allocations
    extra = [
        traced_peak(lambda: generate_dataset(wave, chan, n)) - 2 * n * IQ * 578 * 8
        for n in (64, 256)
    ]
    assert abs(extra[1] - extra[0]) <= BATCH * 578 * 16, extra
