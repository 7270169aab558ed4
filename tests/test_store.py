"""On-disk format tests: round trips, corruption, versioning."""

import json

import numpy as np
import pytest

from echochan.channelsim import Awgn, Multipath, Tap, WaveformSpec, generate_dataset
from echochan.errors import FormatError, IntegrityError, ShapeError, VersionError
from echochan.readout import Lasso, Linear, Ridge, fit
from echochan.reservoir import Activation, InitMethod, ReservoirConfig, build
from echochan.store import (
    DATASET_CSV_HEADER,
    dataset_fingerprint,
    export_dataset_csv,
    file_fingerprint,
    load_dataset,
    load_model,
    make_artifact,
    save_dataset,
    save_model,
)

CHANNEL = Multipath(taps=(Tap(0, 0.9, 0.2), Tap(2, -0.3, 0.1)), snr_db=25.0)


def wave(seed, bits=60):
    return WaveformSpec(
        bits_per_sequence=bits, samples_per_symbol=2, sequence_length=bits, seed=seed
    )


def trained_artifact(seed=50, method=None):
    reservoir = build(
        ReservoirConfig(
            input_dim=2,
            reservoir_size=25,
            output_dim=2,
            init=InitMethod.HE,
            sparsity=0.8,
            target_spectral_radius=0.7,
            activation=Activation.RELU,
            washout=2,
            seed=seed,
        )
    )
    dataset = generate_dataset(wave(seed + 1), CHANNEL, 6)
    model = fit(reservoir, dataset, method or Ridge(lam=1e-5))
    return make_artifact(
        reservoir,
        model,
        provenance={"seed": seed, "dataset_fingerprint": dataset_fingerprint(dataset)},
    )


class TestModelRoundTrip:
    def test_bit_exact_matrices(self, tmp_path):
        artifact = trained_artifact()
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.w_in, artifact.w_in)
        np.testing.assert_array_equal(loaded.w, artifact.w)
        np.testing.assert_array_equal(loaded.w_fb, artifact.w_fb)
        np.testing.assert_array_equal(loaded.w_out, artifact.w_out)
        assert loaded.config == artifact.config
        assert loaded.method == artifact.method
        assert loaded.achieved_radius == artifact.achieved_radius
        assert loaded.provenance["seed"] == 50

    @pytest.mark.parametrize("method", [Ridge(lam=0.25), Linear(), Lasso(lam=1e-3)])
    def test_methods_round_trip(self, tmp_path, method):
        artifact = trained_artifact(seed=51, method=method)
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        assert load_model(path).method == method

    def test_randomized_round_trips(self, tmp_path):
        for seed in range(52, 57):
            artifact = trained_artifact(seed=seed)
            path = tmp_path / f"model_{seed}.esn"
            save_model(artifact, path)
            loaded = load_model(path)
            np.testing.assert_array_equal(loaded.w, artifact.w)
            np.testing.assert_array_equal(loaded.w_out, artifact.w_out)

    def test_save_is_byte_deterministic(self, tmp_path):
        artifact = trained_artifact(seed=58)
        a, b = tmp_path / "a.esn", tmp_path / "b.esn"
        save_model(artifact, a)
        save_model(artifact, b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_artifact_runs(self, tmp_path):
        artifact = trained_artifact(seed=59)
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        loaded = load_model(path)
        reservoir = loaded.to_reservoir()
        model = loaded.to_readout()
        dataset = generate_dataset(wave(60), CHANNEL, 2)
        from echochan.evaluation import evaluate

        report = evaluate(reservoir, model, dataset)
        assert np.isfinite(report.mape_percent)

    def test_provenance_required(self):
        reservoir = build(ReservoirConfig(input_dim=2, reservoir_size=10, output_dim=2, seed=0))
        dataset = generate_dataset(wave(61), CHANNEL, 2)
        model = fit(reservoir, dataset, Ridge())
        with pytest.raises(ValueError, match="provenance"):
            make_artifact(reservoir, model, provenance={})


class TestModelCorruption:
    def test_bad_magic(self, tmp_path):
        artifact = trained_artifact(seed=62)
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        artifact = trained_artifact(seed=63)
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(IntegrityError, match=r"\d+ bytes"):
            load_model(path)

    def test_future_version(self, tmp_path):
        artifact = trained_artifact(seed=64)
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        data = bytearray(path.read_bytes())
        data[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError, match="version 2"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        artifact = trained_artifact(seed=65)
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(IntegrityError):
            load_model(path)


def rewrite_header(path, keys, value):
    """Set the header field at ``keys`` to ``value``, keeping the payload."""
    data = path.read_bytes()
    header_len = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16 : 16 + header_len])
    target = header
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + len(text).to_bytes(8, "little") + text + data[16 + header_len :])


class TestHeaderTypes:
    """Header fields are type-checked on load, never cast."""

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("config", "use_feedback"), "false"),
            (("config", "allow_unstable"), "no"),
            (("config", "washout"), 0.9),
            (("config", "reservoir_size"), "25"),
            (("method", "lambda"), "1e-5"),
            (("method",), {"kind": "lasso", "lambda": 1e-3, "max_iter": 2.5, "tol": 1e-8}),
            (("achieved_radius",), "0.7"),
            (("provenance",), [["seed", 50], ["dataset_fingerprint", "0" * 64]]),
        ],
    )
    def test_mistyped_model_field(self, tmp_path, keys, value):
        path = tmp_path / "model.esn"
        save_model(trained_artifact(seed=66), path)
        rewrite_header(path, keys, value)
        with pytest.raises(FormatError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("num_sequences",), 2.0),
            (("seq_len",), "60"),
            (("input_dim",), True),
            (("meta",), [["preset", "echo"]]),
        ],
    )
    def test_mistyped_dataset_field(self, tmp_path, keys, value):
        path = tmp_path / "data.esd"
        save_dataset(generate_dataset(wave(67), CHANNEL, 2), path)
        rewrite_header(path, keys, value)
        with pytest.raises(FormatError, match="malformed"):
            load_dataset(path)


class TestDatasetRoundTrip:
    def test_bit_exact(self, tmp_path):
        dataset = generate_dataset(wave(70), CHANNEL, 5)
        path = tmp_path / "data.esd"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.inputs, dataset.inputs)
        np.testing.assert_array_equal(loaded.targets, dataset.targets)
        assert loaded.meta == dataset.meta

    def test_awgn_inf_snr_round_trips(self, tmp_path):
        dataset = generate_dataset(wave(71), Awgn(snr_db=float("inf")), 2)
        path = tmp_path / "data.esd"
        save_dataset(dataset, path)
        assert load_dataset(path).meta["channel"]["snr_db"] == float("inf")

    def test_randomized_round_trips(self, tmp_path):
        for seed in range(72, 76):
            dataset = generate_dataset(wave(seed, bits=20 + 4 * seed % 16), CHANNEL, seed % 3)
            path = tmp_path / f"d{seed}.esd"
            save_dataset(dataset, path)
            loaded = load_dataset(path)
            np.testing.assert_array_equal(loaded.inputs, dataset.inputs)
            np.testing.assert_array_equal(loaded.targets, dataset.targets)

    def test_save_is_byte_deterministic(self, tmp_path):
        dataset = generate_dataset(wave(76), CHANNEL, 3)
        a, b = tmp_path / "a.esd", tmp_path / "b.esd"
        save_dataset(dataset, a)
        save_dataset(dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_header_dims_is_shape_error(self, tmp_path):
        dataset = generate_dataset(wave(77), CHANNEL, 2)
        path = tmp_path / "data.esd"
        save_dataset(dataset, path)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        header = data[16 : 16 + header_len].replace(b'"input_dim":2', b'"input_dim":3')
        rebuilt = data[:8] + len(header).to_bytes(8, "little") + header + data[16 + header_len :]
        path.write_bytes(rebuilt)
        with pytest.raises(ShapeError):
            load_dataset(path)

    def test_truncation(self, tmp_path):
        dataset = generate_dataset(wave(78), CHANNEL, 2)
        path = tmp_path / "data.esd"
        save_dataset(dataset, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(IntegrityError, match="expected"):
            load_dataset(path)


class TestCsvExport:
    def test_three_sample_sequence_has_four_lines(self, tmp_path):
        inputs = np.arange(6.0).reshape(1, 2, 3)
        targets = inputs + 1.0
        from echochan.channelsim import SequenceDataset

        ds = SequenceDataset(inputs=inputs, targets=targets)
        paths = export_dataset_csv(ds, tmp_path)
        assert len(paths) == 1
        lines = paths[0].read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == DATASET_CSV_HEADER
        assert lines[1] == "0,0,3,1,4"

    def test_one_file_per_sequence(self, tmp_path):
        dataset = generate_dataset(wave(79), CHANNEL, 3)
        paths = export_dataset_csv(dataset, tmp_path)
        assert [p.name for p in paths] == ["seq_00000.csv", "seq_00001.csv", "seq_00002.csv"]


class TestFingerprints:
    def test_dataset_fingerprint_tracks_content(self):
        a = generate_dataset(wave(80), CHANNEL, 3)
        b = generate_dataset(wave(80), CHANNEL, 3)
        c = generate_dataset(wave(81), CHANNEL, 3)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert dataset_fingerprint(a) != dataset_fingerprint(c)

    def test_file_fingerprint(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc")
        assert (
            file_fingerprint(path)
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
