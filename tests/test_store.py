"""On-disk format tests: round trips, corruption, versioning."""

import json
import os
import stat
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from echochan import store
from echochan.channelsim import Awgn, Multipath, SequenceDataset, Tap, WaveformSpec, generate_dataset
from echochan.errors import FormatError, IntegrityError, NonFiniteError, ShapeError, VersionError
from echochan.evaluation import evaluate, write_csv
from echochan.readout import Lasso, Linear, ReadoutModel, Ridge, fit
from echochan.reservoir import Activation, InitMethod, Reservoir, ReservoirConfig, build
from echochan.store import (
    ModelArtifact,
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
        provenance={"seed": seed, "dataset_fingerprint": "0" * 64},
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

    def test_w_is_row_major_on_disk_and_steps_without_a_copy(self, tmp_path):
        from conftest import state_blocks_peak

        reservoir = build(ReservoirConfig(input_dim=2, reservoir_size=300, output_dim=2, seed=60))
        model = ReadoutModel(w_out=np.zeros((2, 300)), method=Ridge())
        provenance = {"seed": 60, "dataset_fingerprint": "0" * 64}
        path = tmp_path / "model.esn"
        save_model(make_artifact(reservoir, model, provenance), path)
        payload = path.read_bytes()[-8 * (600 + 90_000 + 600 + 600) :]
        assert payload[8 * 600 : 8 * 90_600] == reservoir.w.tobytes(order="C")
        loaded = load_model(path)
        assert loaded.w.flags.f_contiguous
        assert state_blocks_peak(loaded) < loaded.w.nbytes // 2  # no N x N array

    def test_save_writes_w_in_bands_without_an_n_by_n_copy(self, tmp_path):
        reservoir = build(ReservoirConfig(input_dim=2, reservoir_size=300, output_dim=2, seed=61))
        model = ReadoutModel(w_out=np.zeros((2, 300)), method=Ridge())
        artifact = make_artifact(reservoir, model, {"seed": 61, "dataset_fingerprint": "0" * 64})
        path = tmp_path / "model.esn"
        tracemalloc.start()
        try:
            save_model(artifact, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < reservoir.w.nbytes
        assert load_model(path).w.tobytes() == reservoir.w.tobytes()

    def test_loaded_matrices_own_their_data(self, tmp_path):
        # no view keeps the file's payload bytes alive
        path = tmp_path / "model.esn"
        save_model(trained_artifact(seed=48), path)
        loaded = load_model(path)
        for name in ("w_in", "w", "w_fb", "w_out"):
            assert getattr(loaded, name).flags.owndata, name
        assert loaded.w.flags.f_contiguous
        assert loaded.w_out.flags.c_contiguous

    def test_loaded_artifact_runs(self, tmp_path):
        artifact = trained_artifact(seed=59)
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        loaded = load_model(path)
        model = loaded.to_readout()
        dataset = generate_dataset(wave(60), CHANNEL, 2)
        report = evaluate(loaded, model, dataset)
        assert np.isfinite(report.mape_percent)

    def test_loaded_artifact_evaluates_like_its_reservoir(self, tmp_path):
        reservoir = build(
            ReservoirConfig(
                input_dim=2, reservoir_size=20, output_dim=2, use_feedback=True, washout=3, seed=5
            )
        )
        train, test = (generate_dataset(wave(seed), CHANNEL, 4) for seed in (6, 7))
        model = fit(reservoir, train, Ridge(lam=1e-5))
        path = tmp_path / "model.esn"
        save_model(make_artifact(reservoir, model, {"seed": 5, "dataset_fingerprint": "0"}), path)
        loaded = load_model(path)
        assert evaluate(loaded, loaded.to_readout(), test) == evaluate(reservoir, model, test)

    def test_provenance_required(self):
        reservoir = build(ReservoirConfig(input_dim=2, reservoir_size=10, output_dim=2, seed=0))
        dataset = generate_dataset(wave(61), CHANNEL, 2)
        model = fit(reservoir, dataset, Ridge())
        with pytest.raises(ValueError, match="provenance"):
            make_artifact(reservoir, model, provenance={})


class TestArtifactIsAReservoir:
    def test_adds_only_the_readout_and_provenance(self):
        assert issubclass(ModelArtifact, Reservoir)
        added = {f.name for f in fields(ModelArtifact)} - {f.name for f in fields(Reservoir)}
        assert added == {"w_out", "method", "provenance"}

    def test_make_artifact_keeps_the_matrices_it_is_given(self):
        artifact = trained_artifact(seed=47)
        again = make_artifact(artifact, artifact.to_readout(), artifact.provenance)
        for name in ("w_in", "w", "w_fb", "w_out"):
            assert getattr(again, name) is getattr(artifact, name), name

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "model.esn"
        save_model(trained_artifact(seed=49), path)
        loaded = load_model(path)
        for name in ("w_in", "w", "w_fb", "w_out"):
            assert not getattr(loaded, name).flags.writeable

    def test_wrong_readout_shape_names_it(self):
        reservoir = build(ReservoirConfig(input_dim=2, reservoir_size=10, output_dim=2, seed=0))
        model = ReadoutModel(w_out=np.zeros((10, 2)), method=Ridge())
        provenance = {"seed": 0, "dataset_fingerprint": "0"}
        with pytest.raises(ShapeError, match=r"w_out must be 2 x 10, got shape \(10, 2\)"):
            make_artifact(reservoir, model, provenance)

    @pytest.mark.parametrize("name", ["w", "w_out"])
    def test_non_finite_matrix_is_refused(self, name):
        artifact = trained_artifact(seed=48)
        matrix = np.array(getattr(artifact, name))
        matrix[-1, -1] = np.nan
        with pytest.raises(NonFiniteError, match=f"matrix {name} contains non-finite values"):
            replace(artifact, **{name: matrix})


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

    @pytest.mark.parametrize(
        "order",
        [
            ["w_out", "w_fb", "w", "w_in"],
            ["w_in", "w", "w_fb"],
            ["w_in", "w", "w_fb", "w_out", "w_out"],
        ],
    )
    def test_payload_order_other_than_the_fixed_one(self, tmp_path, order):
        path = tmp_path / "model.esn"
        save_model(trained_artifact(seed=68), path)
        rewrite_header(path, ("matrices",), order)
        with pytest.raises(FormatError, match="payload order"):
            load_model(path)

    # payload values of the N=25 model: w_in 0-49, w 50-674, w_fb 675-724, w_out 725-774
    @pytest.mark.parametrize("name, index", [("w_in", 3), ("w", 400), ("w_out", 774)])
    def test_non_finite_matrix_names_file_and_matrix(self, tmp_path, name, index):
        path = tmp_path / "model.esn"
        save_model(trained_artifact(seed=69), path)
        data = bytearray(path.read_bytes())
        at = len(data) - 8 * (775 - index)
        data[at : at + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match=rf"matrix {name} of {path} contains non-finite"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["model", "dataset"])
    def test_short_read_is_an_integrity_error(self, tmp_path, monkeypatch, kind):
        # the file loses its last value after its size was checked
        import os

        from echochan import store

        path = tmp_path / f"file.{kind}"
        if kind == "model":
            save_model(trained_artifact(seed=66), path)
        else:
            save_dataset(generate_dataset(wave(67), CHANNEL, 2), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = os.fstat

        def stale_fstat(fd):
            return os.stat_result((*real_fstat(fd)[:6], size, *real_fstat(fd)[7:]))

        monkeypatch.setattr(store.os, "fstat", stale_fstat)
        with pytest.raises(IntegrityError, match="ended while reading its"):
            (load_model if kind == "model" else load_dataset)(path)

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
            (("config", "leak_rate"), 0.3),
            (("method", "max_iter"), 100),
            (("method",), {"kind": "lasso", "lambda": 1e-3, "max_iter": 100}),
            (("method", "kind"), "ols"),
            (("config", "input_dim"), 2.0),
            (("config", "output_dim"), "2"),
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
        assert WaveformSpec(**loaded.meta["waveform"]) == wave(70)

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

    def test_non_iq_dataset_is_refused_before_any_file(self, tmp_path):
        # the writer refuses what the reader refuses, and creates nothing
        rng = np.random.default_rng(78)
        dataset = SequenceDataset(rng.standard_normal((2, 3, 10)), rng.standard_normal((2, 1, 10)))
        with pytest.raises(ShapeError, match=r"declares K=3, L=1; this format carries I/Q pairs \(K=L=2\)"):
            save_dataset(dataset, tmp_path / "data.esd")
        assert list(tmp_path.iterdir()) == []

    def test_loaded_arrays_own_their_data(self, tmp_path):
        path = tmp_path / "data.esd"
        save_dataset(generate_dataset(wave(80), CHANNEL, 3), path)
        loaded = load_dataset(path)
        assert loaded.inputs.flags.owndata and loaded.targets.flags.owndata
        assert loaded.inputs.flags.c_contiguous and loaded.targets.flags.c_contiguous

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sample_names_the_file(self, tmp_path, value):
        path = tmp_path / "data.esd"
        save_dataset(generate_dataset(wave(81), CHANNEL, 2), path)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match=rf"payload of {path} contains non-finite"):
            load_dataset(path)

    def test_truncation(self, tmp_path):
        dataset = generate_dataset(wave(78), CHANNEL, 2)
        path = tmp_path / "data.esd"
        save_dataset(dataset, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(IntegrityError, match="expected"):
            load_dataset(path)


def split_container(data: bytes, magic: bytes):
    """Header and payload values of a container, read as docs/FORMATS.md
    lays it out: magic, u32 LE version, u64 LE header length, canonical
    JSON header, float64 LE payload."""
    assert data[:4] == magic
    version, header_len = struct.unpack("<IQ", data[4:16])
    assert version == 1
    raw = data[16 : 16 + header_len]
    header = json.loads(raw.decode("utf-8"))
    assert raw == json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = data[16 + header_len :]
    assert len(payload) % 8 == 0
    return header, np.array(struct.unpack(f"<{len(payload) // 8}d", payload))


class TestByteLayout:
    def test_model_container(self, tmp_path):
        artifact = trained_artifact()
        path = tmp_path / "model.esn"
        save_model(artifact, path)
        header, payload = split_container(path.read_bytes(), b"ESN1")
        assert header["matrices"] == ["w_in", "w", "w_fb", "w_out"]
        assert header["shapes"] == {"w_in": [25, 2], "w": [25, 25], "w_fb": [25, 2], "w_out": [2, 25]}
        expected = [artifact.w_in, artifact.w, artifact.w_fb, artifact.w_out]
        np.testing.assert_array_equal(payload, np.concatenate([m.ravel() for m in expected]))

    def test_dataset_container(self, tmp_path):
        dataset = generate_dataset(wave(79), CHANNEL, 3)
        path = tmp_path / "data.esd"
        save_dataset(dataset, path)
        header, payload = split_container(path.read_bytes(), b"ESD1")
        assert (header["num_sequences"], header["seq_len"]) == (3, 60)
        assert (header["input_dim"], header["output_dim"]) == (2, 2)
        # sequence-major: each sequence's input block, then its target block
        expected = [block.ravel() for i in range(3) for block in (dataset.inputs[i], dataset.targets[i])]
        np.testing.assert_array_equal(payload, np.concatenate(expected))


class TestFingerprints:
    def test_file_fingerprint(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc")
        assert (
            file_fingerprint(path)
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class TestAtomicWrite:
    def test_containers_get_the_mode_of_any_new_file(self, tmp_path):
        artifact, dataset = trained_artifact(seed=80), generate_dataset(wave(81), CHANNEL, 2)
        names = ("m.esn", "d.esd", "e.csv")
        for umask in (0o022, 0o077):
            previous = os.umask(umask)
            try:
                save_model(artifact, tmp_path / "m.esn")
                save_dataset(dataset, tmp_path / "d.esd")
                write_csv(tmp_path / "e.csv", "a,b", [(1, 2)])
            finally:
                os.umask(previous)
            modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in names}
            assert modes == dict.fromkeys(names, 0o666 & ~umask), oct(umask)
            for name in names:
                os.unlink(tmp_path / name)

    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "m.esn"
        save_model(trained_artifact(seed=82), path)
        before = path.read_bytes()

        def chunks():
            yield b"partial"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            store._atomic_write(path, chunks())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.esn"]

    # the first and last values of the N=25 model's w, and the last of w_out
    @pytest.mark.parametrize("name, index", [("w", (0, 0)), ("w", (24, 24)), ("w_out", (1, 24))])
    def test_non_finite_matrix_is_refused_before_any_file(self, tmp_path, name, index):
        # a model that load_model would refuse is never written, even when
        # the NaN is written into the artifact's own array after it was built
        artifact = trained_artifact(seed=83)
        matrix = getattr(artifact, name)
        matrix.flags.writeable = True
        matrix[index] = np.nan
        path = tmp_path / "m.esn"
        with pytest.raises(IntegrityError, match=rf"matrix {name} of {path} contains non-finite"):
            save_model(artifact, path)
        assert list(tmp_path.iterdir()) == []

    def test_train_with_a_non_finite_matrix_exits_3_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        from echochan import cli

        def nan_artifact(reservoir, model, provenance):
            artifact = make_artifact(reservoir, model, provenance)
            artifact.w.flags.writeable = True
            artifact.w[0, 0] = np.nan
            return artifact

        data = tmp_path / "d.esd"
        save_dataset(generate_dataset(wave(84), CHANNEL, 5), data)
        monkeypatch.setattr(cli, "make_artifact", nan_artifact)
        out = tmp_path / "m.esn"
        assert cli.main(["train", str(data), "--size", "20", "-o", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: matrix w of {out} contains non-finite values\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.esd"]
