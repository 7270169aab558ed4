"""End-to-end CLI tests (in-process via main(), a few subprocess checks)."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import echochan
from echochan.cli import main
from echochan.store import load_dataset, load_model

SMALL_CONFIG = {
    "master_seed": 11,
    "threads": 1,
    "waveform": {
        "bits_per_sequence": 80,
        "samples_per_symbol": 2,
        "rolloff": 0.35,
        "filter_span": 8,
        "sequence_length": 80,
    },
    "channels": {
        "awgn": {"kind": "awgn", "snr_db": 20.0},
        "identity": {"kind": "multipath", "snr_db": "inf", "taps": [[0, 1.0, 0.0]]},
        "echo": {
            "kind": "multipath",
            "snr_db": 28.0,
            "taps": [[0, 0.95, 0.1], [1, -0.18, 0.12]],
        },
        "other": {
            "kind": "multipath",
            "snr_db": 28.0,
            "taps": [[0, 0.7, -0.3], [2, 0.3, 0.25], [4, -0.2, 0.1]],
        },
    },
    "reservoir": {
        "reservoir_size": 40,
        "init": "xavier",
        "sparsity": 1.0,
        "spectral_radius": 0.5,
        "activation": "tanh",
        "use_feedback": False,
        "washout": 0,
        "allow_unstable": False,
    },
    "readout": {"method": "ridge", "ridge_lambda": 1.0e-6},
    "split": {"train_fraction": 0.8},
    "sweep": {
        "repeats": 1,
        "radius_values": [0.3, 0.7],
        "size_values": [20, 40],
        "init_values": ["xavier", "he"],
        "activation_values": ["tanh"],
        "regression_values": ["ridge", "linear"],
    },
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestGenerate:
    def test_writes_dataset_and_prints_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "d.esd"
        code = run("--config", config_path, "generate", "--preset", "echo", "-n", "10", "-o", str(out))
        assert code == 0
        captured = capsys.readouterr().out
        assert "10 sequences" in captured
        assert "T=80" in captured
        ds = load_dataset(out)
        assert ds.num_sequences == 10
        assert ds.meta["preset"] == "echo"

    def test_default_config_T_is_578(self, tmp_path, capsys):
        out = tmp_path / "d1.esd"
        code = run("generate", "--preset", "data1", "-n", "100", "-o", str(out))
        assert code == 0
        ds = load_dataset(out)
        assert ds.num_sequences == 100
        assert ds.seq_len == 578

    def test_unknown_preset_exits_2_and_names_it(self, config_path, tmp_path, capsys):
        code = run("--config", config_path, "generate", "--preset", "nope", "-n", "1", "-o", str(tmp_path / "x.esd"))
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.esd", tmp_path / "b.esd"
        assert run("--config", config_path, "generate", "--preset", "echo", "-n", "5", "-o", str(a)) == 0
        assert run("--config", config_path, "generate", "--preset", "echo", "-n", "5", "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_exits_2(self, config_path, tmp_path, capsys):
        code = run("--config", config_path, "--seed", "-1", "generate", "--preset", "echo", "-n", "1", "-o", str(tmp_path / "x.esd"))
        assert code == 2
        assert "master_seed" in capsys.readouterr().err

    def test_negative_count_exits_2_and_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "x.esd"
        code = run("--config", config_path, "generate", "--preset", "echo", "-n", "-1", "-o", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: num_sequences must be >= 0, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    def test_seed_flag_changes_output(self, config_path, tmp_path):
        a, b = tmp_path / "a.esd", tmp_path / "b.esd"
        run("--config", config_path, "generate", "--preset", "echo", "-n", "5", "-o", str(a))
        run("--config", config_path, "--seed", "99", "generate", "--preset", "echo", "-n", "5", "-o", str(b))
        assert a.read_bytes() != b.read_bytes()


@pytest.fixture()
def dataset_path(config_path, tmp_path):
    path = tmp_path / "train.esd"
    assert run("--config", config_path, "generate", "--preset", "echo", "-n", "25", "-o", str(path)) == 0
    return str(path)


class TestTrain:
    def test_trains_and_reports_heldout_mape(self, config_path, dataset_path, tmp_path, capsys):
        out = tmp_path / "m.esn"
        code = run("--config", config_path, "train", dataset_path, "-o", str(out))
        assert code == 0
        assert "MAPE=" in capsys.readouterr().out
        artifact = load_model(out)
        assert artifact.provenance["seed"] == 11
        assert len(artifact.provenance["dataset_fingerprint"]) == 64

    def test_identity_channel_under_one_percent(self, config_path, tmp_path, capsys):
        data = tmp_path / "ident.esd"
        run("--config", config_path, "generate", "--preset", "identity", "-n", "25", "-o", str(data))
        code = run("--config", config_path, "train", str(data), "-o", str(tmp_path / "m.esn"), "--size", "150")
        assert code == 0
        out = capsys.readouterr().out
        mape = float(out.split("MAPE=")[1].split("%")[0])
        assert mape < 1.0

    def test_missing_dataset_exits_3(self, config_path, tmp_path, capsys):
        code = run("--config", config_path, "train", str(tmp_path / "absent.esd"), "-o", str(tmp_path / "m.esn"))
        assert code == 3

    def test_bad_train_fraction_exits_2_when_read(self, dataset_path, tmp_path, capsys):
        # split.train_fraction is checked by the split, so only the
        # commands that split read it
        path = tmp_path / "fraction.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_CONFIG, split={"train_fraction": 1.5})))
        out = tmp_path / "m.esn"
        assert run("--config", str(path), "train", dataset_path, "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: train_fraction must be in (0, 1), got 1.5\n"
        assert not out.exists()
        assert run("--config", str(path), "generate", "--preset", "echo", "-n", "2",
                   "-o", str(tmp_path / "d.esd")) == 0

    @pytest.mark.parametrize("sequences", ["0", "1"])
    def test_too_few_sequences_exits_4(self, config_path, tmp_path, capsys, sequences):
        data = tmp_path / "few.esd"
        run("--config", config_path, "generate", "--preset", "echo", "-n", sequences, "-o", str(data))
        code = run("--config", config_path, "train", str(data), "-o", str(tmp_path / "m.esn"))
        assert code == 4
        assert capsys.readouterr().err == f"error: need at least 2 sequences to split, got {sequences}\n"

    def test_flag_overrides(self, config_path, dataset_path, tmp_path):
        out = tmp_path / "m.esn"
        code = run(
            "--config", config_path,
            "train", dataset_path, "-o", str(out),
            "--radius", "0.3", "--size", "24", "--init", "he",
        )
        assert code == 0
        artifact = load_model(out)
        assert artifact.config.target_spectral_radius == 0.3
        assert artifact.config.reservoir_size == 24
        assert artifact.config.init.value == "he"

    def test_flags_match_config_keys(self, dataset_path, tmp_path):
        by_flags, by_config = tmp_path / "flags.esn", tmp_path / "config.esn"
        flags_path = tmp_path / "flags.yaml"
        flags_path.write_text(yaml.safe_dump(SMALL_CONFIG))
        edited = dict(SMALL_CONFIG)
        edited["reservoir"] = dict(SMALL_CONFIG["reservoir"], reservoir_size=24, spectral_radius=0.3, init="he")
        edited["readout"] = dict(SMALL_CONFIG["readout"], method="linear")
        config_file = tmp_path / "edited.yaml"
        config_file.write_text(yaml.safe_dump(edited))
        assert run(
            "--config", str(flags_path),
            "train", dataset_path, "-o", str(by_flags),
            "--size", "24", "--radius", "0.3", "--init", "he", "--regression", "linear",
        ) == 0
        assert run("--config", str(config_file), "train", dataset_path, "-o", str(by_config)) == 0
        assert by_flags.read_bytes() == by_config.read_bytes()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_non_finite_sample_exits_3(self, config_path, dataset_path, tmp_path, capsys, command):
        model = tmp_path / "m.esn"
        assert run("--config", config_path, "train", dataset_path, "-o", str(model)) == 0
        data = bytearray(Path(dataset_path).read_bytes())
        data[-8:] = struct.pack("<d", float("nan"))
        Path(dataset_path).write_bytes(bytes(data))
        capsys.readouterr()
        argv = [dataset_path, "-o", str(model)] if command == "train" else [str(model), dataset_path]
        assert run("--config", config_path, command, *argv) == 3
        assert capsys.readouterr().err == (
            f"error: payload of {dataset_path} contains non-finite values\n"
        )

    def test_bad_init_flag_exits_2(self, config_path, dataset_path, tmp_path):
        code = run("--config", config_path, "train", dataset_path, "-o", str(tmp_path / "m.esn"), "--init", "glorot")
        assert code == 2


@pytest.fixture()
def model_path(config_path, dataset_path, tmp_path):
    path = tmp_path / "model.esn"
    assert run("--config", config_path, "train", dataset_path, "-o", str(path)) == 0
    return str(path)


class TestEvaluate:
    def test_prints_report(self, config_path, model_path, dataset_path, capsys):
        code = run("--config", config_path, "evaluate", model_path, dataset_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "MAPE=" in out
        assert "mse=" in out

    def test_csv_output(self, config_path, model_path, dataset_path, tmp_path):
        out = tmp_path / "report.csv"
        code = run("--config", config_path, "evaluate", model_path, dataset_path, "--csv", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis,value,dataset,repeat,mape_percent,mse,train_seconds,seed"
        assert len(lines) == 2

    def test_incompatible_pair_exits_4(self, config_path, tmp_path, capsys):
        # model trained with a 20-step washout cannot score 16-step sequences
        deep_cfg = dict(SMALL_CONFIG)
        deep_cfg["reservoir"] = dict(SMALL_CONFIG["reservoir"], washout=20)
        deep_path = tmp_path / "deep.yaml"
        deep_path.write_text(yaml.safe_dump(deep_cfg))
        train_data = tmp_path / "long.esd"
        run("--config", str(deep_path), "generate", "--preset", "echo", "-n", "12", "-o", str(train_data))
        model = tmp_path / "deep.esn"
        assert run("--config", str(deep_path), "train", str(train_data), "-o", str(model)) == 0

        short_cfg = dict(SMALL_CONFIG)
        short_cfg["waveform"] = dict(
            SMALL_CONFIG["waveform"], bits_per_sequence=16, sequence_length=16
        )
        short_path = tmp_path / "short.yaml"
        short_path.write_text(yaml.safe_dump(short_cfg))
        short_data = tmp_path / "short.esd"
        run("--config", str(short_path), "generate", "--preset", "echo", "-n", "4", "-o", str(short_data))

        code = run("--config", str(deep_path), "evaluate", str(model), str(short_data))
        assert code == 4
        err = capsys.readouterr().err
        assert "16" in err and "20" in err

    def test_missing_model_exits_3(self, config_path, dataset_path, tmp_path):
        code = run("--config", config_path, "evaluate", str(tmp_path / "no.esn"), dataset_path)
        assert code == 3

    def test_non_finite_matrix_exits_3_before_stepping(
        self, config_path, model_path, dataset_path, capsys, monkeypatch
    ):
        from echochan import reservoir

        path = Path(model_path)
        data = bytearray(path.read_bytes())
        at = len(data) - 8 * (2 * 40 + 40 * 2 + 40 * 40)  # the first value of w
        data[at : at + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(data))
        monkeypatch.setattr(reservoir, "_step_blocks", None)  # never reached
        code = run("--config", config_path, "evaluate", model_path, dataset_path)
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: matrix w of {model_path} contains non-finite values\n"
        )

    @pytest.mark.parametrize("key", ["seed", "dataset_fingerprint"])
    def test_provenance_without_key_exits_3(self, config_path, model_path, dataset_path, capsys, key):
        path = Path(model_path)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + header_len])
        del header["provenance"][key]
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + len(text).to_bytes(8, "little") + text + data[16 + header_len :])
        code = run("--config", config_path, "evaluate", model_path, dataset_path)
        assert code == 3
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


class TestSweep:
    def test_radius_sweep_csv(self, config_path, dataset_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run("--config", config_path, "sweep", "--axis", "radius", "--data", dataset_path, "-o", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis,value,dataset,repeat,mape_percent,mse,train_seconds,seed"
        assert len(lines) == 3  # two radius values x one repeat
        assert {line.split(",")[1] for line in lines[1:]} == {"0.3", "0.7"}

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("init", SMALL_CONFIG["sweep"]["init_values"]),
            ("size", SMALL_CONFIG["sweep"]["size_values"]),
            ("activation", SMALL_CONFIG["sweep"]["activation_values"]),
            ("radius", [0.3, 0.3000001, 0.123456789]),  # floats read back exactly
        ],
        ids=["init", "size", "activation", "radius"],
    )
    def test_value_column_follows_config_list(self, dataset_path, tmp_path, capsys, axis, values):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], **{f"{axis}_values": values}))))
        out = tmp_path / "sweep.csv"
        code = run("--config", str(path), "sweep", "--axis", axis, "--data", dataset_path, "-o", str(out))
        assert code == 0
        labels = [line.split(",")[1] for line in out.read_text().strip().splitlines()[1:]]
        assert labels == [str(v) for v in values]
        printed = [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
        assert printed == [f"{axis}={v}" for v in values]

    @pytest.mark.parametrize("sequences", ["0", "1"])
    def test_too_few_sequences_exits_4(self, config_path, tmp_path, capsys, sequences):
        data = tmp_path / "few.esd"
        run("--config", config_path, "generate", "--preset", "echo", "-n", sequences, "-o", str(data))
        code = run("--config", config_path, "sweep", "--axis", "radius", "--data", str(data), "-o", str(tmp_path / "s.csv"))
        assert code == 4
        assert capsys.readouterr().err == f"error: need at least 2 sequences to split, got {sequences}\n"

    def test_zero_repeats_exits_2(self, config_path, dataset_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run("--config", config_path, "sweep", "--axis", "radius", "--data", dataset_path,
                   "--repeats", "0", "-o", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: repeats must be >= 1, got 0\n"
        assert not out.exists()

    def test_empty_value_list_exits_2(self, dataset_path, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], radius_values=[]))))
        code = run("--config", str(path), "sweep", "--axis", "radius", "--data", dataset_path, "-o", str(tmp_path / "s.csv"))
        assert code == 2
        assert capsys.readouterr().err == "error: sweep.radius_values must be a non-empty list, got []\n"

    def test_unknown_axis_exits_2(self, config_path, dataset_path, tmp_path):
        code = run("--config", config_path, "sweep", "--axis", "bogus", "--data", dataset_path, "-o", str(tmp_path / "s.csv"))
        assert code == 2

    def test_failed_group_prints_no_mape(self, dataset_path, tmp_path, capsys):
        # a lasso allowed one cycle does not converge: a numeric failure in
        # every cell of its group
        path = tmp_path / "one_cycle.yaml"
        readout = dict(SMALL_CONFIG["readout"], lasso_max_iter=1)
        sweep = dict(SMALL_CONFIG["sweep"], regression_values=["lasso", "ridge"])
        path.write_text(yaml.safe_dump(dict(SMALL_CONFIG, readout=readout, sweep=sweep)))
        code = run("--config", str(path), "sweep", "--axis", "regression", "--data", dataset_path, "-o", str(tmp_path / "s.csv"))
        assert code == 0
        out = capsys.readouterr().out
        assert "nans" not in out
        assert f"regression=lasso dataset={dataset_path}: MAPE n/a (errors 1)\n" in out
        assert f"regression=ridge dataset={dataset_path}: MAPE " in out

    @pytest.mark.parametrize(
        "key, values, bad", [("size_values", [-5, 20], "-5"), ("radius_values", [0.5, 1.5], "1.5")]
    )
    def test_value_its_owner_refuses_exits_2_before_any_cell(
        self, dataset_path, tmp_path, capsys, key, values, bad
    ):
        path = tmp_path / "bad_value.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], **{key: values}))))
        out = tmp_path / "s.csv"
        axis = key.split("_")[0]
        code = run("--config", str(path), "sweep", "--axis", axis, "--data", dataset_path, "-o", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert bad in lines[0]
        # the config key and the refused item come before the owner's text
        item = [str(value) for value in values].index(bad)
        assert lines[0].startswith(f"error: invalid sweep.{key}[{item}]: "), lines
        assert not out.exists()

    def test_regression_axis(self, config_path, dataset_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("--config", config_path, "sweep", "--axis", "regression", "--data", dataset_path, "-o", str(out))
        assert code == 0
        values = {line.split(",")[1] for line in out.read_text().strip().splitlines()[1:]}
        assert values == {"ridge", "linear"}


class TestTransfer:
    def test_direct_and_finetune(self, config_path, tmp_path, capsys):
        src = tmp_path / "src.esd"
        tgt_train = tmp_path / "tt.esd"
        tgt_test = tmp_path / "te.esd"
        run("--config", config_path, "generate", "--preset", "other", "-n", "20", "-o", str(src))
        run("--config", config_path, "--seed", "12", "generate", "--preset", "echo", "-n", "20", "-o", str(tgt_train))
        run("--config", config_path, "--seed", "13", "generate", "--preset", "echo", "-n", "8", "-o", str(tgt_test))

        direct_csv = tmp_path / "direct.csv"
        code = run(
            "--config", config_path, "transfer",
            "--source", str(src), "--target-train", str(tgt_train), "--target-test", str(tgt_test),
            "--mode", "direct", "-o", str(direct_csv),
        )
        assert code == 0
        tuned_csv = tmp_path / "tuned.csv"
        code = run(
            "--config", config_path, "transfer",
            "--source", str(src), "--target-train", str(tgt_train), "--target-test", str(tgt_test),
            "--mode", "finetune", "--alpha", "0", "-o", str(tuned_csv),
        )
        assert code == 0

        header = "mode,alpha,source,target,mape_percent,mse,train_seconds,seed"
        direct_lines = direct_csv.read_text().strip().splitlines()
        tuned_lines = tuned_csv.read_text().strip().splitlines()
        assert direct_lines[0] == header
        assert tuned_lines[0] == header
        direct_mape = float(direct_lines[1].split(",")[4])
        tuned_mape = float(tuned_lines[1].split(",")[4])
        assert tuned_mape <= direct_mape

    @pytest.mark.parametrize("mode", ["direct", "finetune"])
    def test_one_solve_per_run(self, config_path, tmp_path, monkeypatch, mode):
        # finetune solves only the blended readout, not the source one first
        from echochan import readout, transfer

        paths = {name: str(tmp_path / f"{name}.esd") for name in ("src", "tt", "te")}
        for seed, (name, path) in enumerate(paths.items(), start=12):
            run("--config", config_path, "--seed", str(seed), "generate", "--preset", "echo",
                "-n", "6", "-o", path)
        solves = []
        original = readout.solve

        def counted(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(readout, "solve", counted)
        monkeypatch.setattr(transfer, "solve", counted)
        code = run(
            "--config", config_path, "transfer",
            "--source", paths["src"], "--target-train", paths["tt"], "--target-test", paths["te"],
            "--mode", mode, "--alpha", "0.5", "-o", str(tmp_path / "t.csv"),
        )
        assert code == 0
        assert len(solves) == 1

    def test_direct_mode_is_a_source_fit(self, config_path, tmp_path):
        # the source-trained readout scored on the target test set, nothing else
        from echochan import seeding
        from echochan.config import load_config
        from echochan.evaluation import evaluate, write_csv
        from echochan.readout import fit
        from echochan.reservoir import build, with_seed

        paths = {name: str(tmp_path / f"{name}.esd") for name in ("src", "tt", "te")}
        for seed, (name, path) in enumerate(paths.items(), start=21):
            run("--config", config_path, "--seed", str(seed), "generate", "--preset", "other",
                "-n", "6", "-o", path)
        out = tmp_path / "direct.csv"
        code = run(
            "--config", config_path, "transfer",
            "--source", paths["src"], "--target-train", paths["tt"], "--target-test", paths["te"],
            "--mode", "direct", "-o", str(out),
        )
        assert code == 0

        config = load_config(config_path)
        seed = seeding.child_seed(config.master_seed, seeding.STREAM_TRANSFER)
        reservoir = build(with_seed(config.reservoir, seed))
        model = fit(reservoir, load_dataset(paths["src"]), config.readout)
        report = evaluate(reservoir, model, load_dataset(paths["te"]))
        expected = tmp_path / "expected.csv"
        row = ("direct", 1.0, paths["src"], paths["te"], report.mape_percent, report.mse, 0.0, seed)
        write_csv(expected, "mode,alpha,source,target,mape_percent,mse,train_seconds,seed", [row])

        def without_train_seconds(path):
            return [line.split(",")[:6] + line.split(",")[7:] for line in path.read_text().splitlines()]

        assert without_train_seconds(out) == without_train_seconds(expected)

    @pytest.mark.parametrize(
        "mode, alpha, folded",
        [("finetune", "0", ["tt"]), ("finetune", "1", ["src"]),
         ("finetune", "0.5", ["tt", "src"]), ("direct", "0.5", ["src"])],
    )
    def test_folds_only_weighted_datasets(self, config_path, tmp_path, monkeypatch, mode, alpha,
                                          folded):
        from echochan import readout, transfer

        paths = {name: str(tmp_path / f"{name}.esd") for name in ("src", "tt", "te")}
        sizes = {"src": 6, "tt": 5, "te": 4}  # a fold is known by its dataset's size
        for seed, (name, path) in enumerate(paths.items(), start=12):
            run("--config", config_path, "--seed", str(seed), "generate", "--preset", "echo",
                "-n", str(sizes[name]), "-o", path)
        folds = []
        original = readout.accumulate_dataset

        def counted(r, *datasets, **kwargs):
            folds.extend(dataset.num_sequences for dataset in datasets)
            return original(r, *datasets, **kwargs)

        monkeypatch.setattr(readout, "accumulate_dataset", counted)
        monkeypatch.setattr(transfer, "accumulate_dataset", counted)
        code = run(
            "--config", config_path, "transfer",
            "--source", paths["src"], "--target-train", paths["tt"], "--target-test", paths["te"],
            "--mode", mode, "--alpha", alpha, "-o", str(tmp_path / "t.csv"),
        )
        assert code == 0
        assert folds == [sizes[name] for name in folded]

    def test_direct_row_is_the_alpha_one_finetune_row(self, config_path, tmp_path):
        paths = {name: str(tmp_path / f"{name}.esd") for name in ("src", "tt", "te")}
        for seed, (name, path) in enumerate(paths.items(), start=31):
            run("--config", config_path, "--seed", str(seed), "generate", "--preset", "other",
                "-n", "6", "-o", path)
        rows = {}
        for mode in ("direct", "finetune"):
            out = tmp_path / f"{mode}.csv"
            code = run(
                "--config", config_path, "transfer",
                "--source", paths["src"], "--target-train", paths["tt"],
                "--target-test", paths["te"], "--mode", mode, "--alpha", "1", "-o", str(out),
            )
            assert code == 0
            cells = out.read_text().splitlines()[1].split(",")
            rows[mode] = cells[1:6] + cells[7:]  # all but mode and train_seconds
        assert rows["direct"][0] == "1.0"
        assert rows["direct"] == rows["finetune"]

    def test_invalid_alpha_exits_2(self, config_path, tmp_path, capsys):
        # the datasets do not exist: alpha is checked before any is read
        code = run(
            "--config", config_path, "transfer",
            "--source", "a.esd", "--target-train", "b.esd", "--target-test", "c.esd",
            "--mode", "finetune", "--alpha", "1.5", "-o", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: alpha must be in [0, 1], got 1.5\n"


def run_python(*argv):
    """Run ``python *argv`` with the package these tests import on the path."""
    src = str(Path(echochan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from echochan.cli import main

config, d = sys.argv[1:]
for argv in (
    ["generate", "--preset", "other", "-n", "20", "-o", f"{d}/src.esd"],
    ["--seed", "12", "generate", "--preset", "echo", "-n", "20", "-o", f"{d}/tt.esd"],
    ["--seed", "13", "generate", "--preset", "echo", "-n", "8", "-o", f"{d}/te.esd"],
    ["train", f"{d}/tt.esd", "-o", f"{d}/m.esn"],
    ["evaluate", f"{d}/m.esn", f"{d}/te.esd"],
    ["transfer", "--source", f"{d}/src.esd", "--target-train", f"{d}/tt.esd",
     "--target-test", f"{d}/te.esd", "--mode", "finetune", "--alpha", "0.5", "-o", f"{d}/t.csv"],
):
    code = main(["--config", config, *argv])
    if code:
        sys.exit(code)
"""

ONE_BLAS = """
import sys

from echochan.cli import main

d = sys.argv[1]
for argv in (
    ["generate", "--preset", "data1", "-n", "6", "-o", f"{d}/d.esd"],
    ["train", f"{d}/d.esd", "-o", f"{d}/m.esn", "--size", "60"],
):
    if main(argv):
        sys.exit(1)
with open("/proc/self/maps") as maps:
    for library in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        print("mapped:", library)
"""


class TestEntryPoint:
    def test_module_invocation(self):
        result = run_python("-m", "echochan", "--help")
        assert result.returncode == 0
        for sub in ("generate", "train", "evaluate", "sweep", "transfer"):
            assert sub in result.stdout

    def test_subcommand_help_documents_flags(self):
        result = run_python("-m", "echochan", "train", "--help")
        assert result.returncode == 0
        for flag in ("--radius", "--size", "--init", "--regression", "-o"):
            assert flag in result.stdout

    def test_runs_without_scipy(self, config_path, tmp_path):
        result = run_python("-c", WITHOUT_SCIPY, config_path, str(tmp_path))
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_train_maps_one_openblas(self, tmp_path):
        # the in-place fold calls into numpy's own OpenBLAS; a second copy
        # would bring a second thread pool that contends with the first
        result = run_python("-c", ONE_BLAS, str(tmp_path))
        assert result.returncode == 0, result.stderr
        libraries = [line for line in result.stdout.splitlines() if line.startswith("mapped:")]
        if not libraries:
            pytest.skip("numpy is not built against OpenBLAS")
        assert len(libraries) == 1, libraries
