"""End-to-end CLI tests (in-process via main(), one subprocess check)."""

import os
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
        "input_dim": 2,
        "reservoir_size": 40,
        "output_dim": 2,
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


class TestSweep:
    def test_radius_sweep_csv(self, config_path, dataset_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run("--config", config_path, "sweep", "--axis", "radius", "--data", dataset_path, "-o", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis,value,dataset,repeat,mape_percent,mse,train_seconds,seed"
        assert len(lines) == 3  # two radius values x one repeat
        assert {line.split(",")[1] for line in lines[1:]} == {"0.3", "0.7"}

    def test_unknown_axis_exits_2(self, config_path, dataset_path, tmp_path):
        code = run("--config", config_path, "sweep", "--axis", "bogus", "--data", dataset_path, "-o", str(tmp_path / "s.csv"))
        assert code == 2

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

    def test_invalid_alpha_exits_2(self, config_path, tmp_path):
        code = run(
            "--config", config_path, "transfer",
            "--source", "a.esd", "--target-train", "b.esd", "--target-test", "c.esd",
            "--mode", "finetune", "--alpha", "1.5", "-o", str(tmp_path / "t.csv"),
        )
        assert code == 2


def run_module(*argv):
    """Run ``python -m echochan`` on the package these tests import."""
    src = str(Path(echochan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "echochan", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestEntryPoint:
    def test_module_invocation(self):
        result = run_module("--help")
        assert result.returncode == 0
        for sub in ("generate", "train", "evaluate", "sweep", "transfer"):
            assert sub in result.stdout

    def test_subcommand_help_documents_flags(self):
        result = run_module("train", "--help")
        assert result.returncode == 0
        for flag in ("--radius", "--size", "--init", "--regression", "-o"):
            assert flag in result.stdout
