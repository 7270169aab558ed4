"""Config parsing tests."""

import pytest

from echochan.channelsim import Awgn, Multipath
from echochan.config import load_config, parse_config
from echochan.errors import ConfigError
from echochan.readout import Lasso, Linear, Ridge
from echochan.reservoir import Activation, InitMethod


def minimal_raw(**overrides):
    raw = {
        "master_seed": 1,
        "waveform": {
            "bits_per_sequence": 80,
            "samples_per_symbol": 2,
            "rolloff": 0.35,
            "filter_span": 8,
            "sequence_length": 80,
        },
        "channels": {
            "awgn": {"kind": "awgn", "snr_db": 20.0},
            "mp": {"kind": "multipath", "snr_db": 25.0, "taps": [[0, 1.0, 0.0]]},
        },
        "reservoir": {
            "reservoir_size": 30,
            "init": "xavier",
            "spectral_radius": 0.5,
            "activation": "tanh",
        },
        "readout": {"method": "ridge", "ridge_lambda": 1e-6},
    }
    raw.update(overrides)
    return raw


class TestShippedDefaults:
    def test_loads_shipped_defaults(self):
        config = load_config()
        assert config.reservoir.reservoir_size == 578
        assert config.reservoir.target_spectral_radius == 0.5
        assert config.reservoir.init is InitMethod.XAVIER
        assert config.reservoir.activation is Activation.TANH
        assert isinstance(config.readout, Ridge)
        assert config.waveform.sequence_length == 578

    def test_all_presets_defined(self):
        config = load_config()
        for name in ("awgn", "data1", "data2", "data3", "data4", "bellhop_like"):
            assert name in config.channels

    def test_sweep_defaults(self):
        config = load_config()
        assert config.sweep.radius_values == tuple(
            pytest.approx(v) for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        )
        assert config.sweep.size_values == (50, 100, 150, 300, 578, 600, 1200, 2400)

    def test_disturbance_gradient(self):
        config = load_config()
        assert config.channels["data1"].disturbance == 0.0
        assert config.channels["data2"].disturbance == 0.0
        assert config.channels["data3"].disturbance == pytest.approx(0.2)
        assert config.channels["data4"].disturbance == pytest.approx(0.6)
        assert config.channels["data4"].snr_db < config.channels["data3"].snr_db
        assert len(config.channels["data1"].taps) == 2
        assert len(config.channels["bellhop_like"].taps) == 8


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="resevoir"):
            parse_config(minimal_raw(resevoir={}))

    def test_unknown_reservoir_key(self):
        raw = minimal_raw()
        raw["reservoir"]["spectal_radius"] = 0.5
        with pytest.raises(ConfigError, match="spectal_radius"):
            parse_config(raw)

    def test_unknown_channel_key(self):
        raw = minimal_raw()
        raw["channels"]["awgn"]["snr"] = 3
        with pytest.raises(ConfigError, match="snr"):
            parse_config(raw)

    def test_missing_required_key(self):
        raw = minimal_raw()
        del raw["reservoir"]["reservoir_size"]
        with pytest.raises(ConfigError, match="reservoir_size"):
            parse_config(raw)

    def test_awgn_with_taps_rejected(self):
        raw = minimal_raw()
        raw["channels"]["awgn"]["taps"] = [[0, 1.0, 0.0]]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_bad_enum_value(self):
        raw = minimal_raw()
        raw["reservoir"]["init"] = "glorot"
        with pytest.raises(ConfigError, match="glorot"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("channels", "taps", [[None, 0.9, 0.1]]),
            ("readout", "ridge_lambda", [1]),
            ("sweep", "radius_values", [{}]),
            (None, "readout", [1, 2]),
            ("sweep", "size_values", 5),
            (None, "waveform", 5),
            ("channels", "taps", [[1.9, 0.9, 0.1]]),
            ("channels", "taps", [[True, 0.9, 0.1]]),
            ("sweep", "size_values", [50.7]),
            ("readout", "lasso_max_iter", 2.5),
            ("sweep", "radius_values", ["0.3"]),
            ("readout", "ridge_lambda", True),
            ("readout", "ridge_lambda", "1e-3"),
            (None, "master_seed", -5),
        ],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, section, key, value):
        import yaml

        from echochan.cli import main

        raw = minimal_raw(sweep={})
        target = raw if section is None else raw[section]
        if section == "channels":
            target = target["mp"]
        target[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        code = main(["--config", str(path), "generate", "--preset", "mp", "-n", "1",
                     "-o", str(tmp_path / "out.esd")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestParsedValues:
    def test_channel_kinds(self):
        config = parse_config(minimal_raw())
        assert isinstance(config.channels["awgn"], Awgn)
        assert isinstance(config.channels["mp"], Multipath)

    def test_unknown_preset_lists_available(self):
        config = parse_config(minimal_raw())
        with pytest.raises(ConfigError, match="awgn, mp"):
            config.channel("data9")

    def test_regression_selector(self):
        config = parse_config(minimal_raw())
        assert config.regression("ridge") == Ridge(lam=1e-6)
        assert config.regression("linear") == Linear()
        assert isinstance(config.regression("lasso"), Lasso)
        with pytest.raises(ConfigError):
            config.regression("ols")

    def test_reservoir_seed_follows_master_seed(self):
        config = parse_config(minimal_raw(master_seed=99))
        assert config.reservoir.seed == 99

    def test_env_fallback(self, tmp_path, monkeypatch):
        import yaml

        path = tmp_path / "custom.yaml"
        path.write_text(yaml.safe_dump(minimal_raw(master_seed=7)))
        monkeypatch.setenv("ECHOCHAN_CONFIG", str(path))
        assert load_config().master_seed == 7

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.yaml")
