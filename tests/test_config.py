"""Config parsing tests."""

import pytest

from echochan.channelsim import (
    Awgn,
    Multipath,
    Tap,
    WaveformSpec,
    generate_dataset,
    raised_cosine_taps,
)
from echochan.config import load_config, parse_config
from echochan.errors import ConfigError
from echochan.evaluation import SweepAxis, SweepSpec, split_indices
from echochan.readout import Lasso, Linear, Ridge
from echochan.reservoir import Activation, InitMethod, ReservoirConfig
from echochan.transfer import fine_tune


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

    def test_reservoir_is_iq_wide(self):
        config = load_config()
        assert (config.reservoir.input_dim, config.reservoir.output_dim) == (2, 2)

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

    def test_optional_keys_hold_the_owners_defaults(self):
        # the shipped file with every optional key deleted parses to an
        # equal config: its optional values are the defaults the owning
        # types state. The seed stays, and so do the presets, whose
        # disturbances are preset data, not defaults.
        from echochan import config

        def required(section: dict, keys: dict) -> dict:
            return {k: v for k, v in section.items() if keys[k][1] is config._REQUIRED}

        raw = config.read_raw_config()
        stripped = {
            **required(raw, config._TOP),
            "master_seed": raw["master_seed"],
            "channels": raw["channels"],
            "waveform": required(raw["waveform"], config._WAVEFORM),
            "reservoir": required(raw["reservoir"], config._RESERVOIR),
            "readout": required(raw["readout"], config._READOUT),
        }
        assert set(stripped) < set(raw)
        assert stripped["readout"] == {"method": "ridge"}
        assert parse_config(stripped) == parse_config(raw)

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

    @pytest.mark.parametrize("key", ["input_dim", "output_dim"])
    def test_iq_width_is_not_a_key(self, tmp_path, capsys, key):
        # every dataset is I/Q, so no key sets the reservoir's input or output
        # width: an old copy of the shipped config that still has one exits 2
        from echochan.cli import main
        from echochan.config import default_config_path

        path = tmp_path / "old.yaml"
        text = default_config_path().read_text()
        path.write_text(text.replace("  reservoir_size:", f"  {key}: 2\n  reservoir_size:", 1))
        code = main(["--config", str(path), "generate", "--preset", "awgn", "-n", "1",
                     "-o", str(tmp_path / "out.esd")])
        assert code == 2
        assert capsys.readouterr().err == f"error: unknown key(s) in reservoir: {key}\n"
        assert not (tmp_path / "out.esd").exists()

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
        with pytest.raises(
            ConfigError,
            match="reservoir.init must be one of random, xavier, normalized_xavier, he, got 'glorot'",
        ):
            parse_config(raw)

    def test_enum_names_ignore_case_and_spaces(self):
        raw = minimal_raw(sweep={"activation_values": ["ReLU", "tanh "]})
        raw["reservoir"]["init"] = " Xavier "
        config = parse_config(raw)
        assert config.reservoir.init is InitMethod.XAVIER
        assert config.sweep.activation_values == (Activation.RELU, Activation.TANH)

    @pytest.mark.parametrize("name", ["yes", "1e3"])
    def test_preset_name_must_be_a_string(self, tmp_path, capsys, name):
        import yaml

        from echochan.cli import main

        path = tmp_path / "presets.yaml"
        path.write_text(yaml.safe_dump(minimal_raw()).replace("  awgn:\n", f"  {name}:\n"))
        assert f"  {name}:\n" in path.read_text()
        code = main(["--config", str(path), "generate", "--preset", "mp", "-n", "1",
                     "-o", str(tmp_path / "out.esd")])
        assert code == 2
        assert "channel preset name must be a string" in capsys.readouterr().err

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

    def test_exponent_without_point_is_a_number(self, tmp_path):
        import yaml

        raw = minimal_raw()
        raw["readout"]["ridge_lambda"] = "1e-3"
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert "ridge_lambda: 1e-3\n" in path.read_text()  # written unquoted
        assert load_config(str(path)).readout.lam == 0.001

    def test_quoted_exponent_exits_2(self, tmp_path, capsys):
        import yaml

        from echochan.cli import main

        raw = minimal_raw()
        raw["readout"]["ridge_lambda"] = 0.5
        path = tmp_path / "quoted.yaml"
        path.write_text(yaml.safe_dump(raw).replace("ridge_lambda: 0.5", "ridge_lambda: '1e-3'"))
        code = main(["--config", str(path), "generate", "--preset", "mp", "-n", "1",
                     "-o", str(tmp_path / "out.esd")])
        assert code == 2
        assert "readout.ridge_lambda must be a number, got '1e-3'" in capsys.readouterr().err

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        from echochan.cli import main

        path = tmp_path / "broken.yaml"
        path.write_text("master_seed: [1, 2\nreservoir: {\n")
        code = main(["--config", str(path), "generate", "--preset", "mp", "-n", "1",
                     "-o", str(tmp_path / "out.esd")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not valid YAML" in err


class TestLoader:
    """The config loader reads what the pure-Python safe loader, with the
    same exponent resolver, reads."""

    @staticmethod
    def python_load(text):
        import yaml

        from echochan import config

        class Reference(yaml.SafeLoader):
            yaml_implicit_resolvers = config._Loader.yaml_implicit_resolvers

        return yaml.load(text, Loader=Reference)

    def test_uses_libyaml_when_built_with_it(self):
        import yaml

        from echochan import config

        if yaml.__with_libyaml__:
            assert issubclass(config._Loader, yaml.CSafeLoader)
        else:
            assert issubclass(config._Loader, yaml.SafeLoader)

    def test_shipped_config_reads_the_same(self):
        import yaml

        from echochan import config

        text = config.default_config_path().read_text()
        assert yaml.load(text, Loader=config._Loader) == self.python_load(text)

    @pytest.mark.parametrize(
        "scalar, expected",
        [
            ("1e-3", 1e-3),
            ("1E+4", 1e4),
            ("2.5e7", 2.5e7),
            ("'1e-3'", "1e-3"),
            (".5e3", 500.0),
            ("1_000e2", 1e5),
            ("-1e-3", -1e-3),
        ],
    )
    def test_exponent_forms_read_the_same(self, scalar, expected):
        import yaml

        from echochan import config

        text = f"value: {scalar}\nlist: [{scalar}, 2]\n"
        loaded = yaml.load(text, Loader=config._Loader)
        assert loaded == self.python_load(text)
        assert loaded["value"] == expected and type(loaded["value"]) is type(expected)


class TestParsedValues:
    def test_channel_kinds(self):
        config = parse_config(minimal_raw())
        assert isinstance(config.channels["awgn"], Awgn)
        assert isinstance(config.channels["mp"], Multipath)

    def test_unknown_preset_lists_available(self):
        config = parse_config(minimal_raw())
        with pytest.raises(ConfigError, match="awgn, mp"):
            config.channel("data9")

    def test_regression_selector(self, tmp_path, capsys):
        import yaml

        from echochan.cli import main

        config = parse_config(minimal_raw(sweep={"regression_values": ["ridge", "linear", "lasso"]}))
        assert config.sweep.regression_values == (
            Ridge(lam=1e-6), Linear(), Lasso(lam=1e-4, max_iter=10_000, tol=1e-8)
        )
        path = tmp_path / "ols.yaml"
        path.write_text(yaml.safe_dump(minimal_raw(sweep={"regression_values": ["ols"]})))
        code = main(["--config", str(path), "generate", "--preset", "mp", "-n", "1",
                     "-o", str(tmp_path / "out.esd")])
        assert code == 2
        assert "sweep.regression_values[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["radius_values", "size_values", "init_values", "activation_values", "regression_values"]
    )
    def test_empty_sweep_list_rejected(self, key):
        # parsing takes the list; the sweep of its axis refuses it by key
        config = parse_config(minimal_raw(sweep={key: []}))
        axis = SweepAxis(key.removesuffix("_values"))
        message = rf"^invalid sweep\.{key}: sweep needs at least one axis value$"
        with pytest.raises(ConfigError, match=message):
            config.sweep_spec(axis, (("d", None),))

    def test_empty_taps_refused_by_multipath(self):
        raw = minimal_raw()
        raw["channels"]["mp"]["taps"] = []
        message = r"^invalid channels\.mp: multipath channel needs at least one tap$"
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)

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



def _sweep(**overrides):
    wave = WaveformSpec(bits_per_sequence=40, sequence_length=40)
    base = dict(
        axis=SweepAxis.SIZE,
        values=(20,),
        base_config=ReservoirConfig(input_dim=2, reservoir_size=20, output_dim=2),
        method=Ridge(),
        datasets=(("d", generate_dataset(wave, Awgn(20.0), 4)),),
    )
    return SweepSpec(**dict(base, **overrides))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Awgn(snr_db=float("nan")), "snr_db must be a real", id="_check_snr"),
        pytest.param(lambda: raised_cosine_taps(0.0, 8, 2), "rolloff must be in", id="_check_pulse"),
        pytest.param(lambda: Tap(-1, 1.0, 0.0), "tap delay must be >= 0", id="Tap"),
        pytest.param(lambda: Multipath(taps=()), "at least one tap", id="Multipath"),
        pytest.param(lambda: WaveformSpec(bits_per_sequence=3), "bits_per_sequence", id="WaveformSpec"),
        pytest.param(
            lambda: generate_dataset(WaveformSpec(), Awgn(20.0), -1),
            "num_sequences must be >= 0, got -1",
            id="generate_dataset",
        ),
        pytest.param(
            lambda: ReservoirConfig(2, 30, 2, sparsity=1.5),
            r"sparsity must be in \[0, 1\], got 1.5",
            id="ReservoirConfig",
        ),
        pytest.param(lambda: Ridge(lam=-1.0), "ridge lambda", id="Ridge"),
        pytest.param(lambda: Lasso(max_iter=0), "lasso max_iter", id="Lasso"),
        pytest.param(lambda: _sweep(repeats=0), "repeats must be >= 1, got 0", id="SweepSpec"),
        pytest.param(lambda: _sweep(values=(20, -5)), r"got \(2, -5, 2\)", id="SweepSpec-values"),
        pytest.param(
            lambda: fine_tune(None, None, None, 1.5, Ridge()),
            r"alpha must be in \[0, 1\], got 1.5",
            id="fine_tune",
        ),
        pytest.param(
            lambda: split_indices(10, 1.5, 0),
            r"train_fraction must be in \(0, 1\), got 1.5",
            id="split_indices",
        ),
    ],
)
def test_owner_refuses_a_bad_value_with_config_error(call, message):
    # a value from a config key, a flag or a sweep list is checked by the
    # type or function that owns it, as a ConfigError (exit 2 on the CLI)
    with pytest.raises(ConfigError, match=message):
        call()
