"""Structured run configuration.

A run is driven by one YAML file (strictly parsed: unknown keys are
fatal) holding the waveform parameters, the named channel presets, the
reservoir and readout settings, the train/test split, and the sweep
value lists. ``default_config.yaml`` ships inside the package and is
used when neither ``--config`` nor ``$ECHOCHAN_CONFIG`` names a file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from .channelsim import Awgn, ChannelSpec, Multipath, Tap, WaveformSpec
from .errors import ConfigError
from .readout import Lasso, Linear, RegressionMethod, Ridge
from .reservoir import Activation, InitMethod, ReservoirConfig

ENV_CONFIG = "ECHOCHAN_CONFIG"

_TOP_KEYS = {"master_seed", "threads", "waveform", "channels", "reservoir", "readout", "split", "sweep"}
_WAVEFORM_KEYS = {"bits_per_sequence", "samples_per_symbol", "rolloff", "filter_span", "sequence_length"}
_CHANNEL_KEYS = {"kind", "snr_db", "taps", "disturbance", "disturbance_period"}
_RESERVOIR_KEYS = {
    "input_dim",
    "reservoir_size",
    "output_dim",
    "init",
    "sparsity",
    "spectral_radius",
    "activation",
    "use_feedback",
    "washout",
    "allow_unstable",
}
_READOUT_KEYS = {"method", "ridge_lambda", "lasso_lambda", "lasso_max_iter", "lasso_tol"}
_SPLIT_KEYS = {"train_fraction"}
_SWEEP_KEYS = {
    "repeats",
    "radius_values",
    "size_values",
    "init_values",
    "activation_values",
    "regression_values",
}


@dataclass(frozen=True)
class SweepSettings:
    repeats: int
    radius_values: tuple[float, ...]
    size_values: tuple[int, ...]
    init_values: tuple[InitMethod, ...]
    activation_values: tuple[Activation, ...]
    regression_names: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    master_seed: int
    threads: Optional[int]
    waveform: WaveformSpec
    channels: dict[str, ChannelSpec]
    reservoir: ReservoirConfig
    readout: RegressionMethod
    readout_section: dict
    train_fraction: float
    sweep: SweepSettings
    source_path: str

    def channel(self, name: str) -> ChannelSpec:
        if name not in self.channels:
            available = ", ".join(sorted(self.channels))
            raise ConfigError(f"unknown channel preset {name!r}; available presets: {available}")
        return self.channels[name]

    def regression(self, name: str) -> RegressionMethod:
        return _regression_from_name(name, self.readout_section)


def default_config_path() -> Path:
    return Path(resources.files("echochan") / "default_config.yaml")


def resolve_config_path(path: Optional[str]) -> Path:
    if path is not None:
        return Path(path)
    env = os.environ.get(ENV_CONFIG)
    if env:
        return Path(env)
    return default_config_path()


def load_config(path: Optional[str] = None) -> RunConfig:
    """Parse and validate the config file at ``path`` (or the fallback)."""
    resolved = resolve_config_path(path)
    if not resolved.is_file():
        raise ConfigError(f"config file not found: {resolved}")
    try:
        raw = yaml.safe_load(resolved.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {resolved} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {resolved} must hold a mapping at the top level")
    return parse_config(raw, source=str(resolved))


def _check_keys(section: dict, allowed: set, context: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        names = ", ".join(sorted(str(k) for k in unknown))
        raise ConfigError(f"unknown key(s) in {context}: {names}")


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return section[key]


def _as_number(value, key: str, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number, got {value!r}")
    return float(value)


def _as_int(value, key: str, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}.{key} must be an integer, got {value!r}")
    return value


def _as_bool(value, key: str, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context}.{key} must be a boolean, got {value!r}")
    return value


def _as_mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping, got {value!r}")
    return dict(value)


def _parse_waveform(section: dict) -> WaveformSpec:
    _check_keys(section, _WAVEFORM_KEYS, "waveform")
    try:
        return WaveformSpec(
            bits_per_sequence=_as_int(_require(section, "bits_per_sequence", "waveform"), "bits_per_sequence", "waveform"),
            samples_per_symbol=_as_int(_require(section, "samples_per_symbol", "waveform"), "samples_per_symbol", "waveform"),
            rolloff=_as_number(_require(section, "rolloff", "waveform"), "rolloff", "waveform"),
            filter_span=_as_int(_require(section, "filter_span", "waveform"), "filter_span", "waveform"),
            sequence_length=_as_int(_require(section, "sequence_length", "waveform"), "sequence_length", "waveform"),
            seed=0,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid waveform section: {exc}") from exc


def _parse_channel(name: str, section: dict) -> ChannelSpec:
    context = f"channels.{name}"
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be a mapping")
    _check_keys(section, _CHANNEL_KEYS, context)
    kind = _require(section, "kind", context)
    snr_raw = _require(section, "snr_db", context)
    snr_db = float("inf") if snr_raw in ("inf", ".inf") else _as_number(snr_raw, "snr_db", context)
    try:
        if kind == "awgn":
            for key in ("taps", "disturbance", "disturbance_period"):
                if key in section:
                    raise ConfigError(f"{context}.{key} is only valid for multipath channels")
            return Awgn(snr_db=snr_db)
        if kind == "multipath":
            taps_raw = _require(section, "taps", context)
            if not isinstance(taps_raw, list) or not taps_raw:
                raise ConfigError(f"{context}.taps must be a non-empty list")
            taps = []
            for entry in taps_raw:
                if not isinstance(entry, list) or len(entry) != 3:
                    raise ConfigError(
                        f"{context}.taps entries must be [delay, gain_i, gain_q], got {entry!r}"
                    )
                taps.append(Tap(int(entry[0]), float(entry[1]), float(entry[2])))
            return Multipath(
                taps=tuple(taps),
                disturbance=_as_number(section.get("disturbance", 0.0), "disturbance", context),
                disturbance_period=_as_int(section.get("disturbance_period", 200), "disturbance_period", context),
                snr_db=snr_db,
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc
    raise ConfigError(f"{context}.kind must be 'awgn' or 'multipath', got {kind!r}")


def _parse_reservoir(section: dict, master_seed: int) -> ReservoirConfig:
    _check_keys(section, _RESERVOIR_KEYS, "reservoir")
    try:
        return ReservoirConfig(
            input_dim=_as_int(section.get("input_dim", 2), "input_dim", "reservoir"),
            reservoir_size=_as_int(_require(section, "reservoir_size", "reservoir"), "reservoir_size", "reservoir"),
            output_dim=_as_int(section.get("output_dim", 2), "output_dim", "reservoir"),
            init=InitMethod.from_name(str(_require(section, "init", "reservoir"))),
            sparsity=_as_number(section.get("sparsity", 1.0), "sparsity", "reservoir"),
            target_spectral_radius=_as_number(
                _require(section, "spectral_radius", "reservoir"), "spectral_radius", "reservoir"
            ),
            activation=Activation.from_name(str(_require(section, "activation", "reservoir"))),
            use_feedback=_as_bool(section.get("use_feedback", False), "use_feedback", "reservoir"),
            washout=_as_int(section.get("washout", 0), "washout", "reservoir"),
            seed=master_seed,
            allow_unstable=_as_bool(section.get("allow_unstable", False), "allow_unstable", "reservoir"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid reservoir section: {exc}") from exc


def _regression_from_name(name: str, section: dict) -> RegressionMethod:
    try:
        if name == "ridge":
            return Ridge(lam=float(section.get("ridge_lambda", 1e-6)))
        if name == "linear":
            return Linear()
        if name == "lasso":
            return Lasso(
                lam=float(section.get("lasso_lambda", 1e-4)),
                max_iter=int(section.get("lasso_max_iter", 10_000)),
                tol=float(section.get("lasso_tol", 1e-8)),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid readout section: {exc}") from exc
    raise ConfigError(f"readout.method must be ridge, linear or lasso, got {name!r}")


def parse_config(raw: dict, source: str = "<memory>") -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "config")
    master_seed = _as_int(raw.get("master_seed", 0), "master_seed", "config")
    threads_raw = raw.get("threads")
    threads = None if threads_raw is None else _as_int(threads_raw, "threads", "config")
    if threads is not None and threads < 1:
        raise ConfigError(f"config.threads must be >= 1, got {threads}")

    waveform = _parse_waveform(_as_mapping(_require(raw, "waveform", "config"), "waveform"))

    channels_raw = _require(raw, "channels", "config")
    if not isinstance(channels_raw, dict) or not channels_raw:
        raise ConfigError("config.channels must be a non-empty mapping of presets")
    channels = {
        str(name): _parse_channel(str(name), section) for name, section in channels_raw.items()
    }

    reservoir = _parse_reservoir(
        _as_mapping(_require(raw, "reservoir", "config"), "reservoir"), master_seed
    )

    readout_section = _as_mapping(_require(raw, "readout", "config"), "readout")
    _check_keys(readout_section, _READOUT_KEYS, "readout")
    method = _regression_from_name(
        str(_require(readout_section, "method", "readout")), readout_section
    )

    split_section = _as_mapping(raw.get("split", {}), "split")
    _check_keys(split_section, _SPLIT_KEYS, "split")
    train_fraction = _as_number(split_section.get("train_fraction", 0.8), "train_fraction", "split")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"split.train_fraction must be in (0, 1), got {train_fraction}")

    sweep_section = _as_mapping(raw.get("sweep", {}), "sweep")
    _check_keys(sweep_section, _SWEEP_KEYS, "sweep")
    try:
        sweep = SweepSettings(
            repeats=_as_int(sweep_section.get("repeats", 5), "repeats", "sweep"),
            radius_values=tuple(
                float(v) for v in sweep_section.get("radius_values", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
            ),
            size_values=tuple(
                int(v) for v in sweep_section.get("size_values", [50, 100, 150, 300, 578, 600, 1200, 2400])
            ),
            init_values=tuple(
                InitMethod.from_name(str(v))
                for v in sweep_section.get("init_values", ["random", "xavier", "normalized_xavier", "he"])
            ),
            activation_values=tuple(
                Activation.from_name(str(v))
                for v in sweep_section.get("activation_values", ["tanh", "relu", "sigmoid"])
            ),
            regression_names=tuple(
                str(v) for v in sweep_section.get("regression_values", ["ridge", "linear", "lasso"])
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep section: {exc}") from exc
    if sweep.repeats < 1:
        raise ConfigError(f"sweep.repeats must be >= 1, got {sweep.repeats}")

    return RunConfig(
        master_seed=master_seed,
        threads=threads,
        waveform=waveform,
        channels=channels,
        reservoir=reservoir,
        readout=method,
        readout_section=readout_section,
        train_fraction=train_fraction,
        sweep=sweep,
        source_path=source,
    )
