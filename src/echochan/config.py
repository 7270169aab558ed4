"""Structured run configuration.

A run is driven by one YAML file (strictly parsed: unknown keys are
fatal) holding the waveform parameters, the named channel presets, the
reservoir and readout settings, the train/test split, and the sweep
value lists. ``default_config.yaml`` ships inside the package and is
used when neither ``--config`` nor ``$ECHOCHAN_CONFIG`` names a file.

Every key of every section is declared once below with its kind and
its default (or ``_REQUIRED``). A kind is a function ``(value, name)``
that returns the value if its type is right and otherwise raises
``ConfigError`` naming the key; nothing is cast. An integer is an
``int`` but not a ``bool``; a number is an ``int`` or ``float`` but not
a ``bool``, returned as a float. The store reuses the kinds for headers.
"""

from __future__ import annotations

import math
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


def _kind(what: str, accepts, read=lambda value: value):
    """A kind that returns ``read(value)`` for a value ``accepts`` allows."""

    def check(value, name: str):
        if not accepts(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return read(value)

    return check


integer = _kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
number = _kind(
    "a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float
)
boolean = _kind("a boolean", lambda v: isinstance(v, bool))
string = _kind("a string", lambda v: isinstance(v, str))
mapping = _kind("a mapping", lambda v: isinstance(v, dict))


def _at_least(low: int):
    def read(value, name):
        if integer(value, name) < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
        return value

    return read


def _optional(kind):
    return lambda value, name: None if value is None else kind(value, name)


def _list_of(kind):
    def read(value, name):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(kind(item, f"{name}[{i}]") for i, item in enumerate(value))

    return read


def _named(enum):
    """A string naming a member of ``enum`` (see its ``from_name``)."""

    def read(value, name):
        text = string(value, name)
        try:
            return enum.from_name(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None

    return read


def _fraction(value, name: str) -> float:
    fraction = number(value, name)
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"{name} must be in (0, 1), got {fraction}")
    return fraction


def _snr(value, name: str) -> float:
    """A number, or the string ``inf`` for a noiseless channel."""
    if value in ("inf", ".inf"):
        return math.inf
    return number(value, name)


def _tap(value, name: str) -> tuple[int, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{name} must be [delay, gain_i, gain_q], got {value!r}")
    return (
        integer(value[0], f"{name}[0]"),
        number(value[1], f"{name}[1]"),
        number(value[2], f"{name}[2]"),
    )


_REQUIRED = object()

_TOP = {
    "master_seed": (_at_least(0), 0),
    "threads": (_optional(_at_least(1)), None),
    "waveform": (mapping, _REQUIRED),
    "channels": (mapping, _REQUIRED),
    "reservoir": (mapping, _REQUIRED),
    "readout": (mapping, _REQUIRED),
    "split": (mapping, {}),
    "sweep": (mapping, {}),
}
_WAVEFORM = {
    "bits_per_sequence": (integer, _REQUIRED),
    "samples_per_symbol": (integer, _REQUIRED),
    "rolloff": (number, _REQUIRED),
    "filter_span": (integer, _REQUIRED),
    "sequence_length": (integer, _REQUIRED),
}
_AWGN = {
    "kind": (string, _REQUIRED),
    "snr_db": (_snr, _REQUIRED),
}
_MULTIPATH = {
    **_AWGN,
    "taps": (_list_of(_tap), _REQUIRED),
    "disturbance": (number, 0.0),
    "disturbance_period": (integer, 200),
}
_RESERVOIR = {
    "input_dim": (integer, 2),
    "reservoir_size": (integer, _REQUIRED),
    "output_dim": (integer, 2),
    "init": (_named(InitMethod), _REQUIRED),
    "sparsity": (number, 1.0),
    "spectral_radius": (number, _REQUIRED),
    "activation": (_named(Activation), _REQUIRED),
    "use_feedback": (boolean, False),
    "washout": (integer, 0),
    "allow_unstable": (boolean, False),
}
_READOUT = {
    "method": (string, _REQUIRED),
    "ridge_lambda": (number, 1e-6),
    "lasso_lambda": (number, 1e-4),
    "lasso_max_iter": (integer, 10_000),
    "lasso_tol": (number, 1e-8),
}
_SPLIT = {
    "train_fraction": (_fraction, 0.8),
}
_SWEEP = {
    "repeats": (_at_least(1), 5),
    "radius_values": (_list_of(number), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    "size_values": (_list_of(integer), [50, 100, 150, 300, 578, 600, 1200, 2400]),
    "init_values": (_list_of(_named(InitMethod)), ["random", "xavier", "normalized_xavier", "he"]),
    "activation_values": (_list_of(_named(Activation)), ["tanh", "relu", "sigmoid"]),
    "regression_values": (_list_of(string), ["ridge", "linear", "lasso"]),
}


def _read(section: dict, keys: dict, context: str) -> dict:
    """Check ``section`` against ``keys`` ({key: (kind, default)}) and
    return every declared key with its checked value or default."""
    unknown = set(section) - set(keys)
    if unknown:
        names = ", ".join(sorted(str(k) for k in unknown))
        raise ConfigError(f"unknown key(s) in {context}: {names}")
    values = {}
    for key, (kind, default) in keys.items():
        if key not in section and default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {context}")
        values[key] = kind(section.get(key, default), f"{context}.{key}")
    return values


@dataclass(frozen=True)
class SweepSettings:
    repeats: int
    radius_values: tuple[float, ...]
    size_values: tuple[int, ...]
    init_values: tuple[InitMethod, ...]
    activation_values: tuple[Activation, ...]
    regression_values: tuple[str, ...]


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


def read_raw_config(path: Optional[str] = None) -> dict:
    """The top-level mapping of the config file at ``path`` (or the
    fallback), before any key is checked."""
    resolved = resolve_config_path(path)
    if not resolved.is_file():
        raise ConfigError(f"config file not found: {resolved}")
    try:
        raw = yaml.safe_load(resolved.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {resolved} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {resolved} must hold a mapping at the top level")
    return raw


def load_config(path: Optional[str] = None) -> RunConfig:
    """Parse and validate the config file at ``path`` (or the fallback)."""
    return parse_config(read_raw_config(path))


def _parse_channel(section, context: str) -> ChannelSpec:
    kind = mapping(section, context).get("kind")
    if kind not in ("awgn", "multipath"):
        raise ConfigError(f"{context}.kind must be 'awgn' or 'multipath', got {kind!r}")
    values = _read(section, _AWGN if kind == "awgn" else _MULTIPATH, context)
    del values["kind"]
    try:
        if kind == "awgn":
            return Awgn(**values)
        return Multipath(**dict(values, taps=tuple(Tap(*tap) for tap in values["taps"])))
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _regression_from_name(name: str, readout: dict) -> RegressionMethod:
    try:
        if name == "ridge":
            return Ridge(lam=readout["ridge_lambda"])
        if name == "linear":
            return Linear()
        if name == "lasso":
            return Lasso(
                lam=readout["lasso_lambda"],
                max_iter=readout["lasso_max_iter"],
                tol=readout["lasso_tol"],
            )
    except ValueError as exc:
        raise ConfigError(f"invalid readout section: {exc}") from exc
    raise ConfigError(f"readout.method must be ridge, linear or lasso, got {name!r}")


def parse_config(raw: dict) -> RunConfig:
    top = _read(raw, _TOP, "config")

    try:
        waveform = WaveformSpec(**_read(top["waveform"], _WAVEFORM, "waveform"), seed=0)
    except ValueError as exc:
        raise ConfigError(f"invalid waveform section: {exc}") from exc

    if not top["channels"]:
        raise ConfigError("config.channels must be a non-empty mapping of presets")
    channels = {
        str(name): _parse_channel(section, f"channels.{name}")
        for name, section in top["channels"].items()
    }

    reservoir = _read(top["reservoir"], _RESERVOIR, "reservoir")
    reservoir["target_spectral_radius"] = reservoir.pop("spectral_radius")
    try:
        reservoir_config = ReservoirConfig(**reservoir, seed=top["master_seed"])
    except ValueError as exc:
        raise ConfigError(f"invalid reservoir section: {exc}") from exc

    readout = _read(top["readout"], _READOUT, "readout")
    return RunConfig(
        master_seed=top["master_seed"],
        threads=top["threads"],
        waveform=waveform,
        channels=channels,
        reservoir=reservoir_config,
        readout=_regression_from_name(readout["method"], readout),
        readout_section=readout,
        train_fraction=_read(top["split"], _SPLIT, "split")["train_fraction"],
        sweep=SweepSettings(**_read(top["sweep"], _SWEEP, "sweep")),
    )
