"""Structured run configuration.

A run is driven by one YAML file (strictly parsed: unknown keys are
fatal) holding the waveform parameters, the named channel presets, the
reservoir and readout settings, the train/test split, and the sweep
value lists. ``default_config.yaml`` ships inside the package and is
used when neither ``--config`` nor ``$ECHOCHAN_CONFIG`` names a file.

Every key of every section is declared once below with its kind and
its default (or ``_REQUIRED``), which is read from the type that owns
it unless no type does. A kind is a function ``(value, name)`` that
returns the value if its type is right and otherwise raises
``ConfigError`` naming the key; nothing is cast. An integer is an
``int`` but not a ``bool``; a number is an ``int`` or ``float`` but not
a ``bool``, returned as a float. The store reads the ``.esn`` header's
``config`` and ``method`` blocks through these tables too.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from .channelsim import IQ, Awgn, ChannelSpec, Multipath, Tap, WaveformSpec
from .errors import ConfigError
from .evaluation import SweepAxis, SweepSpec
from .readout import METHODS, Lasso, RegressionMethod, Ridge
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


def one_of(enum):
    """A kind reading the member of ``enum`` whose value is the given
    name, stripped and lower-cased."""
    names = [member.value for member in enum]
    return _kind(
        f"one of {', '.join(names)}",
        lambda v: isinstance(v, str) and v.strip().lower() in names,
        lambda v: enum(v.strip().lower()),
    )


_method_name = _kind(
    f"one of {', '.join(METHODS)}", lambda v: isinstance(v, str) and v in METHODS
)


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


def _default(owner, name: str):
    """The default that dataclass ``owner`` states for its field ``name``."""
    return {f.name: f.default for f in fields(owner)}[name]


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
    "disturbance": (number, _default(Multipath, "disturbance")),
    "disturbance_period": (integer, _default(Multipath, "disturbance_period")),
}
_RESERVOIR = {
    "reservoir_size": (integer, _REQUIRED),
    "init": (one_of(InitMethod), _REQUIRED),
    "sparsity": (number, _default(ReservoirConfig, "sparsity")),
    "spectral_radius": (number, _REQUIRED),
    "activation": (one_of(Activation), _REQUIRED),
    "use_feedback": (boolean, _default(ReservoirConfig, "use_feedback")),
    "washout": (integer, _default(ReservoirConfig, "washout")),
    "allow_unstable": (boolean, _default(ReservoirConfig, "allow_unstable")),
}
_READOUT = {
    "method": (_method_name, _REQUIRED),
    "ridge_lambda": (number, _default(Ridge, "lam")),
    "lasso_lambda": (number, _default(Lasso, "lam")),
    "lasso_max_iter": (integer, _default(Lasso, "max_iter")),
    "lasso_tol": (number, _default(Lasso, "tol")),
}
_SPLIT = {
    "train_fraction": (number, _default(SweepSpec, "train_fraction")),
}
_SWEEP = {
    "repeats": (integer, _default(SweepSpec, "repeats")),
    "radius_values": (_list_of(number), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    "size_values": (_list_of(integer), [50, 100, 150, 300, 578, 600, 1200, 2400]),
    "init_values": (_list_of(one_of(InitMethod)), [m.value for m in InitMethod]),
    "activation_values": (_list_of(one_of(Activation)), [a.value for a in Activation]),
    "regression_values": (_list_of(_method_name), list(METHODS)),
}
# The .esn header's config block: every ReservoirConfig field, typed like
# the key it is read from. The radius is the reservoir section's
# spectral_radius, the seed is master_seed, and the I/Q widths, which no
# key sets, are integers.
_FIELD_KINDS = {
    **_RESERVOIR,
    "input_dim": (integer, IQ),
    "output_dim": (integer, IQ),
    "target_spectral_radius": _RESERVOIR["spectral_radius"],
    "seed": _TOP["master_seed"],
}
MODEL_CONFIG_KEYS = {f.name: (_FIELD_KINDS[f.name][0], _REQUIRED) for f in fields(ReservoirConfig)}


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


def _settings(method) -> dict[str, str]:
    """Setting -> field of a regression method (class or instance): each
    field as its readout key ``<name>_<setting>`` spells it, ``lam`` as
    ``lambda``."""
    return {("lambda" if f.name == "lam" else f.name): f.name for f in fields(method)}


def method_block(method: RegressionMethod) -> dict:
    """A method's name as ``kind``, and its settings."""
    return {"kind": method.name, **{s: getattr(method, f) for s, f in _settings(method).items()}}


def regression_method(name, settings: dict, context: str) -> RegressionMethod:
    """The method called ``name`` in ``readout.METHODS``, with each of its
    settings read from ``settings`` by the kind of the readout key
    ``<name>_<setting>``; a missing or unknown setting is an error."""
    method = METHODS[_method_name(name, f"{context}.kind")]
    kinds = {s: (_READOUT[f"{method.name}_{s}"][0], _REQUIRED) for s in _settings(method)}
    values = _read(settings, kinds, context)
    return method(**{f: values[s] for s, f in _settings(method).items()})


@dataclass(frozen=True)
class SweepSettings:
    repeats: int
    radius_values: tuple[float, ...]
    size_values: tuple[int, ...]
    init_values: tuple[InitMethod, ...]
    activation_values: tuple[Activation, ...]
    regression_values: tuple[RegressionMethod, ...]


@dataclass(frozen=True)
class RunConfig:
    master_seed: int
    threads: Optional[int]
    waveform: WaveformSpec
    channels: dict[str, ChannelSpec]
    reservoir: ReservoirConfig
    readout: RegressionMethod
    train_fraction: float
    sweep: SweepSettings

    def channel(self, name: str) -> ChannelSpec:
        if name not in self.channels:
            available = ", ".join(sorted(self.channels))
            raise ConfigError(f"unknown channel preset {name!r}; available presets: {available}")
        return self.channels[name]

    def sweep_spec(self, axis: SweepAxis, datasets) -> SweepSpec:
        """The sweep of ``axis`` over its list ``sweep.<axis>_values`` on
        ``datasets``. A value the axis's owner refuses is named by its key
        (and item), as a refused preset is."""
        key = f"{axis.value}_values"
        values = getattr(self.sweep, key)
        try:
            return SweepSpec(
                axis=axis,
                values=values,
                base_config=self.reservoir,
                method=self.readout,
                datasets=datasets,
                repeats=self.sweep.repeats,
                train_fraction=self.train_fraction,
            )
        except ConfigError as exc:
            if exc.item is None and values:  # not the list's fault: repeats, datasets
                raise
            where = "" if exc.item is None else f"[{exc.item}]"
            raise ConfigError(f"invalid sweep.{key}{where}: {exc}") from exc


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, also reading as floats the YAML 1.2 exponent forms
    that YAML 1.1 leaves strings: no decimal point or no exponent sign
    (``1e-3``, ``1E+4``, ``2.5e7``). Quoted scalars stay strings. It parses
    with libyaml's C parser when PyYAML was built with it (several times
    faster on the shipped config), else with the pure-Python one."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


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
        raw = yaml.load(resolved.read_text(), Loader=_Loader)
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
    try:  # name the preset; the owners name the value they refuse
        if kind == "awgn":
            return Awgn(**values)
        return Multipath(**dict(values, taps=tuple(Tap(*tap) for tap in values["taps"])))
    except ConfigError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def parse_config(raw: dict) -> RunConfig:
    top = _read(raw, _TOP, "config")

    waveform = WaveformSpec(**_read(top["waveform"], _WAVEFORM, "waveform"))

    if not top["channels"]:
        raise ConfigError("config.channels must be a non-empty mapping of presets")
    channels = {
        string(name, "channel preset name"): _parse_channel(section, f"channels.{name}")
        for name, section in top["channels"].items()
    }

    reservoir = _read(top["reservoir"], _RESERVOIR, "reservoir")
    reservoir["target_spectral_radius"] = reservoir.pop("spectral_radius")
    reservoir_config = ReservoirConfig(**reservoir, input_dim=IQ, output_dim=IQ, seed=top["master_seed"])

    readout = _read(top["readout"], _READOUT, "readout")

    def method(name):
        prefix = f"{name}_"
        settings = {k[len(prefix) :]: v for k, v in readout.items() if k.startswith(prefix)}
        return regression_method(name, settings, "readout")

    readout_method = method(readout["method"])
    train_fraction = _read(top["split"], _SPLIT, "split")["train_fraction"]
    sweep = _read(top["sweep"], _SWEEP, "sweep")
    sweep["regression_values"] = tuple(map(method, sweep["regression_values"]))
    return RunConfig(
        master_seed=top["master_seed"],
        threads=top["threads"],
        waveform=waveform,
        channels=channels,
        reservoir=reservoir_config,
        readout=readout_method,
        train_fraction=train_fraction,
        sweep=SweepSettings(**sweep),
    )
