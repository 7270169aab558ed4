"""Versioned binary containers for datasets and trained models.

Both formats share one layout (byte-exact details in docs/FORMATS.md):

    magic (4 bytes) | version u32 LE | header_len u64 LE |
    header (canonical JSON, UTF-8) | payload (raw float64 LE)

Matrix payloads are row-major; dataset payloads are sequence-major with
the input block before the target block inside each sequence. Headers
carry the provenance (specs, seeds, fingerprints) needed to regenerate
the contents. Writes go to a temporary file in the destination directory
followed by an atomic rename, so readers never observe partial files.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .channelsim import SequenceDataset
from .config import (
    MODEL_CONFIG_KEYS,
    _read,
    integer,
    mapping,
    method_block,
    number,
    regression_method,
)
from .errors import FormatError, IntegrityError, ShapeError, VersionError
from .readout import ReadoutModel, RegressionMethod
from .reservoir import Reservoir, ReservoirConfig

MODEL_MAGIC = b"ESN1"
DATASET_MAGIC = b"ESD1"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelArtifact:
    """Everything needed to reload and run a trained model."""

    config: ReservoirConfig
    w_in: np.ndarray
    w: np.ndarray
    w_fb: np.ndarray
    achieved_radius: float
    w_out: np.ndarray
    method: RegressionMethod
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("seed", "dataset_fingerprint"):
            if key not in self.provenance:
                raise ValueError(f"model provenance must include {key!r}")

    def to_reservoir(self) -> Reservoir:
        return Reservoir(
            config=self.config,
            w_in=self.w_in.copy(),
            w=self.w.copy(),
            w_fb=self.w_fb.copy(),
            achieved_radius=self.achieved_radius,
        )

    def to_readout(self) -> ReadoutModel:
        return ReadoutModel(w_out=self.w_out.copy(), method=self.method)


def make_artifact(r: Reservoir, model: ReadoutModel, provenance: dict) -> ModelArtifact:
    if model.w_out.shape != (r.config.output_dim, r.config.reservoir_size):
        raise ShapeError(
            f"readout shape {model.w_out.shape} does not match reservoir config "
            f"({r.config.output_dim}, {r.config.reservoir_size})"
        )
    prov = dict(provenance)
    prov.setdefault("tool_version", __version__)
    return ModelArtifact(
        config=r.config,
        w_in=r.w_in,
        w=r.w,
        w_fb=r.w_fb,
        achieved_radius=r.achieved_radius,
        w_out=model.w_out,
        method=model.method,
        provenance=prov,
    )


def _canonical_json(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _atomic_write(path, chunks) -> None:
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode="wb", dir=path.parent, prefix=f".{path.name}.", delete=False
    )
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def _read_container(path, magic: bytes) -> tuple[dict, memoryview]:
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise IntegrityError(f"file {path} has {len(data)} bytes, smaller than any header")
    if data[:4] != magic:
        raise FormatError(
            f"bad magic in {path}: expected {magic.decode('ascii')!r}, got {data[:4]!r}"
        )
    version = int.from_bytes(data[4:8], "little")
    if version != FORMAT_VERSION:
        raise VersionError(
            f"file {path} has format version {version}; this build supports {FORMAT_VERSION}"
        )
    header_len = int.from_bytes(data[8:16], "little")
    if 16 + header_len > len(data):
        raise IntegrityError(
            f"header of {path} claims {header_len} bytes but only "
            f"{len(data) - 16} follow the fixed fields"
        )
    try:
        header = json.loads(data[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable header in {path}: {exc}") from exc
    return header, memoryview(data)[16 + header_len :]


def _expect_payload(path, payload: memoryview, expected: int) -> None:
    if len(payload) != expected:
        raise IntegrityError(
            f"payload of {path} has {len(payload)} bytes, expected {expected}"
        )


def _floats_to_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_model(artifact: ModelArtifact, path) -> None:
    """Write a model container; see docs/FORMATS.md for the byte layout."""
    config = artifact.config
    n, k, l = config.reservoir_size, config.input_dim, config.output_dim
    header = {
        "config": {
            key: value.value if isinstance(value, Enum) else value
            for key, value in asdict(config).items()
        },
        "achieved_radius": artifact.achieved_radius,
        "method": method_block(artifact.method),
        "matrices": ["w_in", "w", "w_fb", "w_out"],
        "shapes": {
            "w_in": [n, k],
            "w": [n, n],
            "w_fb": [n, l],
            "w_out": [l, n],
        },
        "provenance": artifact.provenance,
    }
    header_bytes = _canonical_json(header)
    _atomic_write(
        path,
        [
            MODEL_MAGIC,
            FORMAT_VERSION.to_bytes(4, "little"),
            len(header_bytes).to_bytes(8, "little"),
            header_bytes,
            _floats_to_bytes(artifact.w_in),
            _floats_to_bytes(artifact.w),
            _floats_to_bytes(artifact.w_fb),
            _floats_to_bytes(artifact.w_out),
        ],
    )


def load_model(path) -> ModelArtifact:
    header, payload = _read_container(path, MODEL_MAGIC)
    try:
        cfg = mapping(header["config"], "config")
        config = ReservoirConfig(**_read(cfg, MODEL_CONFIG_KEYS, "config"))
        shapes = {name: tuple(dims) for name, dims in header["shapes"].items()}
        settings = dict(mapping(header["method"], "method"))
        method = regression_method(settings.pop("kind", None), settings, "method")
        achieved = number(header["achieved_radius"], "achieved_radius")
        provenance = mapping(header["provenance"], "provenance")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model header of {path} is malformed: {exc}") from exc

    n, k, l = config.reservoir_size, config.input_dim, config.output_dim
    expected_shapes = {"w_in": (n, k), "w": (n, n), "w_fb": (n, l), "w_out": (l, n)}
    if shapes != expected_shapes:
        raise ShapeError(
            f"matrix shapes in {path} are inconsistent with the stored config: "
            f"{shapes} vs {expected_shapes}"
        )
    counts = [n * k, n * n, n * l, l * n]
    _expect_payload(path, payload, 8 * sum(counts))
    arrays = []
    offset = 0
    for count, shape in zip(counts, expected_shapes.values()):
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        arrays.append(arr.astype(np.float64).reshape(shape))
        offset += 8 * count
    return ModelArtifact(
        config=config,
        w_in=arrays[0],
        w=arrays[1],
        w_fb=arrays[2],
        achieved_radius=achieved,
        w_out=arrays[3],
        method=method,
        provenance=provenance,
    )


def save_dataset(ds: SequenceDataset, path) -> None:
    """Write a dataset container; see docs/FORMATS.md for the byte layout."""
    header = {
        "num_sequences": ds.num_sequences,
        "seq_len": ds.seq_len,
        "input_dim": ds.input_dim,
        "output_dim": ds.output_dim,
        "meta": ds.meta,
    }
    header_bytes = _canonical_json(header)
    chunks = [
        DATASET_MAGIC,
        FORMAT_VERSION.to_bytes(4, "little"),
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
    ]
    for i in range(ds.num_sequences):
        chunks.append(_floats_to_bytes(ds.inputs[i]))
        chunks.append(_floats_to_bytes(ds.targets[i]))
    _atomic_write(path, chunks)


def load_dataset(path) -> SequenceDataset:
    header, payload = _read_container(path, DATASET_MAGIC)
    try:
        num = integer(header["num_sequences"], "num_sequences")
        t = integer(header["seq_len"], "seq_len")
        k = integer(header["input_dim"], "input_dim")
        l = integer(header["output_dim"], "output_dim")
        meta = mapping(header["meta"], "meta")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"dataset header of {path} is malformed: {exc}") from exc
    if k != 2 or l != 2:
        raise ShapeError(
            f"dataset {path} declares K={k}, L={l}; this format carries I/Q pairs (K=L=2)"
        )
    if num < 0 or t < 1:
        raise FormatError(f"dataset header of {path} has invalid counts ({num}, {t})")
    _expect_payload(path, payload, num * t * (k + l) * 8)
    blocks = np.frombuffer(payload, dtype="<f8").reshape(num, k + l, t)
    return SequenceDataset(
        inputs=blocks[:, :k].astype(np.float64),
        targets=blocks[:, k:].astype(np.float64),
        meta=meta,
    )


def file_fingerprint(path) -> str:
    """SHA-256 of a file's bytes, as lowercase hex."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
