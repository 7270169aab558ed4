"""Versioned binary containers for datasets and trained models.

Both formats share one layout (byte-exact details in docs/FORMATS.md):

    magic (4 bytes) | version u32 LE | header_len u64 LE |
    header (canonical JSON, UTF-8) | payload (raw float64 LE)

Matrix payloads are row-major; dataset payloads are sequence-major with
the input block before the target block inside each sequence. Headers
carry the provenance (specs, seeds, fingerprints) needed to regenerate
the contents. Writes go to a temporary file in the destination directory,
created with the mode the umask gives any new file, followed by an atomic
rename, so readers never observe partial files.

This module is a codec only. It writes any array in row bands, and reads
the payload straight into arrays in the layout their owners
(``Reservoir``, ``ModelArtifact``, ``SequenceDataset``) keep, marked
read-only so the owner keeps them without a copy: a row-major array is
read in place, a column-major one (``w``) through one band of rows. A
load holds the payload once, plus one band.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__
from .channelsim import IQ, SequenceDataset
from .config import (
    MODEL_CONFIG_KEYS,
    _read,
    integer,
    mapping,
    method_block,
    number,
    regression_method,
)
from .errors import FormatError, IntegrityError, NonFiniteError, ShapeError, VersionError
from .numerics import BAND, all_finite
from .readout import ReadoutModel, RegressionMethod
from .reservoir import Reservoir, ReservoirConfig, matrix_shapes

MODEL_MAGIC = b"ESN1"
DATASET_MAGIC = b"ESD1"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelArtifact(Reservoir):
    """A built reservoir and its trained readout: everything needed to
    reload and run a trained model. ``w_out`` is kept row-major, by the
    same rule as the reservoir's own matrices."""

    ORDERS: ClassVar[dict[str, str]] = {**Reservoir.ORDERS, "w_out": "C"}

    w_out: np.ndarray
    method: RegressionMethod
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        for key in ("seed", "dataset_fingerprint"):
            if key not in self.provenance:
                raise ValueError(f"model provenance must include {key!r}")

    def to_readout(self) -> ReadoutModel:
        return ReadoutModel(w_out=self.w_out, method=self.method)


def make_artifact(r: Reservoir, model: ReadoutModel, provenance: dict) -> ModelArtifact:
    return ModelArtifact(
        **{f.name: getattr(r, f.name) for f in fields(Reservoir)},
        w_out=model.w_out,
        method=model.method,
        provenance={"tool_version": __version__, **provenance},
    )


def _atomic_write(path, chunks) -> None:
    path = Path(path)
    # a new file's mode under the umask, as for every other file written
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    handle = open(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


@contextmanager
def _open_container(path, magic: bytes):
    """Open a container and check its fixed fields and header in the order
    docs/FORMATS.md gives. Yields the header, the payload's size in
    bytes, which the caller checks (``_expect_payload``) before it
    allocates anything, and ``fill``, which reads the payload into the
    caller's arrays; the mirror of ``_write_container``."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < 16:
            raise IntegrityError(f"file {path} has {size} bytes, smaller than any header")
        fixed = handle.read(16)
        if fixed[:4] != magic:
            raise FormatError(
                f"bad magic in {path}: expected {magic.decode('ascii')!r}, got {fixed[:4]!r}"
            )
        version = int.from_bytes(fixed[4:8], "little")
        if version != FORMAT_VERSION:
            raise VersionError(
                f"file {path} has format version {version}; this build supports {FORMAT_VERSION}"
            )
        header_len = int.from_bytes(fixed[8:16], "little")
        if 16 + header_len > size:
            raise IntegrityError(
                f"header of {path} claims {header_len} bytes but only "
                f"{size - 16} follow the fixed fields"
            )
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable header in {path}: {exc}") from exc

        def fill(blocks, finite: bool = True) -> None:
            """Read the payload into ``blocks``, ``(what, array)`` pairs in
            payload order (``what`` names the values in an error), each a
            writeable ``<f8`` array filled ``BAND`` rows at a time; a
            column-major array takes its rows through one band buffer. A
            file that ends early is an ``IntegrityError``, and so is a
            non-finite band unless ``finite`` is off (for an owner that
            checks its own values)."""
            for what, array in blocks:
                buffer = None
                for i in range(0, len(array), BAND):
                    rows = array[i : i + BAND]
                    if rows.flags.c_contiguous:
                        band = rows
                    else:
                        if buffer is None:
                            buffer = np.empty((min(BAND, len(array)), *array.shape[1:]), "<f8")
                        band = buffer[: len(rows)]
                    if handle.readinto(band) != band.nbytes:
                        raise IntegrityError(f"file {path} ended while reading its {what}")
                    if finite:
                        _finite(path, what, band)
                    if band is not rows:
                        rows[...] = band

        yield header, size - 16 - header_len, fill


def _expect_payload(path, payload: int, expected: int) -> None:
    if payload != expected:
        raise IntegrityError(f"payload of {path} has {payload} bytes, expected {expected}")


def _finite(path, what: str, band):
    """``band`` of a payload, written or read, unless a value is not finite."""
    if not all_finite(band):
        raise IntegrityError(f"{what} of {path} contains non-finite values")
    return band


def _write_container(path, magic: bytes, header: dict, blocks) -> None:
    """Write ``magic``, the version, the canonical JSON header and the rows
    of each ``(what, array)`` pair of ``blocks`` as float64 LE, ``BAND`` at
    a time, each band checked by ``_finite``; the mirror of ``_open_container``."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = [magic, FORMAT_VERSION.to_bytes(4, "little"), len(head).to_bytes(8, "little"), head]
    bands = (
        _finite(path, what, np.ascontiguousarray(array[i : i + BAND], dtype="<f8"))
        for what, array in blocks
        for i in range(0, len(array), BAND)
    )
    _atomic_write(path, chain(prefix, bands))


def save_model(artifact: ModelArtifact, path) -> None:
    """Write a model container; see docs/FORMATS.md for the byte layout."""
    config = artifact.config
    shapes = matrix_shapes(config)
    header = {
        "config": {
            key: value.value if isinstance(value, Enum) else value
            for key, value in asdict(config).items()
        },
        "achieved_radius": artifact.achieved_radius,
        "method": method_block(artifact.method),
        "matrices": list(shapes),
        "shapes": shapes,
        "provenance": artifact.provenance,
    }
    blocks = ((f"matrix {name}", getattr(artifact, name)) for name in shapes)
    _write_container(path, MODEL_MAGIC, header, blocks)


def load_model(path) -> ModelArtifact:
    with _open_container(path, MODEL_MAGIC) as (header, payload, fill):
        try:
            cfg = mapping(header["config"], "config")
            config = ReservoirConfig(**_read(cfg, MODEL_CONFIG_KEYS, "config"))
            order = header["matrices"]
            shapes = {name: tuple(dims) for name, dims in header["shapes"].items()}
            settings = dict(mapping(header["method"], "method"))
            method = regression_method(settings.pop("kind", None), settings, "method")
            achieved = number(header["achieved_radius"], "achieved_radius")
            provenance = mapping(header["provenance"], "provenance")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"model header of {path} is malformed: {exc}") from exc

        expected_shapes = matrix_shapes(config)
        if order != list(expected_shapes):
            raise FormatError(
                f"payload order in {path} is {order}, expected {list(expected_shapes)}"
            )
        if shapes != expected_shapes:
            raise ShapeError(
                f"matrix shapes in {path} are inconsistent with the stored config: "
                f"{shapes} vs {expected_shapes}"
            )
        _expect_payload(path, payload, 8 * sum(rows * cols for rows, cols in expected_shapes.values()))
        # read in the layout the artifact keeps, so it keeps them without a copy
        matrices = {
            name: np.empty(shape, "<f8", order=ModelArtifact.ORDERS[name])
            for name, shape in expected_shapes.items()
        }
        fill([(f"matrix {name}", matrix) for name, matrix in matrices.items()])
    for matrix in matrices.values():
        matrix.flags.writeable = False
    try:
        return ModelArtifact(
            config=config, achieved_radius=achieved, method=method, provenance=provenance, **matrices
        )
    except ValueError as exc:  # the provenance check: the shapes were checked above
        raise FormatError(f"model header of {path} is malformed: {exc}") from exc


def _check_iq(path, k: int, l: int) -> None:
    if k != IQ or l != IQ:
        raise ShapeError(f"dataset {path} declares K={k}, L={l}; this format carries I/Q pairs (K=L={IQ})")


def save_dataset(ds: SequenceDataset, path) -> None:
    """Write a dataset container; see docs/FORMATS.md for the byte layout."""
    _check_iq(path, ds.input_dim, ds.output_dim)
    header = {
        "num_sequences": ds.num_sequences,
        "seq_len": ds.seq_len,
        "input_dim": ds.input_dim,
        "output_dim": ds.output_dim,
        "meta": ds.meta,
    }
    blocks = (("payload", block) for pair in zip(ds.inputs, ds.targets) for block in pair)
    _write_container(path, DATASET_MAGIC, header, blocks)


def load_dataset(path) -> SequenceDataset:
    with _open_container(path, DATASET_MAGIC) as (header, payload, fill):
        try:
            num = integer(header["num_sequences"], "num_sequences")
            t = integer(header["seq_len"], "seq_len")
            k = integer(header["input_dim"], "input_dim")
            l = integer(header["output_dim"], "output_dim")
            meta = mapping(header["meta"], "meta")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"dataset header of {path} is malformed: {exc}") from exc
        _check_iq(path, k, l)
        if num < 0 or t < 1:
            raise FormatError(f"dataset header of {path} has invalid counts ({num}, {t})")
        _expect_payload(path, payload, num * t * (k + l) * 8)
        # each sequence's input and target blocks go straight into the kept
        # arrays; the dataset checks each value once
        inputs, targets = np.empty((num, k, t), "<f8"), np.empty((num, l, t), "<f8")
        fill((("payload", block) for pair in zip(inputs, targets) for block in pair), finite=False)
    inputs.flags.writeable = targets.flags.writeable = False
    try:
        return SequenceDataset(inputs=inputs, targets=targets, meta=meta)
    except NonFiniteError as exc:
        raise IntegrityError(f"payload of {path} contains non-finite values") from exc


def file_fingerprint(path) -> str:
    """SHA-256 of a file's bytes, as lowercase hex."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
