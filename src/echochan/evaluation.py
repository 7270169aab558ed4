"""Metrics and the hyperparameter sweep harness.

The primary accuracy metric is the mean absolute percentage error over
all predicted samples; samples whose actual value is (near) zero are
excluded from the percentage average and counted instead of being
clamped, so a report always says how much data it ignored. Mean squared
error is reported alongside, computed over every sample.

``run_sweep`` re-runs build/fit/evaluate over one hyperparameter axis
(initialization, spectral radius, reservoir size, activation, or
regression method), any number of datasets, and repeated reservoir
seeds, and serializes the cells to a fixed CSV schema.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import readout as readout_mod
from . import seeding
from .channelsim import SequenceDataset
from .errors import DegenerateMetricError, NonFiniteError, ShapeError
from .readout import ReadoutModel, RegressionMethod
from .reservoir import Reservoir, ReservoirConfig, build, harvest, with_seed

# Relative floor under which an actual sample is excluded from MAPE.
MAPE_EPSILON_REL = 1e-9

SWEEP_CSV_HEADER = "axis,value,dataset,repeat,mape_percent,mse,train_seconds,seed"


@dataclass(frozen=True)
class MetricReport:
    mape_percent: float
    mse: float
    samples_used: int
    samples_excluded: int
    wall_time_seconds: float = 0.0

    def __post_init__(self):
        if self.mape_percent < 0.0:
            raise ValueError("mape_percent must be >= 0")
        if self.samples_used < 0 or self.samples_excluded < 0:
            raise ValueError("sample counts must be >= 0")


class SweepAxis(Enum):
    INIT = "init"
    RADIUS = "radius"
    SIZE = "size"
    ACTIVATION = "activation"
    REGRESSION = "regression"

    @classmethod
    def from_name(cls, name: str) -> "SweepAxis":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown sweep axis {name!r}; expected one of: {options}") from None


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: vary ``axis`` over ``values`` on every named dataset.

    ``base_config.seed`` is the master seed all cell seeds derive from.
    Datasets are (name, dataset) pairs; each is split 80/20 into
    train/test once per dataset so every axis value sees the same split.
    """

    axis: SweepAxis
    values: tuple
    base_config: ReservoirConfig
    method: RegressionMethod
    datasets: tuple[tuple[str, SequenceDataset], ...]
    repeats: int = 5
    train_fraction: float = 0.8

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one axis value")
        if len(self.datasets) == 0:
            raise ValueError("sweep needs at least one dataset")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: str
    dataset: str
    repeat: int
    mape_percent: float
    mse: float
    train_seconds: float
    seed: int
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def summarize(self) -> list[dict]:
        """Mean/std MAPE and mean train time per (value, dataset)."""
        keys: list[tuple[str, str]] = []
        for row in self.rows:
            if (row.value, row.dataset) not in keys:
                keys.append((row.value, row.dataset))
        summary = []
        for value, dataset in keys:
            cells = [
                r
                for r in self.rows
                if r.value == value and r.dataset == dataset and r.error is None
            ]
            mapes = np.array([c.mape_percent for c in cells])
            summary.append(
                {
                    "value": value,
                    "dataset": dataset,
                    "mean_mape_percent": float(mapes.mean()) if cells else float("nan"),
                    "std_mape_percent": float(mapes.std()) if cells else float("nan"),
                    "mean_train_seconds": (
                        float(np.mean([c.train_seconds for c in cells])) if cells else float("nan")
                    ),
                    "errors": sum(
                        1
                        for r in self.rows
                        if r.value == value and r.dataset == dataset and r.error is not None
                    ),
                }
            )
        return summary


def mape(actual, predicted, epsilon: Optional[float] = None) -> MetricReport:
    """Mean absolute percentage error between two equally shaped arrays.

    ``mape = 100 * mean(|(actual - predicted) / actual|)`` over samples
    with ``|actual| >= epsilon``; everything else is excluded and
    counted. ``epsilon`` defaults to a relative floor of
    ``MAPE_EPSILON_REL * max|actual|``. MSE covers all samples. Raises
    ``DegenerateMetricError`` when no sample survives exclusion.
    """
    started = time.perf_counter()
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(predicted, dtype=np.float64)
    if a.shape != f.shape:
        raise ShapeError(f"actual shape {a.shape} != predicted shape {f.shape}")
    if a.size == 0:
        raise DegenerateMetricError("cannot compute a metric over zero samples")
    if not np.isfinite(f).all():
        raise NonFiniteError("predictions contain non-finite values")
    if epsilon is None:
        scale = float(np.abs(a).max())
        if scale == 0.0:
            raise DegenerateMetricError("actual values are identically zero")
        epsilon = MAPE_EPSILON_REL * scale
    elif not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    mask = np.abs(a) >= epsilon
    used = int(mask.sum())
    if used == 0:
        raise DegenerateMetricError(
            f"all {a.size} samples fell under the exclusion floor {epsilon}"
        )
    err = a - f
    value = 100.0 * float(np.mean(np.abs(err[mask] / a[mask])))
    mse = float(np.mean(err**2))
    return MetricReport(
        mape_percent=value,
        mse=mse,
        samples_used=used,
        samples_excluded=int(a.size - used),
        wall_time_seconds=time.perf_counter() - started,
    )


def evaluate(r: Reservoir, model: ReadoutModel, dataset: SequenceDataset) -> MetricReport:
    """Aggregate MAPE/MSE of the model over every sequence of a dataset.

    Harvesting starts from the zero state per sequence. When the
    reservoir has feedback enabled, the model's own previous prediction
    is fed back (no teacher forcing at evaluation time). All predictions
    are scored together by ``mape``.
    """
    started = time.perf_counter()
    config = r.config
    if dataset.input_dim != config.input_dim or dataset.output_dim != config.output_dim:
        raise ShapeError(
            f"dataset dims (K={dataset.input_dim}, L={dataset.output_dim}) do not match "
            f"reservoir (K={config.input_dim}, L={config.output_dim})"
        )
    if model.w_out.shape != (config.output_dim, config.reservoir_size):
        raise ShapeError(
            f"readout shape {model.w_out.shape} does not match reservoir "
            f"({config.output_dim}, {config.reservoir_size})"
        )
    if dataset.num_sequences == 0:
        raise ShapeError("dataset contains no sequences")

    targets = dataset.targets[:, :, config.washout :]
    predictions = np.empty(targets.shape)
    for i in range(dataset.num_sequences):
        traj = harvest(r, dataset.inputs[i], w_out=model.w_out)
        predictions[i] = readout_mod.predict(model, traj)
    report = mape(targets, predictions)
    return replace(report, wall_time_seconds=time.perf_counter() - started)


def split_indices(
    num_sequences: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded train/test partition of sequence indices."""
    if num_sequences < 2:
        raise ValueError(f"need at least 2 sequences to split, got {num_sequences}")
    rng = seeding.substream(seed, seeding.STREAM_SPLIT)
    order = rng.permutation(num_sequences)
    n_train = int(round(num_sequences * train_fraction))
    n_train = min(max(n_train, 1), num_sequences - 1)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def _apply_axis(
    axis: SweepAxis, value, config: ReservoirConfig, method: RegressionMethod
) -> tuple[ReservoirConfig, RegressionMethod]:
    if axis is SweepAxis.INIT:
        return replace(config, init=value), method
    if axis is SweepAxis.RADIUS:
        return replace(config, target_spectral_radius=float(value)), method
    if axis is SweepAxis.SIZE:
        return replace(config, reservoir_size=int(value)), method
    if axis is SweepAxis.ACTIVATION:
        return replace(config, activation=value), method
    return config, value


def _value_label(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return format(value, "g")
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__.lower()
    return str(value)


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Run every (axis value, dataset, repeat) cell of a sweep.

    Each cell builds a fresh reservoir from a seed derived from
    ``base_config.seed`` and the cell coordinates, trains on the
    dataset's train split, and evaluates on its test split. Failures are
    captured as error rows; the sweep keeps going.
    """
    master = spec.base_config.seed
    splits = {}
    for d_idx, (name, dataset) in enumerate(spec.datasets):
        train_idx, test_idx = split_indices(
            dataset.num_sequences,
            spec.train_fraction,
            seeding.child_seed(master, seeding.STREAM_SWEEP, d_idx),
        )
        splits[name] = (dataset.subset(train_idx), dataset.subset(test_idx))

    rows = []
    for v_idx, value in enumerate(spec.values):
        for d_idx, (name, _) in enumerate(spec.datasets):
            train_ds, test_ds = splits[name]
            for rep in range(spec.repeats):
                cell_seed = seeding.child_seed(
                    master, seeding.STREAM_SWEEP, v_idx, d_idx, rep
                )
                label = _value_label(value)
                try:
                    config, method = _apply_axis(
                        spec.axis, value, with_seed(spec.base_config, cell_seed), spec.method
                    )
                    started = time.perf_counter()
                    r = build(config)
                    model = readout_mod.fit(r, train_ds, method, threads=threads)
                    train_seconds = time.perf_counter() - started
                    report = evaluate(r, model, test_ds)
                    rows.append(
                        SweepRow(
                            axis=spec.axis.value,
                            value=label,
                            dataset=name,
                            repeat=rep,
                            mape_percent=report.mape_percent,
                            mse=report.mse,
                            train_seconds=train_seconds,
                            seed=cell_seed,
                        )
                    )
                except Exception as exc:  # error rows keep the sweep alive
                    rows.append(
                        SweepRow(
                            axis=spec.axis.value,
                            value=label,
                            dataset=name,
                            repeat=rep,
                            mape_percent=float("nan"),
                            mse=float("nan"),
                            train_seconds=float("nan"),
                            seed=cell_seed,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
    return SweepResult(rows=tuple(rows))


def write_sweep_csv(result: SweepResult, path) -> None:
    """Serialize sweep rows to CSV under the fixed schema."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_HEADER.split(","))
        for row in result.rows:
            writer.writerow(
                [
                    row.axis,
                    row.value,
                    row.dataset,
                    row.repeat,
                    repr(row.mape_percent),
                    repr(row.mse),
                    repr(row.train_seconds),
                    row.seed,
                ]
            )
