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
from .errors import ConfigError, DegenerateMetricError, NonFiniteError, ShapeError
from .readout import ReadoutModel, RegressionMethod
from .reservoir import Reservoir, ReservoirConfig, build, predictions, with_seed

# Relative floor under which an actual sample is excluded from MAPE.
MAPE_EPSILON_REL = 1e-9

SWEEP_CSV_HEADER = "axis,value,dataset,repeat,mape_percent,mse,train_seconds,seed"


@dataclass(frozen=True)
class MetricReport:
    mape_percent: float
    mse: float
    samples_used: int
    samples_excluded: int

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


# The ReservoirConfig field each axis replaces; the regression axis
# replaces the readout method instead. A sweep's values for an axis are
# the config list ``sweep.<axis>_values``.
_AXIS_FIELDS = {
    SweepAxis.INIT: "init",
    SweepAxis.RADIUS: "target_spectral_radius",
    SweepAxis.SIZE: "reservoir_size",
    SweepAxis.ACTIVATION: "activation",
}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: vary ``axis`` over ``values`` on every named dataset.

    ``base_config.seed`` is the master seed all cell seeds derive from.
    Datasets are (name, dataset) pairs; each is split into train/test once
    so every axis value sees the same split. Each value is applied to
    ``base_config`` here, so its owner refuses a bad one before any cell,
    as a ``ConfigError`` whose ``item`` is the value's position.
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
            raise ConfigError("sweep needs at least one axis value")
        if len(self.datasets) == 0:
            raise ConfigError("sweep needs at least one dataset")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        for item, value in enumerate(self.values):
            try:
                _apply_axis(self.axis, value, self.base_config, self.method)
            except ConfigError as exc:
                raise ConfigError(str(exc), item) from exc


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: str
    dataset: str
    dataset_index: int  # position in ``SweepSpec.datasets``; not a CSV column
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
        """Mean/std MAPE and mean train time per (value, dataset), with
        datasets told apart by position: one name given twice is two."""
        groups: dict[tuple[str, int], list[SweepRow]] = {}
        for row in self.rows:
            groups.setdefault((row.value, row.dataset_index), []).append(row)
        summary = []
        for (value, _), rows in groups.items():
            cells = [r for r in rows if r.error is None]
            mapes = np.array([c.mape_percent for c in cells])
            summary.append(
                {
                    "value": value,
                    "dataset": rows[0].dataset,
                    "mean_mape_percent": float(mapes.mean()) if cells else float("nan"),
                    "std_mape_percent": float(mapes.std()) if cells else float("nan"),
                    "mean_train_seconds": (
                        float(np.mean([c.train_seconds for c in cells])) if cells else float("nan")
                    ),
                    "errors": len(rows) - len(cells),
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
        mape_percent=value, mse=mse, samples_used=used, samples_excluded=int(a.size - used)
    )


def evaluate(r: Reservoir, model: ReadoutModel, dataset: SequenceDataset) -> MetricReport:
    """Aggregate MAPE/MSE of the model over every sequence of a dataset.

    The predictions come from ``reservoir.predictions``, which steps every
    sequence from the zero state, checks the readout's shape and, when the
    reservoir has feedback, feeds the model's own previous prediction back
    (no teacher forcing at evaluation time). It steps a few long
    open-loop sequences in time segments by the split rule of
    ``reservoir._Segments``, the training fold's, and after a failed seam
    it reads out the same call's unsplit blocks over every prediction.
    All predictions are scored together by ``mape``.
    """
    readout_mod.check_dataset(r.config, dataset)
    targets = dataset.targets[:, :, r.config.washout :]
    return mape(targets, predictions(r, dataset.inputs, model.w_out))


def split_indices(
    num_sequences: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded train/test partition of sequence indices."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if num_sequences < 2:
        raise ShapeError(f"need at least 2 sequences to split, got {num_sequences}")
    rng = seeding.substream(seed, seeding.STREAM_SPLIT)
    order = rng.permutation(num_sequences)
    n_train = int(round(num_sequences * train_fraction))
    n_train = min(max(n_train, 1), num_sequences - 1)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def _apply_axis(
    axis: SweepAxis, value, config: ReservoirConfig, method: RegressionMethod
) -> tuple[ReservoirConfig, RegressionMethod]:
    if axis is SweepAxis.REGRESSION:
        return config, value
    return replace(config, **{_AXIS_FIELDS[axis]: value}), method


def _value_label(value) -> str:
    """The name of an enum member or regression method; ``str`` of a
    number, which is ``repr`` for a float, so no two values share one."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, RegressionMethod):
        return value.name
    return str(value)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (axis value, dataset, repeat) cell of a sweep.

    Each cell builds a fresh reservoir from a seed derived from
    ``base_config.seed`` and the cell coordinates, trains on the
    dataset's train split, and evaluates on its test split. Failures are
    captured as error rows; the sweep keeps going.
    """
    master = spec.base_config.seed
    # by dataset index: the same name given twice is two datasets
    splits = []
    for d_idx, (_, dataset) in enumerate(spec.datasets):
        train_idx, test_idx = split_indices(
            dataset.num_sequences,
            spec.train_fraction,
            seeding.child_seed(master, seeding.STREAM_SWEEP, d_idx),
        )
        splits.append((dataset.subset(train_idx), dataset.subset(test_idx)))

    rows = []
    for v_idx, value in enumerate(spec.values):
        label = _value_label(value)
        for d_idx, (name, _) in enumerate(spec.datasets):
            train_ds, test_ds = splits[d_idx]
            for rep in range(spec.repeats):
                cell_seed = seeding.child_seed(
                    master, seeding.STREAM_SWEEP, v_idx, d_idx, rep
                )
                config, method = _apply_axis(
                    spec.axis, value, with_seed(spec.base_config, cell_seed), spec.method
                )
                try:
                    started = time.perf_counter()
                    r = build(config)
                    model = readout_mod.fit(r, train_ds, method)
                    train_seconds = time.perf_counter() - started
                    report = evaluate(r, model, test_ds)
                    metrics, error = (report.mape_percent, report.mse, train_seconds), None
                except Exception as exc:  # error rows keep the sweep alive
                    metrics, error = (float("nan"),) * 3, f"{type(exc).__name__}: {exc}"
                rows.append(
                    SweepRow(spec.axis.value, label, name, d_idx, rep, *metrics, cell_seed, error)
                )
    return SweepResult(rows=tuple(rows))


def write_csv(path, header: str, rows) -> None:
    """Write ``rows`` under the comma-separated ``header``; floats are
    written as ``repr`` writes them, so they read back exactly."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header.split(","))
        writer.writerows(rows)


def write_sweep_csv(result: SweepResult, path) -> None:
    """Serialize sweep rows to CSV under the fixed schema."""
    columns = SWEEP_CSV_HEADER.split(",")
    write_csv(path, SWEEP_CSV_HEADER, ([getattr(row, c) for c in columns] for row in result.rows))
