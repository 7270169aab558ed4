"""Trainable output layer: closed-form ridge plus linear and lasso paths.

Training folds harvested states and targets into two accumulators,

    a = sum_i targets_i @ states_i.T        (L x N)
    b = sum_i states_i @ states_i.T         (N x N)

and solves ``w_out @ (b + lam*I) = a`` once at the end. The fold is
associative and commutative, so sequences can be accumulated in any
partition (and in parallel) without changing the result.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConvergenceError, DefinitenessError, RankError, ShapeError
from .numerics import as_matrix, solve_spd
from .reservoir import Reservoir, StateTrajectory, harvest

DEFAULT_RIDGE_LAMBDA = 1e-6


@dataclass(frozen=True)
class Ridge:
    """Tikhonov-regularized least squares with penalty ``lam``."""

    lam: float = DEFAULT_RIDGE_LAMBDA

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError(f"ridge lambda must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class Linear:
    """Unregularized least squares; requires full-rank state covariance."""


@dataclass(frozen=True)
class Lasso:
    """L1-penalized least squares solved by cyclic coordinate descent."""

    lam: float
    max_iter: int = 10_000
    tol: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0.0:
            raise ValueError(f"lasso lambda must be finite and > 0, got {self.lam}")
        if self.max_iter < 1:
            raise ValueError(f"lasso max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0.0:
            raise ValueError(f"lasso tol must be positive, got {self.tol}")


RegressionMethod = Union[Ridge, Linear, Lasso]


@dataclass(frozen=True)
class Accumulators:
    """Sufficient statistics of all folded (states, targets) pairs."""

    a: np.ndarray
    b: np.ndarray
    samples_seen: int

    def __post_init__(self):
        if self.a.ndim != 2 or self.b.ndim != 2:
            raise ShapeError("accumulators must be 2-D")
        if self.b.shape[0] != self.b.shape[1] or self.a.shape[1] != self.b.shape[0]:
            raise ShapeError(
                f"accumulator shapes disagree: a {self.a.shape}, b {self.b.shape}"
            )
        if self.samples_seen < 0:
            raise ValueError("samples_seen must be >= 0")


@dataclass(frozen=True)
class ReadoutModel:
    """Trained output map; predictions are ``w_out @ state`` (identity
    output activation, which is what the closed-form solve optimizes)."""

    w_out: np.ndarray
    method: RegressionMethod

    def __post_init__(self):
        object.__setattr__(self, "w_out", as_matrix(self.w_out, "w_out"))
        self.w_out.flags.writeable = False


def empty_accumulators(reservoir_size: int, output_dim: int) -> Accumulators:
    if reservoir_size < 1 or output_dim < 1:
        raise ShapeError(
            f"dimensions must be >= 1, got ({reservoir_size}, {output_dim})"
        )
    return Accumulators(
        a=np.zeros((output_dim, reservoir_size)),
        b=np.zeros((reservoir_size, reservoir_size)),
        samples_seen=0,
    )


def accumulate(acc: Accumulators, states: StateTrajectory, targets) -> Accumulators:
    """Fold one harvested trajectory and its targets into ``acc``."""
    x = states.states
    y = as_matrix(targets, "targets")
    n, l = acc.b.shape[0], acc.a.shape[0]
    if x.shape[0] != n:
        raise ShapeError(f"states have size {x.shape[0]}, accumulators expect {n}")
    if y.shape[0] != l:
        raise ShapeError(f"targets have {y.shape[0]} rows, accumulators expect {l}")
    if y.shape[1] != x.shape[1]:
        raise ShapeError(
            f"targets have {y.shape[1]} columns but states have {x.shape[1]}"
        )
    return Accumulators(
        a=acc.a + y @ x.T,
        b=acc.b + x @ x.T,
        samples_seen=acc.samples_seen + x.shape[1],
    )


def merge(first: Accumulators, second: Accumulators) -> Accumulators:
    """Combine two independently computed accumulators."""
    if first.a.shape != second.a.shape or first.b.shape != second.b.shape:
        raise ShapeError(
            f"cannot merge accumulators of shapes a {first.a.shape}/{second.a.shape}, "
            f"b {first.b.shape}/{second.b.shape}"
        )
    return Accumulators(
        a=first.a + second.a,
        b=first.b + second.b,
        samples_seen=first.samples_seen + second.samples_seen,
    )


def solve(acc: Accumulators, method: RegressionMethod) -> ReadoutModel:
    """Compute w_out from accumulators under the chosen regression."""
    n = acc.b.shape[0]
    if isinstance(method, Ridge):
        w_out = solve_spd(acc.b + method.lam * np.eye(n), acc.a.T).T
    elif isinstance(method, Linear):
        try:
            w_out = solve_spd(acc.b, acc.a.T).T
        except DefinitenessError as exc:
            raise RankError(
                "state covariance is singular; an unregularized solve is not possible "
                "(use Ridge with a small lambda instead)"
            ) from exc
    elif isinstance(method, Lasso):
        w_out = _lasso_coordinate_descent(acc, method)
    else:
        raise TypeError(f"unknown regression method {method!r}")
    return ReadoutModel(w_out=np.ascontiguousarray(w_out), method=method)


def _lasso_coordinate_descent(acc: Accumulators, method: Lasso) -> np.ndarray:
    """Cyclic coordinate descent on 0.5*w b w' - a w' + lam*|w|_1 per row.

    This is the normal-equations form of 0.5*||Y - W X||^2 + lam*||W||_1,
    so only the accumulators are needed. Converged when no coefficient
    moves more than ``tol`` during a full cycle.
    """
    a, b = acc.a, acc.b
    l, n = a.shape
    diag = np.diag(b).copy()
    w = np.zeros((l, n))
    for row in range(l):
        w_row = w[row]
        wb = np.zeros(n)  # w_row @ b, maintained incrementally
        converged = False
        for _ in range(method.max_iter):
            max_delta = 0.0
            for j in range(n):
                if diag[j] <= 0.0:
                    continue
                residual = a[row, j] - wb[j] + w_row[j] * diag[j]
                new = np.sign(residual) * max(abs(residual) - method.lam, 0.0) / diag[j]
                delta = new - w_row[j]
                if delta != 0.0:
                    wb += delta * b[j]
                    w_row[j] = new
                    max_delta = max(max_delta, abs(delta))
            if max_delta < method.tol:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"lasso coordinate descent did not converge within {method.max_iter} cycles "
                f"for output row {row}",
                iterations=method.max_iter,
            )
    return w


def predict(model: ReadoutModel, states: StateTrajectory) -> np.ndarray:
    """Apply the readout to every state column."""
    x = states.states
    if x.shape[0] != model.w_out.shape[1]:
        raise ShapeError(
            f"states have size {x.shape[0]} but w_out expects {model.w_out.shape[1]}"
        )
    return model.w_out @ x


def accumulate_dataset(r: Reservoir, dataset, threads: int = 1) -> Accumulators:
    """Harvest every sequence of ``dataset`` and fold it into accumulators.

    Per-sequence contributions are independent; they are computed on a
    pool of ``threads`` workers and merged in sequence order, so the
    result does not depend on the thread count.
    """
    config = r.config
    if dataset.input_dim != config.input_dim or dataset.output_dim != config.output_dim:
        raise ShapeError(
            f"dataset dims (K={dataset.input_dim}, L={dataset.output_dim}) do not match "
            f"reservoir (K={config.input_dim}, L={config.output_dim})"
        )
    if dataset.num_sequences == 0:
        raise ShapeError("dataset contains no sequences")

    def contribution(i: int) -> Accumulators:
        inputs = dataset.inputs[i]
        targets = dataset.targets[i]
        teacher = targets if config.use_feedback else None
        traj = harvest(r, inputs, teacher=teacher)
        base = empty_accumulators(config.reservoir_size, config.output_dim)
        return accumulate(base, traj, targets[:, traj.t_offset :])

    acc = empty_accumulators(config.reservoir_size, config.output_dim)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(contribution, range(dataset.num_sequences)):
            acc = merge(acc, part)
    return acc


def fit(
    r: Reservoir, dataset, method: RegressionMethod = Ridge(), threads: int = 1
) -> ReadoutModel:
    """Train the readout on a dataset: accumulate everything, solve once."""
    return solve(accumulate_dataset(r, dataset, threads=threads), method)
