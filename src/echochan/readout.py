"""Trainable output layer: closed-form ridge plus linear and lasso paths.

Training folds harvested states and targets into two accumulators,

    a = sum_i w_i * targets_i @ states_i.T        (L x N)
    b = sum_i w_i * states_i @ states_i.T         (N x N)

and solves ``w_out @ (b + lam*I) = a`` once at the end. Every
accumulator comes from one fold (``_fold``) or one sum (``merge``). The
weight w_i is the weight of the dataset pair i comes from: 1 for a
``fit``, and ``(1 - alpha, alpha)`` for the target and the source of a
``fine_tune`` blend, which is one fold of both datasets into one a and
one b. The fold is associative and commutative, so sequences can be
accumulated in any partition and merged; the result changes only by
rounding. ``_fold`` adds each state block to b's upper triangle in place
(``numerics.add_gram_upper``, whose contract is float64 rows of unit
column stride at a row stride of at least N, as one sequence's rows of a
time-major block of ``state_blocks`` are, and a C-contiguous b) and
mirrors b once at the end. So b is exactly symmetric, and on numpy's
OpenBLAS the ridge and linear solves factor it in place and restore it
(``numerics.solve_spd``): a fit or a blend holds b, the state block and
O(N * L), and no second N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import ConfigError, ConvergenceError, DefinitenessError, RankError, ShapeError
from .numerics import BAND, add_gram_upper, as_matrix, frozen, mirror_upper, solve_spd
from .reservoir import Reservoir, ReservoirConfig, StateTrajectory, state_blocks


@dataclass(frozen=True)
class Ridge:
    """Tikhonov-regularized least squares with penalty ``lam``."""

    name: ClassVar[str] = "ridge"
    lam: float = 1e-6

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ConfigError(f"ridge lambda must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class Linear:
    """Unregularized least squares; requires full-rank state covariance."""

    name: ClassVar[str] = "linear"


@dataclass(frozen=True)
class Lasso:
    """L1-penalized least squares solved by cyclic coordinate descent."""

    name: ClassVar[str] = "lasso"
    lam: float = 1e-4
    max_iter: int = 10_000
    tol: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0.0:
            raise ConfigError(f"lasso lambda must be finite and > 0, got {self.lam}")
        if self.max_iter < 1:
            raise ConfigError(f"lasso max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0.0:
            raise ConfigError(f"lasso tol must be positive, got {self.tol}")


RegressionMethod = Union[Ridge, Linear, Lasso]

# Every regression method by its name, the one spelling of it in the
# config, the .esn header and the sweep reports.
METHODS = {method.name: method for method in (Ridge, Linear, Lasso)}


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
    output activation, which is what the closed-form solve optimizes).
    ``w_out`` is kept read-only by the ``numerics.frozen`` rule."""

    w_out: np.ndarray
    method: RegressionMethod

    def __post_init__(self):
        object.__setattr__(self, "w_out", frozen(as_matrix(self.w_out, "w_out")))


def _fold(n: int, l: int, pairs) -> Accumulators:
    """Fold ``(x, y, weight)`` pairs, x a (steps, N) block of states
    (C-contiguous, or one sequence's rows of a time-major block, ``C * N``
    apart) and y the (L, steps) targets, into new accumulators: x goes
    into b's upper triangle in place at ``weight``, ``weight * (y @ x)``
    into a, and b is mirrored once at the end. ``samples_seen`` counts the
    rows folded, unweighted. A None in ``pairs`` starts the fold over: a,
    b and the sample count are zeroed in place."""
    a, b, samples = np.zeros((l, n)), np.zeros((n, n)), 0
    for pair in pairs:
        if pair is None:
            a[...], b[...], samples = 0.0, 0.0, 0
            continue
        x, y, weight = pair
        del pair
        add_gram_upper(b, x, weight)
        a += weight * (y @ x)
        samples += x.shape[0]
        del x, y  # no view of a stepped block outlives it
    mirror_upper(b)
    return Accumulators(a=a, b=b, samples_seen=samples)


def empty_accumulators(reservoir_size: int, output_dim: int) -> Accumulators:
    """Zero accumulators, for sizes as ``ReservoirConfig`` checks them."""
    return _fold(reservoir_size, output_dim, [])


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
    return merge(acc, _fold(n, l, [(np.ascontiguousarray(x.T), y, 1.0)]))


def merge(first: Accumulators, second: Accumulators) -> Accumulators:
    """The sum of two independently computed accumulators."""
    if first.a.shape != second.a.shape or first.b.shape != second.b.shape:
        raise ShapeError(
            f"cannot merge accumulators of shapes a {first.a.shape}/{second.a.shape}, "
            f"b {first.b.shape}/{second.b.shape}"
        )
    # the second b copied, then the first added a band at a time: one new
    # N x N array, the same bytes as the sum written out
    b = second.b.copy()
    for i0 in range(0, len(b), BAND):
        b[i0 : i0 + BAND] += first.b[i0 : i0 + BAND]
    return Accumulators(
        a=first.a + second.a, b=b, samples_seen=first.samples_seen + second.samples_seen
    )


def solve(acc: Accumulators, method: RegressionMethod) -> ReadoutModel:
    """Compute w_out from accumulators under the chosen regression."""
    if isinstance(method, Ridge):
        w_out = solve_spd(acc.b, acc.a.T, shift=method.lam).T
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
    return ReadoutModel(w_out=w_out, method=method)


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


def check_dataset(config: ReservoirConfig, dataset) -> None:
    """Raise ``ShapeError`` unless ``dataset`` holds at least one sequence
    with the input and output dimensions of ``config``."""
    if dataset.input_dim != config.input_dim or dataset.output_dim != config.output_dim:
        raise ShapeError(
            f"dataset dims (K={dataset.input_dim}, L={dataset.output_dim}) do not match "
            f"reservoir (K={config.input_dim}, L={config.output_dim})"
        )
    if dataset.num_sequences == 0:
        raise ShapeError("dataset contains no sequences")


def accumulate_dataset(r: Reservoir, *datasets, weights=None) -> Accumulators:
    """Harvest every sequence of ``datasets`` and fold them into one set
    of accumulators, dataset k's pairs at ``weights[k]`` (1 for each when
    None): one dataset for ``fit``, and a transfer blend's target, then
    its source, for ``fine_tune``. ``samples_seen`` counts the rows of
    every dataset, unweighted. Every dataset is checked before any is
    stepped.

    States come from ``state_blocks`` at its default width (``CHUNK``
    sequences, ``BLOCK`` steps per block) and are folded per sequence, in
    dataset order, then sequence order within each block, so memory stays
    O(CHUNK * BLOCK * N) and the fold's summation order does not depend
    on the dataset size. Each sequence's rows of a block are one pair of
    ``_fold``. Each dataset asks for ``split``, so a few long sequences
    are stepped in time segments by the split rule of
    ``reservoir._Segments``: each segment's kept rows of a block are then
    one pair. A failed seam of dataset k zeroes the shared sums; the fold
    then replays datasets 0 to k - 1 unsplit and goes on with k's unsplit
    blocks, which gives the bytes of a fold with nothing split. The
    targets are always passed as the teacher; ``state_blocks`` uses them
    only when the reservoir has feedback.
    """
    config = r.config
    if not datasets:
        raise ShapeError("no dataset to fold")
    for dataset in datasets:
        check_dataset(config, dataset)
    weights = (1.0,) * len(datasets) if weights is None else tuple(weights)
    if len(weights) != len(datasets):
        raise ShapeError(f"{len(weights)} weights for {len(datasets)} datasets")

    def pairs(k, split):
        dataset, weight = datasets[k], weights[k]
        for block in state_blocks(r, dataset.inputs, teacher=dataset.targets, split=split):
            if block is None:  # a failed seam: the unsplit blocks follow
                yield None
                continue
            first, t0, states = block
            for i, x in enumerate(states):
                yield x, dataset.targets[first + i, :, t0 : t0 + len(x)], weight
            del states, x  # no view of a stepped block outlives it

    def blend():
        for k in range(len(datasets)):
            for pair in pairs(k, True):
                yield pair
                if pair is None:  # _fold zeroed the sums: the datasets before k again
                    for earlier in range(k):
                        yield from pairs(earlier, False)
                del pair  # a dataset's last block is dropped before the next one steps

    return _fold(config.reservoir_size, config.output_dim, blend())


def fit(r: Reservoir, dataset, method: RegressionMethod = Ridge()) -> ReadoutModel:
    """Train the readout on a dataset: accumulate everything, solve once."""
    return solve(accumulate_dataset(r, dataset), method)
