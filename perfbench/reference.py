"""Independent NumPy reference for the numbers the echochan CLI reports.

It steps every sequence of a dataset at once (an N x S product per time
step, where the program steps one sequence at a time), folds the states
block-wise, solves the ridge system with an LU solve instead of Cholesky,
and recomputes MAPE/MSE with the documented exclusion rule. Summation
orders differ from the program's, so results agree to rounding, not
bitwise; the callers state the tolerance of each comparison.
"""

from __future__ import annotations

import numpy as np

MAPE_EPSILON_REL = 1e-9  # relative exclusion floor, as documented for MAPE
_BLOCK = 64  # time steps folded per product

_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


def _states(res, inputs, teacher=None, w_out=None):
    """Yield (t, x(t)) with x(t) an N x S array, for every time step.

    With feedback, y(t-1) is the teacher when given, else the readout of
    the previous state (closed loop); y(0) = 0.
    """
    config = res.config
    activation = _ACTIVATIONS[config.activation.value]
    count, _, total = inputs.shape
    x = np.zeros((config.reservoir_size, count))
    y = np.zeros((config.output_dim, count))
    for t in range(total):
        pre = res.w_in @ inputs[:, :, t].T + res.w @ x
        if config.use_feedback:
            pre += res.w_fb @ y
        x = activation(pre)
        if teacher is not None:
            y = teacher[:, :, t].T
        elif w_out is not None:
            y = w_out @ x
        yield t, x


def accumulators(res, dataset):
    """Teacher-forced (A, B, samples) = (sum Y X^T, sum X X^T, columns)."""
    config = res.config
    a = np.zeros((config.output_dim, config.reservoir_size))
    b = np.zeros((config.reservoir_size, config.reservoir_size))
    teacher = dataset.targets if config.use_feedback else None
    xs, ys, samples = [], [], 0
    for t, x in _states(res, dataset.inputs, teacher=teacher):
        if t < config.washout:
            continue
        xs.append(x)
        ys.append(dataset.targets[:, :, t].T)
        if len(xs) == _BLOCK or t == dataset.seq_len - 1:
            block_x, block_y = np.hstack(xs), np.hstack(ys)
            b += block_x @ block_x.T
            a += block_y @ block_x.T
            samples += block_x.shape[1]
            xs, ys = [], []
    return a, b, samples


def ridge(a, b, lam):
    """w_out solving w_out (B + lam I) = A."""
    return np.linalg.solve(b + lam * np.eye(b.shape[0]), a.T).T


def evaluate(res, w_out, dataset):
    """MAPE (percent), MSE, samples used and excluded over a dataset."""
    config = res.config
    cut = config.washout
    targets = dataset.targets
    epsilon = MAPE_EPSILON_REL * float(np.abs(targets[:, :, cut:]).max())
    ratio_sum = sq_sum = 0.0
    used = total = 0
    closed_loop = w_out if config.use_feedback else None
    for t, x in _states(res, dataset.inputs, w_out=closed_loop):
        if t < cut:
            continue
        actual = targets[:, :, t].T
        err = actual - w_out @ x
        mask = np.abs(actual) >= epsilon
        ratio_sum += float(np.abs(err[mask] / actual[mask]).sum())
        sq_sum += float((err**2).sum())
        used += int(mask.sum())
        total += actual.size
    return {
        "mape_percent": 100.0 * ratio_sum / used,
        "mse": sq_sum / total,
        "samples_used": used,
        "samples_excluded": total - used,
    }
