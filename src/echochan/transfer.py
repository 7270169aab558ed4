"""Transfer workflow: one reservoir across channels, only the readout retrained.

``fine_tune`` solves the readout on ``alpha * source + (1 - alpha) *
target`` statistics, so ``alpha = 1`` is direct transfer (a source fit)
and ``alpha = 0`` a plain target fit. ``direct_transfer_eval`` scores a
trained readout on target data as-is.
"""

from __future__ import annotations

import numpy as np

from .channelsim import SequenceDataset
from .errors import ShapeError
from .evaluation import MetricReport, evaluate
from .numerics import BAND
from .readout import (
    Accumulators,
    ReadoutModel,
    RegressionMethod,
    accumulate_dataset,
    fit,
    solve,
)
from .reservoir import Reservoir


def direct_transfer_eval(
    r: Reservoir, model: ReadoutModel, target_test: SequenceDataset
) -> MetricReport:
    """Evaluate a source-trained model on target data without retraining."""
    return evaluate(r, model, target_test)


def blend_accumulators(source: Accumulators, target: Accumulators, alpha: float) -> Accumulators:
    """Convex combination ``alpha * source + (1 - alpha) * target``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if source.a.shape != target.a.shape or source.b.shape != target.b.shape:
        raise ShapeError(
            f"cannot blend accumulators of shapes a {source.a.shape}/{target.a.shape}, "
            f"b {source.b.shape}/{target.b.shape}"
        )
    # (1 - alpha) * target.b, then alpha * source.b added a band at a time:
    # one new N x N array, the same bytes as the sum written out
    b = np.multiply(target.b, 1.0 - alpha)
    for i0 in range(0, len(b), BAND):
        b[i0 : i0 + BAND] += alpha * source.b[i0 : i0 + BAND]
    return Accumulators(
        a=alpha * source.a + (1.0 - alpha) * target.a,
        b=b,
        samples_seen=int(
            round(alpha * source.samples_seen + (1.0 - alpha) * target.samples_seen)
        ),
    )


def fine_tune(
    r: Reservoir,
    source: SequenceDataset,
    target_train: SequenceDataset,
    alpha: float,
    method: RegressionMethod,
) -> ReadoutModel:
    """Solve the readout on ``alpha * source + (1 - alpha) * target``
    statistics, folding only a dataset whose weight is not 0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha in (0.0, 1.0):  # direct transfer or a plain target fit
        return fit(r, source if alpha else target_train, method)
    blended = blend_accumulators(
        accumulate_dataset(r, source), accumulate_dataset(r, target_train), alpha
    )
    return solve(blended, method)
