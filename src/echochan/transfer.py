"""Transfer workflow: pretrain on a source channel, reuse on a target.

Only the readout is ever retrained; the reservoir weights are fixed at
build time and shared across domains. Direct transfer evaluates the
source-trained readout on target data as-is. Fine-tuning re-solves the
readout on target data, optionally blending the source and target
accumulators with a convex weight.
"""

from __future__ import annotations

from .channelsim import SequenceDataset
from .errors import ShapeError
from .evaluation import MetricReport, evaluate
from .readout import (
    Accumulators,
    ReadoutModel,
    RegressionMethod,
    accumulate_dataset,
    solve,
)
from .reservoir import Reservoir


def pretrain(
    r: Reservoir, source: SequenceDataset, method: RegressionMethod
) -> tuple[ReadoutModel, Accumulators]:
    """Fit on the source domain, keeping the accumulators for blending."""
    acc = accumulate_dataset(r, source)
    return solve(acc, method), acc


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
    if alpha == 0.0:
        return target
    if alpha == 1.0:
        return source
    return Accumulators(
        a=alpha * source.a + (1.0 - alpha) * target.a,
        b=alpha * source.b + (1.0 - alpha) * target.b,
        samples_seen=int(
            round(alpha * source.samples_seen + (1.0 - alpha) * target.samples_seen)
        ),
    )


def fine_tune(
    r: Reservoir,
    source_acc: Accumulators,
    target_train: SequenceDataset,
    alpha: float,
    method: RegressionMethod,
) -> ReadoutModel:
    """Re-solve the readout on target data, blending in source statistics.

    ``alpha = 0`` reproduces a plain fit on the target training set.
    """
    target_acc = accumulate_dataset(r, target_train)
    return solve(blend_accumulators(source_acc, target_acc, alpha), method)
