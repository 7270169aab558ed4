"""Transfer workflow: one reservoir across channels, only the readout retrained.

``fine_tune`` solves the readout on ``alpha * source + (1 - alpha) *
target`` statistics, both datasets folded into one set of accumulators
with those weights by ``readout.accumulate_dataset``, so ``alpha = 1``
is direct transfer (a source fit) and ``alpha = 0`` a plain target fit.
``direct_transfer_eval`` scores a trained readout on target data as-is.
"""

from __future__ import annotations

from .channelsim import SequenceDataset
from .errors import ConfigError
from .evaluation import MetricReport, evaluate
from .readout import ReadoutModel, RegressionMethod, accumulate_dataset, solve
from .reservoir import Reservoir


def direct_transfer_eval(
    r: Reservoir, model: ReadoutModel, target_test: SequenceDataset
) -> MetricReport:
    """Evaluate a source-trained model on target data without retraining."""
    return evaluate(r, model, target_test)


def check_alpha(alpha: float) -> None:
    """``fine_tune``'s rule for ``alpha``, for a caller to check it early."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")


def fine_tune(
    r: Reservoir,
    source: SequenceDataset,
    target_train: SequenceDataset,
    alpha: float,
    method: RegressionMethod,
) -> ReadoutModel:
    """Solve the readout on ``alpha * source + (1 - alpha) * target``
    statistics: one fold of the target, then the source, at weights ``(1
    - alpha, alpha)`` for every alpha, which steps only a dataset whose
    weight is not 0 (at alpha 0 or 1, the bytes of a ``fit`` of the
    other). A failed seam of either runs the whole fold again unsplit."""
    check_alpha(alpha)
    return solve(accumulate_dataset(r, target_train, source, weights=(1.0 - alpha, alpha)), method)
