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
from .readout import ReadoutModel, RegressionMethod, accumulate_dataset, fit, solve
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
    statistics, folding only a dataset whose weight is not 0. A blend is
    one fold, the target first: its few long sequences are the ones
    stepped in time segments, so a failed seam of the source, which would
    fold the target again, is rare."""
    check_alpha(alpha)
    if alpha in (0.0, 1.0):  # direct transfer or a plain target fit
        return fit(r, source if alpha else target_train, method)
    blended = accumulate_dataset(r, target_train, source, weights=(1.0 - alpha, alpha))
    return solve(blended, method)
