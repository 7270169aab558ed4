"""Echo state network channel modeling toolkit.

Generates synthetic transmitted/received I/Q sequence data, trains an
echo state network to predict the received sequence from the transmitted
one, and provides evaluation metrics, hyperparameter sweeps, transfer
experiments, and reproducible on-disk formats. See the ``echochan`` CLI
for the end-to-end pipeline.
"""

__version__ = "0.1.0"

from .channelsim import (
    Awgn,
    ChannelSpec,
    Multipath,
    SequenceDataset,
    Tap,
    WaveformSpec,
    apply_channel,
    generate_dataset,
    qpsk_modulate,
    raised_cosine_taps,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DefinitenessError,
    DegenerateMetricError,
    EchoChanError,
    FormatError,
    IntegrityError,
    NonFiniteError,
    NumericError,
    RankError,
    RescaleError,
    ShapeError,
    StoreError,
    VersionError,
)
from .evaluation import (
    MetricReport,
    SweepAxis,
    SweepResult,
    SweepSpec,
    evaluate,
    mape,
    run_sweep,
)
from .numerics import solve_spd, spectral_radius
from .readout import (
    Accumulators,
    Lasso,
    Linear,
    ReadoutModel,
    RegressionMethod,
    Ridge,
    accumulate,
    fit,
    solve,
)
from .reservoir import (
    Activation,
    InitMethod,
    Reservoir,
    ReservoirConfig,
    StateTrajectory,
    build,
    harvest,
    init_matrix,
)
from .store import (
    ModelArtifact,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from .transfer import direct_transfer_eval, fine_tune

__all__ = [name for name in dir() if not name.startswith("_")]
