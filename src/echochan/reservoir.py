"""Fixed random reservoirs and their state dynamics.

A reservoir is a frozen triple of weight matrices (input, recurrent,
feedback) plus an activation. The recurrent matrix is rescaled at build
time so its spectral radius hits a configured target below one, which is
what makes the state dynamics forget initial conditions; the raw,
unrescaled radii of the supported initializers can be inspected with
``allow_unstable``.

State update, with f the configured activation, stepped by ``harvest``
both teacher-forced (training) and closed-loop (evaluation):

    x(t) = f(w_in @ u(t) + w @ x(t-1) + w_fb @ y(t-1))
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import seeding
from .errors import RescaleError, ShapeError
from .numerics import as_vector, spectral_radius


class InitMethod(Enum):
    """Weight initialization scheme for reservoir matrices."""

    RANDOM = "random"
    XAVIER = "xavier"
    NORMALIZED_XAVIER = "normalized_xavier"
    HE = "he"

    @classmethod
    def from_name(cls, name: str) -> "InitMethod":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown init method {name!r}; expected one of: {options}") from None


class Activation(Enum):
    """Elementwise nonlinearity applied in the state update."""

    TANH = "tanh"
    RELU = "relu"
    SIGMOID = "sigmoid"

    @classmethod
    def from_name(cls, name: str) -> "Activation":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown activation {name!r}; expected one of: {options}") from None

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self is Activation.TANH:
            return np.tanh(x)
        if self is Activation.RELU:
            return np.maximum(x, 0.0)
        return 1.0 / (1.0 + np.exp(-x))

    @property
    def state_range(self) -> tuple[float, float]:
        if self is Activation.TANH:
            return (-1.0, 1.0)
        if self is Activation.RELU:
            return (0.0, np.inf)
        return (0.0, 1.0)


@dataclass(frozen=True)
class ReservoirConfig:
    """Hyperparameters of a reservoir build.

    ``sparsity`` is the probability that a recurrent entry is kept
    non-zero (1.0 = fully dense). ``target_spectral_radius`` must be in
    (0, 1] unless ``allow_unstable`` is set, in which case the recurrent
    matrix is left at its raw scale for diagnostic runs.
    """

    input_dim: int
    reservoir_size: int
    output_dim: int
    init: InitMethod = InitMethod.XAVIER
    sparsity: float = 1.0
    target_spectral_radius: float = 0.5
    activation: Activation = Activation.TANH
    use_feedback: bool = False
    washout: int = 0
    seed: int = 0
    allow_unstable: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.reservoir_size < 1 or self.output_dim < 1:
            raise ValueError(
                "input_dim, reservoir_size and output_dim must all be >= 1, got "
                f"({self.input_dim}, {self.reservoir_size}, {self.output_dim})"
            )
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {self.sparsity}")
        if not np.isfinite(self.target_spectral_radius) or self.target_spectral_radius <= 0.0:
            raise ValueError(
                f"target_spectral_radius must be positive, got {self.target_spectral_radius}"
            )
        if self.target_spectral_radius > 1.0 and not self.allow_unstable:
            raise ValueError(
                f"target_spectral_radius {self.target_spectral_radius} > 1 breaks the echo "
                "state condition; set allow_unstable for diagnostic runs"
            )
        if self.washout < 0:
            raise ValueError(f"washout must be >= 0, got {self.washout}")


@dataclass(frozen=True)
class Reservoir:
    """Frozen weight matrices of a built reservoir.

    All arrays are marked read-only; only the readout layer is ever
    trained.
    """

    config: ReservoirConfig
    w_in: np.ndarray
    w: np.ndarray
    w_fb: np.ndarray
    achieved_radius: float

    def __post_init__(self):
        n, k, l = self.config.reservoir_size, self.config.input_dim, self.config.output_dim
        if self.w_in.shape != (n, k):
            raise ShapeError(f"w_in must be {(n, k)}, got {self.w_in.shape}")
        if self.w.shape != (n, n):
            raise ShapeError(f"w must be {(n, n)}, got {self.w.shape}")
        if self.w_fb.shape != (n, l):
            raise ShapeError(f"w_fb must be {(n, l)}, got {self.w_fb.shape}")
        for arr in (self.w_in, self.w, self.w_fb):
            arr.flags.writeable = False


@dataclass(frozen=True)
class StateTrajectory:
    """Harvested state columns x(t) for t = t_offset+1 .. T."""

    states: np.ndarray
    t_offset: int = 0

    def __post_init__(self):
        if self.states.ndim != 2:
            raise ShapeError(f"states must be 2-D, got shape {self.states.shape}")


def init_matrix(method: InitMethod, rows: int, cols: int, sparsity: float, seed: int) -> np.ndarray:
    """Draw a rows x cols weight matrix under the given scheme.

    Distributions (fan = cols):
      random            uniform on [-1, 1]
      xavier            uniform on [-1/sqrt(fan), +1/sqrt(fan)]
      normalized_xavier uniform on +-sqrt(6)/sqrt(rows + cols)
      he                normal with mean 0, std sqrt(2/fan)

    Each entry is then independently zeroed with probability
    ``1 - sparsity``. Deterministic for a fixed seed.
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"rows and cols must be >= 1, got ({rows}, {cols})")
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    rng = seeding.substream(seed)
    if method is InitMethod.RANDOM:
        values = rng.uniform(-1.0, 1.0, size=(rows, cols))
    elif method is InitMethod.XAVIER:
        bound = 1.0 / np.sqrt(cols)
        values = rng.uniform(-bound, bound, size=(rows, cols))
    elif method is InitMethod.NORMALIZED_XAVIER:
        bound = np.sqrt(6.0) / np.sqrt(rows + cols)
        values = rng.uniform(-bound, bound, size=(rows, cols))
    elif method is InitMethod.HE:
        values = rng.normal(0.0, np.sqrt(2.0 / cols), size=(rows, cols))
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled init method {method}")
    if sparsity < 1.0:
        values *= rng.random(size=(rows, cols)) < sparsity
    return values


def build(config: ReservoirConfig) -> Reservoir:
    """Construct the frozen reservoir for ``config``.

    ``w_in`` and (when enabled) ``w_fb`` are drawn at full density; ``w``
    honors ``config.sparsity`` and is scaled linearly to the target radius
    unless ``allow_unstable`` is set. The raw radius is computed once and
    ``achieved_radius`` is derived from it. Bit-identical for identical
    configs.
    """
    n, k, l = config.reservoir_size, config.input_dim, config.output_dim
    w_in = init_matrix(
        config.init, n, k, 1.0, seeding.child_seed(config.seed, seeding.STREAM_W_IN)
    )
    w = init_matrix(
        config.init, n, n, config.sparsity, seeding.child_seed(config.seed, seeding.STREAM_W)
    )
    achieved = spectral_radius(w)
    if not config.allow_unstable:
        if achieved == 0.0:
            raise RescaleError("matrix has spectral radius 0 and cannot be rescaled")
        scale = config.target_spectral_radius / achieved
        w = w * scale
        achieved *= scale
    if config.use_feedback:
        w_fb = init_matrix(
            config.init, n, l, 1.0, seeding.child_seed(config.seed, seeding.STREAM_W_FB)
        )
    else:
        w_fb = np.zeros((n, l))
    return Reservoir(config=config, w_in=w_in, w=w, w_fb=w_fb, achieved_radius=achieved)


def harvest(
    r: Reservoir,
    inputs,
    teacher=None,
    initial_state=None,
    w_out=None,
) -> StateTrajectory:
    """Drive the reservoir with a K x T input sequence and collect states.

    Starts from the zero state (or ``initial_state`` when given, which
    exists so convergence from different starting points can be checked),
    steps t = 1..T, and returns the states with the first ``washout``
    columns dropped. When the reservoir uses feedback, exactly one source
    of the fed-back output y(t-1) must be given, with y(0) = 0 either way:
    ``teacher`` (L x T) forces it during training, and a trained readout
    ``w_out`` (L x N) closes the loop with y(t-1) = w_out @ x(t-1).
    Without feedback both are ignored.
    """
    config = r.config
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != config.input_dim:
        raise ShapeError(
            f"inputs must be {config.input_dim} x T, got shape {inputs.shape}"
        )
    total = inputs.shape[1]
    if total <= config.washout:
        raise ShapeError(
            f"sequence length {total} leaves no states after washout {config.washout}"
        )
    n = config.reservoir_size
    if config.use_feedback:
        if (teacher is None) == (w_out is None):
            raise ShapeError(
                "reservoir uses feedback: give either a teacher sequence or a readout w_out"
            )
        if teacher is not None:
            teacher = np.asarray(teacher, dtype=np.float64)
            if teacher.shape != (config.output_dim, total):
                raise ShapeError(
                    f"teacher must be {config.output_dim} x {total}, got shape {teacher.shape}"
                )
        else:
            w_out = np.asarray(w_out, dtype=np.float64)
            if w_out.shape != (config.output_dim, n):
                raise ShapeError(
                    f"w_out must be {config.output_dim} x {n}, got shape {w_out.shape}"
                )

    if initial_state is None:
        x = np.zeros(n)
    else:
        x = as_vector(initial_state, "initial state").copy()
        if x.shape[0] != n:
            raise ShapeError(f"initial state has length {x.shape[0]}, expected {n}")

    activation = config.activation.apply
    w_in, w, w_fb = r.w_in, r.w, r.w_fb
    # Input contributions for the whole sequence in one product.
    driven = w_in @ inputs
    states = np.empty((n, total - config.washout))
    feedback = config.use_feedback
    for t in range(total):
        pre = driven[:, t] + w @ x
        if feedback:
            if t == 0:
                y_prev = np.zeros(config.output_dim)
            elif teacher is not None:
                y_prev = teacher[:, t - 1]
            else:
                y_prev = w_out @ x
            pre += w_fb @ y_prev
        x = activation(pre)
        if t >= config.washout:
            states[:, t - config.washout] = x
    return StateTrajectory(states=states, t_offset=config.washout)


def with_seed(config: ReservoirConfig, seed: int) -> ReservoirConfig:
    """Copy of ``config`` with a different build seed."""
    return replace(config, seed=seed)
