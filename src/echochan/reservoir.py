"""Fixed random reservoirs and their state dynamics.

A reservoir is a frozen triple of weight matrices (input, recurrent,
feedback) plus an activation. The recurrent matrix is rescaled at build
time so its spectral radius hits a configured target below one, which is
what makes the state dynamics forget initial conditions; the raw,
unrescaled radii of the supported initializers can be inspected with
``allow_unstable``.

State update, with f the configured activation, stepped by one
generator, ``_step_blocks``, for a chunk of sequences at once, both
teacher-forced (training, through ``state_blocks``) and closed-loop
(evaluation, through ``predictions``); both reach it through one entry,
``_blocks``, which checks the arguments, decides feedback and plans a
split:

    x(t) = f(w_in @ u(t) + w @ x(t-1) + w_fb @ y(t-1))

States are handed out in blocks of at most ``CHUNK * BLOCK`` rows (chunk
width x time steps). A block is stepped time-major, steps x width x N, so
the states of one step are one contiguous slab, and is handed out as a
width x steps x N view of it: each sequence's states are rows ``width *
N`` apart, which ``numerics.add_gram_upper`` folds without a copy.
Training steps ``CHUNK`` sequences per chunk in ``BLOCK``-step blocks;
``predictions``, the one prediction path, steps all of its sequences in
one chunk with blocks shortened to the same budget.

A few long sequences from the zero state, not closing the loop, are
stepped in time segments instead, all in one wider chunk, by the one
split rule and segment layout of ``_Segments``; each segment reads its
drive in place, so they split at any length. Split states differ from
unsplit ones by rounding, which cond(B + lambda I) amplifies into
``w_out``. A split call, a fold of one or more datasets or an open-loop
``predictions``, runs through ``run_split``: a failed seam anywhere in it
runs the whole call again with nothing split, for exactly its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from . import seeding
from .errors import ConfigError, NonFiniteError, RescaleError, ShapeError
from .numerics import all_finite, as_matrix, frozen, spectral_radius

# Chunk width of ``state_blocks``: sequences stepped together as one
# CHUNK x N by N x N product per time step. The training fold uses it, so
# fitted bytes do not depend on the dataset size.
CHUNK = 16
# Time steps of a CHUNK-wide chunk held at once before they are handed
# out; CHUNK * BLOCK is the state-row budget of a block at any width, so
# it sizes every stepping buffer. Shorter blocks cost the fold per row: a
# dsyrk of a sequence's 64 rows costs 7-10% more per row than of 128 at
# N = 578 and 1,200, and of 32 rows 16-18% more again.
BLOCK = 64
# Steps a time segment is stepped from the zero state before its first
# kept state; the echo state property makes it forget that start.
WARMUP = 64
# Largest difference allowed at a seam between a segment's last warm-up
# state and its predecessor's state at the same time, relative to
# max(1, |state|); one larger makes ``run_split`` run the call unsplit.
SEAM_TOL = 1e-14
# Fewest steps a block of a split call may hold: the fold adds each
# segment's rows of a block with one dsyrk, which costs about 2.5x as much
# per row on 8 rows as on 64 (N = 578 and 1,200), so a split fold or
# prediction takes fewer segments rather than shorter blocks.
FOLD_STEPS = 8


class InitMethod(Enum):
    """Weight initialization scheme for reservoir matrices."""

    RANDOM = "random"
    XAVIER = "xavier"
    NORMALIZED_XAVIER = "normalized_xavier"
    HE = "he"


class Activation(Enum):
    """Elementwise nonlinearity applied in the state update."""

    TANH = "tanh"
    RELU = "relu"
    SIGMOID = "sigmoid"

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self is Activation.TANH:
            return np.tanh(x)
        if self is Activation.RELU:
            return np.maximum(x, 0.0)
        return 1.0 / (1.0 + np.exp(-x))


def _check_sparsity(sparsity: float) -> None:
    """The sparsity rule of ``ReservoirConfig`` and ``init_matrix``."""
    if not 0.0 <= sparsity <= 1.0:
        raise ConfigError(f"sparsity must be in [0, 1], got {sparsity}")


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
            raise ConfigError(
                "input_dim, reservoir_size and output_dim must all be >= 1, got "
                f"({self.input_dim}, {self.reservoir_size}, {self.output_dim})"
            )
        _check_sparsity(self.sparsity)
        if not np.isfinite(self.target_spectral_radius) or self.target_spectral_radius <= 0.0:
            raise ConfigError(
                f"target_spectral_radius must be positive, got {self.target_spectral_radius}"
            )
        if self.target_spectral_radius > 1.0 and not self.allow_unstable:
            raise ConfigError(
                f"target_spectral_radius {self.target_spectral_radius} > 1 breaks the echo "
                "state condition; set allow_unstable for diagnostic runs"
            )
        if self.washout < 0:
            raise ConfigError(f"washout must be >= 0, got {self.washout}")


@dataclass(frozen=True)
class Reservoir:
    """Frozen weight matrices of a built reservoir.

    ``ORDERS`` is the one table of each matrix's memory order
    (``ModelArtifact`` adds ``w_out``): every matrix is float64 in that
    order, owns its data and is read-only (``numerics.frozen``: a
    caller's array is copied once unless it already is all of that, so the
    caller's arrays stay writeable) and finite; only the readout layer is
    ever trained. ``w`` is column-major, so the ``w.T`` that
    ``state_blocks`` steps with is a row-major view, not a copy.
    """

    ORDERS: ClassVar[dict[str, str]] = {"w_in": "C", "w": "F", "w_fb": "C"}

    config: ReservoirConfig
    w_in: np.ndarray
    w: np.ndarray
    w_fb: np.ndarray
    achieved_radius: float

    def __post_init__(self):
        for name, order in self.ORDERS.items():
            matrix = frozen(getattr(self, name), order)
            check_shape(self.config, name, matrix)
            if not all_finite(matrix):
                raise NonFiniteError(f"matrix {name} contains non-finite values", name)
            object.__setattr__(self, name, matrix)


def matrix_shapes(config: ReservoirConfig) -> dict[str, tuple[int, int]]:
    """Name -> shape of each weight matrix of a trained model, in the
    ``.esn`` payload order: the reservoir's three, then the readout's."""
    n, k, l = config.reservoir_size, config.input_dim, config.output_dim
    return {"w_in": (n, k), "w": (n, n), "w_fb": (n, l), "w_out": (l, n)}


def check_shape(config: ReservoirConfig, name: str, matrix: np.ndarray) -> None:
    """Raise ``ShapeError`` unless ``matrix`` has the shape that
    ``matrix_shapes(config)`` gives ``name``."""
    rows, cols = matrix_shapes(config)[name]
    if matrix.shape != (rows, cols):
        raise ShapeError(f"{name} must be {rows} x {cols}, got shape {matrix.shape}")


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
    _check_sparsity(sparsity)
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
        w *= scale
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
    columns dropped. ``teacher`` (L x T) forces the fed-back output
    y(t-1) during training and a readout ``w_out`` (L x N) closes the
    loop; ``state_blocks`` owns the feedback decision and checks both.
    This is ``state_blocks`` for one sequence (S = 1), checked by it, and
    never split (``_Segments``).
    """
    config = r.config
    inputs = np.asarray(inputs, dtype=np.float64)
    if teacher is not None:
        teacher = np.asarray(teacher, dtype=np.float64)[None]
    blocks = state_blocks(r, inputs[None], teacher, initial_state, w_out)
    states = np.empty((config.reservoir_size, inputs.shape[1] - config.washout))
    for _, t0, block in blocks:
        start = t0 - config.washout
        states[:, start : start + block.shape[1]] = block[0].T
    return StateTrajectory(states=states, t_offset=config.washout)


def state_blocks(r: Reservoir, inputs, teacher=None, initial_state=None, w_out=None, split=False):
    """Step S sequences (``inputs`` S x K x T) and yield their states block by block.

    The state recurrence for training and ``harvest``. Sequences are
    stepped ``CHUNK`` at a time, so each step is one C x N by N x N
    product, in blocks of ``BLOCK`` time steps. ``initial_state`` is
    shared by every sequence.

    Its checks, which ``predictions`` shares, own the feedback decision
    and the ``w_out`` check: any ``w_out`` given must be L x N, feedback
    or not. When the reservoir uses feedback, exactly one source of the
    fed-back output y(t-1) must be given, with y(0) = 0 either way:
    ``teacher`` (S x L x T) forces it during training, and a trained
    readout ``w_out`` closes the loop with y(t-1) = w_out @ x(t-1).
    Without feedback both are dropped. Yields ``(first, t0, states)`` in
    sequence-then-time order: ``states`` is a C x b x N array whose row
    [c, j] is x(t0 + j) of sequence first + c, for t0 + j >= washout
    only. It is a view of a time-major b x C x N buffer, so ``states[c]``
    is b rows of N values ``C * N`` apart (not C-contiguous, but what
    ``numerics.add_gram_upper`` takes). The next block overwrites it, so
    fold or copy it before asking for the next one; memory is O(CHUNK *
    BLOCK * N) whatever S and T are.

    ``split`` lets the call be stepped in time segments by the split
    rule of ``_Segments``; each block yielded is then one segment's kept
    states, in the same form. A split call runs inside ``run_split``: a
    failed seam, which shows only at the last block, raises out of the
    blocks to it.
    """
    return _blocks(r, inputs, teacher, initial_state, w_out, split, CHUNK)


def _blocks(r, inputs, teacher, initial_state, w_out, split, width):
    """The one stepping entry, of ``state_blocks`` and ``predictions``.

    Checks the arguments before any step, as ``state_blocks`` documents
    them, then steps ``width`` sequences per chunk (or all S of the call
    in one, at most ``CHUNK * BLOCK``, when ``width`` is None) in blocks
    of ``CHUNK * BLOCK // width`` steps. With ``split`` it asks
    ``_Segments.plan`` for a split and, given one, returns its blocks.
    """
    config = r.config
    n, washout = config.reservoir_size, config.washout
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[1] != config.input_dim:
        raise ShapeError(
            f"inputs must be S x {config.input_dim} x T, got shape {inputs.shape}"
        )
    count, _, total = inputs.shape
    if total <= washout:
        raise ShapeError(f"sequence length {total} leaves no states after washout {washout}")
    if w_out is not None:
        w_out = np.asarray(w_out, dtype=np.float64)
        check_shape(config, "w_out", w_out)
    # from here on, w_out is the readout that closes the loop, if any
    if not config.use_feedback:
        teacher = w_out = None
    elif (teacher is None) == (w_out is None):
        raise ShapeError(
            "reservoir uses feedback: give either a teacher sequence or a readout w_out"
        )
    elif teacher is not None:
        teacher = np.asarray(teacher, dtype=np.float64)
        if teacher.shape != (count, config.output_dim, total):
            raise ShapeError(
                f"teacher must be {count} x {config.output_dim} x {total}, "
                f"got shape {teacher.shape}"
            )
    if initial_state is None:
        x0 = np.zeros(n)
    else:
        x0 = as_matrix(initial_state, "initial state", 1)
        if x0.shape[0] != n:
            raise ShapeError(f"initial state has length {x0.shape[0]}, expected {n}")
    if width is None:
        width = min(max(count, 1), CHUNK * BLOCK)
    steps = CHUNK * BLOCK // width
    if split and initial_state is None and w_out is None:
        plan = _Segments.plan(count, total, washout, min(total, steps))
        if plan is not None:
            return plan.blocks(_step_blocks(
                r, inputs, teacher, x0, None, plan.width, plan.steps, 0, plan.starts, plan.window
            ))
    return _step_blocks(r, inputs, teacher, x0, w_out, width, steps, washout, [0], total)


def _step_blocks(r, inputs, teacher, x0, w_out, width, steps, washout, starts, length):
    """The generator behind ``_blocks``, which checks its arguments first:
    ``width`` chunk rows in blocks of ``steps`` time steps, ``length`` in
    all; it yields no state of a step before ``washout``. Row p * C + c of
    a chunk of C sequences steps sequence c from time ``starts[p]`` (``[0]``
    unsplit), reading its drive in place at that time; past T it is zero.

    A teacher is known before stepping, so y(t-1) (y(-1) = 0) joins u(t)
    as input channels: a block's drive is one product of [u; y] with
    [w_in | w_fb] per sequence and segment, written into the time-major
    block. Step j then adds ``x @ w.T`` (and, closing the loop, the
    fed-back readout) to its contiguous slab ``block[j]``, applies the
    activation and writes the states back. It yields
    ``block.transpose(1, 0, 2)`` past the washout.
    """
    activation = r.config.activation.apply
    count, _, total = inputs.shape
    # Row-major states: x(t) of a chunk is C x N, stepped as x @ w.T with
    # w.T row-major (a view of the column-major w); w @ X on column-major
    # states made BLAS repack w on every step, which is slower for small
    # chunks.
    w_t, w_fb_t = r.w.T, r.w_fb.T
    w_drive_t = (r.w_in if teacher is None else np.hstack([r.w_in, r.w_fb])).T
    parts = len(starts)
    buffer = np.empty((min(steps, length), min(width, parts * count), r.config.reservoir_size))
    for first in range(0, count, width // parts):
        chunk = slice(first, first + width // parts)
        u, y = inputs[chunk], None if teacher is None else teacher[chunk]
        c = u.shape[0]
        x = np.tile(x0, (parts * c, 1))
        for t0 in range(0, length, steps):
            block = buffer[: min(steps, length - t0), : parts * c]
            b = block.shape[0]
            for p, begin in enumerate(starts):
                # segment p's rows from time t, of which a steps are before T
                t = begin + t0
                rows, a = block[:, p * c : (p + 1) * c], min(b, max(total - t, 0))
                drive = u[:, :, t : t + a]
                if y is not None:
                    # y(t - 1) for every t of the block, with y(-1) = 0
                    y_prev = np.zeros((c, y.shape[1], a))
                    start = max(t - 1, 0)
                    y_prev[:, :, start + 1 - t :] = y[:, :, start : t + a - 1]
                    drive = np.concatenate([drive, y_prev], axis=1)
                # The drive of the whole block, one product per sequence and
                # segment; each step then overwrites its slab with the states.
                np.matmul(drive.transpose(0, 2, 1), w_drive_t, out=rows[:a].transpose(1, 0, 2))
                rows[a:] = 0.0
            for j in range(b):
                pre = block[j]
                pre += x @ w_t
                if w_out is not None and t0 + j > 0:
                    pre += (x @ w_out.T) @ w_fb_t
                x = activation(pre)
                block[j] = x
            skip = max(washout - t0, 0)
            if skip < b:
                yield first, t0 + skip, block[skip:].transpose(1, 0, 2)


class _SeamFailed(Exception):
    """A seam of a split call failed: raised by ``_Segments.kept``, caught
    by ``run_split``."""


def run_split(compute):
    """``compute(split)``, the whole of a split call, run with ``split``
    True and, when a seam of that attempt fails, once more with nothing
    split: a failed seam anywhere gives exactly the bytes of the same call
    unsplit, and no later dataset of the call tries to split. The restart
    steps only after the failed attempt's stepping buffer, accumulators
    and predictions are freed, so a failed seam costs time, not memory."""
    try:
        return compute(True)
    except _SeamFailed:
        pass  # restart outside the handler, whose traceback holds the failed attempt
    return compute(False)


class _Segments:
    """The time segments of a call of S sequences of T steps, stepped as
    one chunk of P * S rows in blocks of ``steps`` steps: the one segment
    layout and split rule of every stepping call (``_blocks``).

    The split rule: a call that asks for it (a training fold, or an
    open-loop ``predictions``), of fewer than ``CHUNK // 2`` sequences,
    from the zero state and not closing the loop, is split in the most
    segments that ``plan`` fits, each of at least ``WARMUP`` kept steps
    and with blocks of at least ``FOLD_STEPS`` steps within the unsplit
    call's budget; a call that no split fits, a harvest and a call from a
    given initial state are stepped unsplit. A closed loop is not split,
    as its drive is its own prediction, nor are wider calls, whose chunk
    is wide already.

    Each sequence is stepped as P segments, laid out segment-major (row p
    * S + s is segment p of sequence s), each reading its drive in place,
    for W + L steps, W = ``WARMUP``, L = ceil((T - W) / P): segment 0
    keeps times [0, W + L), and segment p >= 1 starts from the zero state
    at time p * L and keeps [W + p * L, W + (p + 1) * L), its first W
    states dropped; drives past T are zero and their states dropped, and
    so are states before the washout. So segment p - 1 steps through
    segment p's warm-up, and both have a state at time W + p * L - 1: that
    seam holds when they agree within ``SEAM_TOL``. A failed seam shows
    only at the last block, which raises ``_SeamFailed`` for ``run_split``.
    """

    def __init__(self, count, total, parts, washout):
        span = -(-(total - WARMUP) // parts)
        self.count = count
        self.width, self.window = parts * count, WARMUP + span
        # W warm-up steps and at least W kept steps for each segment
        self.fits = total >= (parts + 1) * WARMUP
        # the first time of each segment, and the steps [lo, hi) it keeps
        self.starts = [p * span for p in range(parts)]
        self.keep = [
            (max(WARMUP if p else 0, washout - start), min(self.window, total - start))
            for p, start in enumerate(self.starts)
        ]
        # a seam: step W - 1 of segment p >= 1 is the last step of p - 1
        self.seam = WARMUP - 1
        self.warm = None

    @classmethod
    def plan(cls, count, total, washout, unsplit):
        """The split of a call with the most segments that fits (at most
        ``CHUNK`` // S, none for S >= ``CHUNK // 2``), or None: its blocks
        are shortened so that a block, the step temporaries and seam copies
        (5 N per chunk row) hold no more values than an unsplit block of S
        * ``unsplit`` state rows (segments read their drive in place), and
        must still hold ``FOLD_STEPS`` steps."""
        for parts in range(CHUNK // count, 1, -1) if 0 < count < CHUNK // 2 else ():
            plan = cls(count, total, parts, washout)
            plan.steps = count * unsplit // plan.width - 5
            if plan.fits and plan.steps >= FOLD_STEPS:
                return plan
        return None

    def kept(self, t0, states):
        """``(rows, j0, j1, t)`` of each segment's kept states in a stepped
        block (``states``, P * S x b x N, from step t0): its chunk rows,
        its steps [j0, j1) of the block, and the time of step j0. Watches
        the seams on the way: the block holding their first step copies
        it, and the one holding the last compares them and raises
        ``_SeamFailed`` when one differs by more than ``SEAM_TOL``."""
        count, b = self.count, states.shape[1]
        if t0 <= self.seam < t0 + b:
            self.warm = states[count:, self.seam - t0].copy()
        if t0 <= self.window - 1 < t0 + b:
            last, gap = states[:-count, self.window - 1 - t0], self.warm
            gap -= last  # in place, like the scale: no temporary of the seam rows
            gap = np.abs(gap, out=gap).max()
            if not gap <= SEAM_TOL * max(1.0, last.max(), -last.min()):
                raise _SeamFailed
            self.warm = None
        for p, ((lo, hi), start) in enumerate(zip(self.keep, self.starts)):
            j0, j1 = max(lo, t0), min(hi, t0 + b)
            if j0 < j1:
                yield slice(p * count, (p + 1) * count), j0 - t0, j1 - t0, start + j0

    def blocks(self, stepped):
        """The kept states of the blocks of ``stepped`` as ``state_blocks``
        yields them, one segment at a time."""
        for _, t0, states in stepped:
            for rows, j0, j1, t in self.kept(t0, states):
                yield 0, t, states[rows, j0:j1]


def predictions(r: Reservoir, inputs, w_out) -> np.ndarray:
    """Readout predictions ``w_out @ x(t)`` of S sequences (``inputs`` S x K
    x T) stepped from the zero state: an S x L x (T - washout) array.

    Arguments are checked as ``state_blocks`` checks them, before any
    step; with feedback the loop is closed through ``w_out``. The
    sequences are stepped as one chunk of S rows (at most ``CHUNK *
    BLOCK``) in blocks of ``CHUNK * BLOCK // S`` steps, and an open-loop
    call is split in time segments by the split rule of ``_Segments``,
    through ``run_split``; the states of each block, or of each segment,
    are read out as they are stepped.
    """
    inputs, w_out = np.asarray(inputs, dtype=np.float64), np.asarray(w_out, dtype=np.float64)

    def predict(split):
        blocks = _blocks(r, inputs, None, None, w_out, split, None)
        (count, _, total), washout = inputs.shape, r.config.washout
        out = np.empty((count, len(w_out), total - washout))
        for first, t, states in blocks:
            y = w_out @ states.transpose(0, 2, 1)
            out[first : first + len(y), :, t - washout : t - washout + y.shape[2]] = y
            del states, y  # nothing read from a stepped block outlives it
        return out

    return run_split(predict)


def with_seed(config: ReservoirConfig, seed: int) -> ReservoirConfig:
    """Copy of ``config`` with a different build seed."""
    return replace(config, seed=seed)
