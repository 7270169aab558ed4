"""Synthetic transmitted/received I/Q sequence generation.

The signal chain is QPSK modulation, zero-stuffed upsampling, raised
cosine pulse shaping (same-length, group-delay compensated), then a
configurable channel: plain AWGN, or a tapped delay line whose complex
tap gains can be slowly modulated to mimic a disturbed medium, followed
by AWGN. Sequences are generated from per-sequence seed substreams, so
the dataset is identical whether sequences are produced serially or in
parallel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from . import seeding
from .errors import ConfigError, NonFiniteError, ShapeError
from .numerics import as_matrix, frozen

GRAY_QPSK = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)
# Rows of a sample, in-phase then quadrature: the width (K = L) of every
# dataset generated or stored and of every reservoir a config builds.
IQ = 2


def _check_snr(snr_db: float) -> None:
    """The SNR rule of every channel: a real value, or +inf for no noise."""
    if np.isnan(snr_db) or np.isneginf(snr_db):
        raise ConfigError(f"snr_db must be a real value or +inf, got {snr_db}")


@dataclass(frozen=True)
class Awgn:
    """Additive white Gaussian noise channel at a given SNR.

    ``snr_db = inf`` disables the noise entirely.
    """

    snr_db: float

    def __post_init__(self):
        _check_snr(self.snr_db)


@dataclass(frozen=True)
class Tap:
    """One delay-line tap: integer sample delay and complex gain."""

    delay: int
    gain_i: float
    gain_q: float

    def __post_init__(self):
        if self.delay < 0:
            raise ConfigError(f"tap delay must be >= 0, got {self.delay}")
        if not (np.isfinite(self.gain_i) and np.isfinite(self.gain_q)):
            raise ConfigError("tap gains must be finite")

    @property
    def gain(self) -> complex:
        return complex(self.gain_i, self.gain_q)


@dataclass(frozen=True)
class Multipath:
    """Tapped delay line with optional sinusoidal tap-gain modulation.

    ``disturbance`` is the fractional amplitude of the modulation and
    ``disturbance_period`` its period in samples; each tap gets a phase
    offset drawn deterministically from the channel seed. AWGN at
    ``snr_db`` (relative to the pre-noise output power) is added last.
    """

    taps: tuple[Tap, ...]
    disturbance: float = 0.0
    disturbance_period: int = 200
    snr_db: float = np.inf

    def __post_init__(self):
        if len(self.taps) == 0:
            raise ConfigError("multipath channel needs at least one tap")
        delays = [t.delay for t in self.taps]
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ConfigError(f"tap delays must be strictly increasing, got {delays}")
        if not 0.0 <= self.disturbance <= 1.0:
            raise ConfigError(f"disturbance must be in [0, 1], got {self.disturbance}")
        if self.disturbance > 0.0 and self.disturbance_period < 1:
            raise ConfigError(
                f"disturbance_period must be >= 1, got {self.disturbance_period}"
            )
        _check_snr(self.snr_db)


ChannelSpec = Union[Awgn, Multipath]


def _check_pulse(rolloff: float, filter_span: int, samples_per_symbol: int) -> None:
    """The pulse rule of ``WaveformSpec`` and ``raised_cosine_taps``."""
    if samples_per_symbol < 1:
        raise ConfigError(f"samples_per_symbol must be >= 1, got {samples_per_symbol}")
    if not 0.0 < rolloff <= 1.0:
        raise ConfigError(f"rolloff must be in (0, 1], got {rolloff}")
    if filter_span < 2:
        raise ConfigError(f"filter_span must be >= 2, got {filter_span}")
    if (filter_span * samples_per_symbol) % 2 != 0:
        raise ConfigError(
            "filter_span * samples_per_symbol must be even so the filter has a center tap"
        )


@dataclass(frozen=True)
class WaveformSpec:
    """Parameters of one transmitted sequence.

    ``sequence_length`` must equal (bits/2) * samples_per_symbol: the
    shaped sequence is kept sample-aligned with the symbol grid, so every
    symbol contributes exactly ``samples_per_symbol`` samples.
    """

    bits_per_sequence: int = 578
    samples_per_symbol: int = 2
    rolloff: float = 0.35
    filter_span: int = 8
    sequence_length: int = 578
    seed: int = 0

    def __post_init__(self):
        if self.bits_per_sequence < 2 or self.bits_per_sequence % 2 != 0:
            raise ConfigError(
                f"bits_per_sequence must be a positive even count, got {self.bits_per_sequence}"
            )
        _check_pulse(self.rolloff, self.filter_span, self.samples_per_symbol)
        expected = (self.bits_per_sequence // 2) * self.samples_per_symbol
        if self.sequence_length != expected:
            raise ConfigError(
                f"sequence_length {self.sequence_length} is inconsistent with "
                f"{self.bits_per_sequence} bits at {self.samples_per_symbol} samples/symbol "
                f"(expected {expected})"
            )


@dataclass(frozen=True)
class SequenceDataset:
    """Batched transmitted/received I/Q sequences.

    ``inputs`` and ``targets`` are (num_sequences, dim, T) float64
    arrays with row 0 = in-phase and row 1 = quadrature, row-major,
    owning their data and read-only (``numerics.frozen``: a caller's
    array is copied once unless it already is all of that, so writing to
    it later cannot get past the finiteness check). ``meta`` records how
    the data was generated.
    """

    inputs: np.ndarray
    targets: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("inputs", "targets"):
            object.__setattr__(self, name, frozen(getattr(self, name), "C"))
        if self.inputs.ndim != 3 or self.targets.ndim != 3:
            raise ShapeError("inputs and targets must be 3-D (sequence, dim, time)")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError(
                f"sequence counts differ: {self.inputs.shape[0]} inputs vs "
                f"{self.targets.shape[0]} targets"
            )
        if self.inputs.shape[2] != self.targets.shape[2]:
            raise ShapeError(
                f"sequence lengths differ: {self.inputs.shape[2]} vs {self.targets.shape[2]}"
            )
        # a sequence at a time, so no mask the size of the payload is made
        for sequences in (self.inputs, self.targets):
            if not all(np.isfinite(sequence).all() for sequence in sequences):
                raise NonFiniteError("dataset contains non-finite samples")

    @property
    def num_sequences(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.targets.shape[1]

    @property
    def seq_len(self) -> int:
        return self.inputs.shape[2]

    def subset(self, indices) -> "SequenceDataset":
        """New dataset restricted to the given sequence indices."""
        idx = np.asarray(indices, dtype=np.intp)
        inputs, targets = self.inputs[idx], self.targets[idx]
        # fresh copies, kept by the new dataset once read-only
        inputs.flags.writeable = targets.flags.writeable = False
        return SequenceDataset(inputs, targets, meta=dict(self.meta, subset_size=int(idx.size)))


def qpsk_modulate(bits) -> np.ndarray:
    """Map a bit array onto Gray-coded unit-energy QPSK symbols.

    Bit pairs map as 00 -> (+1+1j)/sqrt2, 01 -> (-1+1j)/sqrt2,
    11 -> (-1-1j)/sqrt2, 10 -> (+1-1j)/sqrt2.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ShapeError(f"bits must be 1-D, got shape {bits.shape}")
    if bits.size % 2 != 0:
        raise ShapeError(f"bit count must be even, got {bits.size}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    index = 2 * bits[0::2].astype(np.intp) + bits[1::2].astype(np.intp)
    return GRAY_QPSK[index]


def raised_cosine_taps(beta: float, span: int, sps: int) -> np.ndarray:
    """Raised cosine impulse response over ``span`` symbols at ``sps``
    samples per symbol, normalized to a unit center tap.

    h(t) = sinc(t/Ts) * cos(pi*beta*t/Ts) / (1 - (2*beta*t/Ts)^2), with the
    removable singularity at t = Ts/(2*beta) evaluated by its limit
    (pi/4) * sinc(1/(2*beta)).
    """
    _check_pulse(beta, span, sps)
    half = span * sps // 2
    t = np.arange(-half, half + 1) / sps  # in symbol periods
    denom = 1.0 - (2.0 * beta * t) ** 2
    singular = np.isclose(denom, 0.0, atol=1e-12)
    safe = np.where(singular, 1.0, denom)
    taps = np.sinc(t) * np.cos(np.pi * beta * t) / safe
    taps[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta))
    return taps / taps[half]


def _shape_symbols(symbols: np.ndarray, wave: WaveformSpec) -> np.ndarray:
    """Upsample and pulse-shape symbols into a complex sample sequence."""
    taps = raised_cosine_taps(wave.rolloff, wave.filter_span, wave.samples_per_symbol)
    upsampled = np.zeros(symbols.size * wave.samples_per_symbol, dtype=np.complex128)
    upsampled[:: wave.samples_per_symbol] = symbols
    # Full convolution trimmed by the group delay == "same" alignment.
    delay = (taps.size - 1) // 2
    shaped = np.convolve(upsampled, taps, mode="full")
    return shaped[delay : delay + wave.sequence_length]


def _to_rows(signal: np.ndarray) -> np.ndarray:
    return np.vstack([signal.real, signal.imag])


def _to_complex(rows: np.ndarray) -> np.ndarray:
    return rows[0] + 1j * rows[1]


def _propagate(spec: ChannelSpec, tx: np.ndarray, seed: int) -> np.ndarray:
    """Channel response before noise, as a complex sample sequence."""
    signal = _to_complex(tx)
    if isinstance(spec, Awgn):
        return signal
    total = signal.size
    out = np.zeros(total, dtype=np.complex128)
    phase_rng = seeding.substream(seed, seeding.STREAM_PHASES)
    phases = phase_rng.uniform(0.0, 2.0 * np.pi, size=len(spec.taps))
    t = np.arange(total)
    for tap, phi in zip(spec.taps, phases):
        delayed = np.zeros(total, dtype=np.complex128)
        if tap.delay < total:
            delayed[tap.delay :] = signal[: total - tap.delay]
        if spec.disturbance > 0.0:
            gain = tap.gain * (
                1.0
                + spec.disturbance
                * np.sin(2.0 * np.pi * t / spec.disturbance_period + phi)
            )
        else:
            gain = tap.gain
        out += gain * delayed
    return out


def _add_noise(clean: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add complex AWGN sized against the power of ``clean``."""
    if np.isinf(snr_db) and snr_db > 0:
        return clean
    power = float(np.mean(np.abs(clean) ** 2))
    sigma2 = power * 10.0 ** (-snr_db / 10.0) / 2.0  # per component
    rng = seeding.substream(seed, seeding.STREAM_NOISE)
    noise = rng.normal(0.0, np.sqrt(sigma2), size=(2, clean.size))
    return clean + noise[0] + 1j * noise[1]


def apply_channel(spec: ChannelSpec, tx, seed: int) -> np.ndarray:
    """Push an IQ x T sequence through the channel; returns IQ x T."""
    tx = as_matrix(tx, "transmitted sequence")
    if tx.shape[0] != IQ:
        raise ShapeError(f"transmitted sequence must be {IQ} x T, got shape {tx.shape}")
    clean = _propagate(spec, tx, seed)
    return _to_rows(_add_noise(clean, spec.snr_db, seed))


def generate_sequence(
    wave: WaveformSpec, chan: ChannelSpec, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (tx, clean, rx) triple from a dedicated seed substream.

    ``clean`` is the complex channel output before noise, which ``rx``
    (2 x T) adds the AWGN to; it is returned so the SNR can be measured.
    """
    bit_rng = seeding.substream(seed, seeding.STREAM_BITS)
    bits = bit_rng.integers(0, 2, size=wave.bits_per_sequence)
    symbols = qpsk_modulate(bits)
    tx = _to_rows(_shape_symbols(symbols, wave))
    channel_seed = seeding.child_seed(seed, seeding.STREAM_CHANNEL)
    clean = _propagate(chan, tx, channel_seed)
    rx = _to_rows(_add_noise(clean, chan.snr_db, channel_seed))
    return tx, clean, rx


def generate_dataset(
    wave: WaveformSpec, chan: ChannelSpec, num_sequences: int
) -> SequenceDataset:
    """Generate a dataset of (transmitted, received) sequence pairs.

    Fully determined by the two specs and ``wave.seed``; sequence ``i``
    draws from the substream (seed, sequence-stream, i) only.
    """
    if num_sequences < 0:
        raise ConfigError(f"num_sequences must be >= 0, got {num_sequences}")
    t = wave.sequence_length
    inputs = np.empty((num_sequences, IQ, t))
    targets = np.empty((num_sequences, IQ, t))
    clean_power = 0.0
    noise_power = 0.0
    for i in range(num_sequences):
        seq_seed = seeding.child_seed(wave.seed, seeding.STREAM_SEQUENCE, i)
        tx, clean, rx = generate_sequence(wave, chan, seq_seed)
        inputs[i] = tx
        targets[i] = rx
        clean_power += float(np.sum(np.abs(clean) ** 2))
        noise_power += float(np.sum((rx - _to_rows(clean)) ** 2))
    if num_sequences > 0 and noise_power > 0.0:
        empirical_snr_db = 10.0 * np.log10(clean_power / noise_power)
    else:
        empirical_snr_db = np.inf
    meta = {
        "waveform": asdict(wave),
        "channel": channel_meta(chan),
        "seed": wave.seed,
        "num_sequences": num_sequences,
        "empirical_snr_db": float(empirical_snr_db),
    }
    # this function's own arrays, kept by the dataset once read-only
    inputs.flags.writeable = targets.flags.writeable = False
    return SequenceDataset(inputs=inputs, targets=targets, meta=meta)


def channel_meta(chan: ChannelSpec) -> dict:
    if isinstance(chan, Awgn):
        return {"kind": "awgn", "snr_db": chan.snr_db}
    return {
        "kind": "multipath",
        "taps": [[t.delay, t.gain_i, t.gain_q] for t in chan.taps],
        "disturbance": chan.disturbance,
        "disturbance_period": chan.disturbance_period,
        "snr_db": chan.snr_db,
    }
