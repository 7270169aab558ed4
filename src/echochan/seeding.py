"""Deterministic RNG substreams.

All randomness in the package flows through PCG64 generators keyed by
``SeedSequence(seed, spawn_key=path)``. A fixed integer path identifies
every consumer, so any part of a run can be regenerated in isolation and
parallel execution cannot change the drawn values.

Derivation tree. ``child(s, p...)`` is ``child_seed(s, p...)``, an
integer seed handed on; ``sub(s, p...)`` is ``substream(s, p...)``, a
generator drawn from; a path element in capitals is ``STREAM_<NAME>``,
and ``.`` is the seed one level up.

master seed (``master_seed``, or ``--seed``)
    sub(master, SPLIT)               train/test split of ``train``
    child(master, SWEEP, d)          split seed of sweep dataset d
        sub(., SPLIT)                its train/test split
    child(master, SWEEP, v, d, r)    reservoir seed of the sweep cell at
                                     value v, dataset d, repeat r
    child(master, TRANSFER)          reservoir seed of ``transfer``
reservoir seed (``ReservoirConfig.seed``; ``train`` uses the master seed)
    child(seed, W_IN | W | W_FB)     seed of that matrix
        sub(.)                       its entries (``init_matrix``)
dataset seed (``WaveformSpec.seed``; ``generate`` uses the master seed)
    child(seed, SEQUENCE, i)         seed of sequence i (``generate_sequence``)
        sub(., BITS)                 its payload bits
        child(., CHANNEL)            its channel seed (``apply_channel``'s)
            sub(., PHASES)           tap modulation phases
            sub(., NOISE)            additive noise
"""

from __future__ import annotations

import numpy as np

STREAM_W_IN = 0
STREAM_W = 1
STREAM_W_FB = 2

STREAM_SEQUENCE = 1
STREAM_BITS = 0
STREAM_CHANNEL = 1

STREAM_PHASES = 0
STREAM_NOISE = 1

STREAM_SPLIT = 3
STREAM_SWEEP = 4
STREAM_TRANSFER = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the substream of ``seed`` addressed by ``path``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def child_seed(seed: int, *path: int) -> int:
    """Derived 64-bit integer seed for handing a substream to another API."""
    state = np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(1, np.uint64)
    return int(state[0])
