"""Counter-based deterministic random source.

Each (master seed, stream index) pair owns an independent stream whose
k-th 64-bit word is mix64(stream_key + (k + 1) * GOLDEN), where mix64 is
the SplitMix64 output permutation (shift-xor / multiply) and stream_key is
mix64(seed + stream * STREAM_STEP mod 2^64). Words are a pure function of
(seed, stream, k), so any partitioning of the work reproduces the same
values bit for bit.

All of it is numpy uint64 arithmetic on arrays, which wraps mod 2^64
silently: the behaviour the generator relies on.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_STEP = 0xD1B54A32D192ED03
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array."""
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _keys(seed: int, streams) -> np.ndarray:
    """The stream keys of an array of stream indices, in one array pass."""
    streams = np.asarray(streams, dtype=np.uint64)
    return mix64(_U64(seed % (1 << 64)) + streams * _U64(_STREAM_STEP))


def _counters(count: int) -> np.ndarray:
    return np.arange(1, count + 1, dtype=np.uint64) * _U64(_GOLDEN)


def words(seed: int, stream: int, count: int) -> np.ndarray:
    """First `count` words of a stream."""
    return mix64(_keys(seed, [stream]) + _counters(count))


def word_block(seed: int, streams, count: int) -> np.ndarray:
    """Matrix of words, one row per stream index; indices lie in [0, 2^64)."""
    return mix64(_keys(seed, streams)[:, None] + _counters(count)[None, :])


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """float64 samples in [0, 1), 53 bits each."""
    return (words(seed, stream, count) >> _U64(11)) * (1.0 / (1 << 53))
