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


def mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place: returns z, mixed.

    Each shift goes to one scratch array of z's shape, new unless given, so
    beside z it allocates nothing else."""
    if scratch is None:
        scratch = np.empty_like(z)
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=scratch)
        z ^= scratch
        z *= _U64(factor)
    np.right_shift(z, _U64(31), out=scratch)
    z ^= scratch
    return z


def _keys(seed: int, streams) -> np.ndarray:
    """The stream keys of an array of stream indices, in one array pass."""
    streams = np.asarray(streams, dtype=np.uint64)
    return mix64(_U64(seed % (1 << 64)) + streams * _U64(_STREAM_STEP))


def _counters(count: int) -> np.ndarray:
    return np.arange(1, count + 1, dtype=np.uint64) * _U64(_GOLDEN)


def word_block(seed: int, streams, count: int, *, out=None, scratch=None) -> np.ndarray:
    """Matrix of words, one row per stream index; indices lie in [0, 2^64).

    Written into `out` and mixed through `scratch` when they are given, each
    a uint64 array of shape (len(streams), count), so that a caller drawing
    block after block reuses the same two buffers."""
    keys = _keys(seed, streams)
    if out is None:
        out = np.empty((keys.size, count), dtype=np.uint64)
    np.add(keys[:, None], _counters(count)[None, :], out=out)
    return mix64(out, scratch)


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """float64 samples in [0, 1): the top 53 bits of the stream's first count words."""
    top = word_block(seed, [stream], count)[0]
    top >>= _U64(11)
    return top * (1.0 / (1 << 53))
