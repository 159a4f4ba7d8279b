"""Counter-based deterministic random source.

Each (master seed, stream index) pair owns an independent stream whose
k-th 64-bit word is mix64(stream_key + (k + 1) * GOLDEN), where mix64 is
the SplitMix64 output permutation (shift-xor / multiply) and stream_key is
mix64(seed + stream * STREAM_STEP mod 2^64). Words are a pure function of
(seed, stream, k), so any partitioning of the work, by streams or by
counter ranges, reproduces the same values bit for bit. One function,
word_block, makes them.

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
    counters = np.arange(1, count + 1, dtype=np.uint64)
    counters *= _U64(_GOLDEN)
    return counters


def word_block(
    seed: int, streams, count: int, *, start: int = 0, out=None, scratch=None
) -> np.ndarray:
    """Matrix of words k = start + 1 .. start + count, one row per stream
    index; indices lie in [0, 2^64), and start >= 0.

    Written into `out` and mixed through `scratch` when they are given, each
    a uint64 array of shape (len(streams), count), so that a caller drawing
    block after block, of streams or of counters, reuses the same two
    buffers. Counter k + start is stream_key + start * GOLDEN + k * GOLDEN
    mod 2^64, so the offset moves the keys and the counters stay 1..count."""
    keys = _keys(seed, streams)
    keys += _U64(start * _GOLDEN % (1 << 64))
    if out is None:
        out = np.empty((keys.size, count), dtype=np.uint64)
    np.add(keys[:, None], _counters(count)[None, :], out=out)
    return mix64(out, scratch)
