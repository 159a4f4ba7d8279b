"""Empirical side of the project: density scans against the asymptotic
limits, a seeded +/-1 coin-walk simulator with normal-approximation
checks, randomness tests on Moebius sign sequences, and Mertens-walk
scaling with the systematic shift series n * m^2 alongside.

Everything here is deterministic given its arguments: walks and
synthetic coins draw from counter-based per-trial streams (see
mobiuslab.rng), and range scans reduce integer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from mobiuslab import rng
from mobiuslab.probability import density_limits, harmonic_series, shift_floats
from mobiuslab.sieve import MoebiusTable, _charge

MIN_TEST_LENGTH = 100
# Words per block of coin-walk trials, and per block of a synthetic sequence,
# are capped at this many bytes (and at 4096 trials), so that a block's words,
# mix64's scratch and the popcounts or counters stay in a 4 MiB L2 cache. On a
# 2-core x86 VM, medians of 25 interleaved rounds of the mean of three walks
# of ~1e8 steps (19893 x 5102, 1e4 x 1e4, 5000 x 20000) / a 713,892-entry
# sequence: 64 KiB 19.1 / 8.9 ms, 128 KiB 14.3 / 6.6, 256 KiB 11.8 / 5.4,
# 512 KiB 10.8 / 5.1, 1 MiB 12.1 / 6.0, 2 MiB 16.4 / 10.4.
_COIN_BLOCK_BYTES = 512 << 10
# A synthetic sequence is its int8 signs, then in mustats also the randomness
# tests' two 1-byte temporaries, as for mu signs; while it is drawn, a block's
# words, mix64's scratch and the counters take 8 bytes a word each, and the
# key's arrays and the array objects ~2.4 KB (traced), charged as 4 KiB.
_COIN_SEQUENCE_BYTES_PER_ENTRY = 3
_COIN_SEQUENCE_BYTES_PER_WORD = 24
# coin_walk_simulate holds the int64 terminals, np.std's float64 deviations and
# numpy's 64 KiB reduction buffer: 16.07 bytes per trial traced at 1e6 trials.
_WALK_SUMMARY_BYTES_PER_TRIAL = 17
# Per entry of a parity view: the nonzero mask and the int8 copy, then the copy
# and the randomness tests' two 1-byte temporaries (an abs and a comparison).
_SIGN_SEQUENCE_BYTES_PER_ENTRY = 3
# Up to x = PREFIX_FLOOR, class_counts reads the whole table [1, x]; above it, a prefix of
# PREFIX_SCALE icbrt(x)^2 entries (see prefix_limit). The scan costs ~0.3 ns an entry and the
# word marks ~0.55 (2-core x86 VM), but the recursion has a fixed cost per checkpoint, so the
# scan wins up to x ~ 5e6-1e7. walk / density odd at 1e8 take 9.7 / 7.9 ms at scale 16,
# 9.7 / 8.0 at 8, 10.2 / 8.8 at 6 and 11.8 / 10.7 at 4 (in-process medians of 9).
PREFIX_FLOOR = 1 << 24
PREFIX_SCALE = 8
# class_counts' arrays over the t <= isqrt(x) + 1 (t, mu, M and one
# checkpoint's M(x // m)), and the lookups', one quotient's or Q's temporaries,
# above the table and its word marks: at most this many bytes per isqrt(x)
# (~55 traced at 1e7).
_RECURSION_BYTES_PER_ROOT = 64
# The grid's second point from 1000: the fit of alpha needs two checkpoints.
MIN_WALK_LIMIT = 1333


@dataclass(frozen=True)
class FrequencyReport:
    lower: int
    upper: int
    parity: str  # all | odd | even
    count_minus: int
    count_plus: int
    count_zero: int
    freq_minus: float
    freq_plus: float
    freq_zero: float
    freq_squarefree: float
    limit_value: float  # asymptotic squarefree density for the parity class

    @property
    def total(self) -> int:
        return self.count_minus + self.count_plus + self.count_zero


@dataclass(frozen=True)
class WalkSummary:
    steps: int
    trials: int
    seed: int
    c: float
    epsilon: float
    fraction_within_c_sqrt: float
    fraction_within_power: float
    theoretical_within_c: float  # the de Moivre-Laplace limit of fraction_within_c_sqrt
    mean_terminal: float
    std_terminal: float


@dataclass(frozen=True)
class TestReport:
    test: str
    sequence: str
    statistic: float
    p_value: float
    z_score: float | None = None
    lag: int | None = None


@dataclass(frozen=True, eq=False)
class MertensWalkStats:
    limit: int
    checkpoints: np.ndarray  # ascending n values
    m_values: np.ndarray  # M(n) at checkpoints
    ratios: np.ndarray  # |M(n)| / sqrt(n)
    shift_terms: np.ndarray  # float(n * m_{isqrt(n)}^2)
    running_max: np.ndarray  # running max of |M| over the checkpoints
    alpha: float  # log-log slope of running_max vs n
    fit_residual: float  # rms residual of the fit


# Each parity class as (step, residue): the n with n = residue (mod step).
_CLASSES = {"all": (1, 0), "odd": (2, 1), "even": (2, 0)}
# Words a span is masked in at a time: a 512 KiB buffer.
_SPAN_CHUNK_WORDS = 1 << 16


def _members(a: int, b: int, parity: str) -> range:
    """The integers of a parity class in [a, b)."""
    try:
        step, residue = _CLASSES[parity]
    except KeyError:
        raise ValueError(f"parity must be all, odd, or even, not {parity!r}") from None
    return range(a + (residue - a) % step, b, step)


def _class_mask(parity: str, byte: int) -> np.uint64:
    """The word with `byte` in the bytes of the class's n = 0..7 (byte k of a
    word holds n = k mod 8) and 0 elsewhere."""
    mask = np.zeros(8, dtype=np.uint8)
    mask[_members(0, 8, parity)] = byte
    return mask.view(np.uint64)[0]


# Word r has 0xFF in its bytes 0..r (byte k of a word holds n = k mod 8) and 0 elsewhere.
_WORD_HEADS = np.tril(np.full((8, 8), 0xFF, dtype=np.uint8)).view(np.uint64)[:, 0]


def _heads(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table values read as uint64 words, byte k of word i holding entry
    8i + k: the whole words, a view, and for each n of the int64 array points
    word n >> 3 masked to its bytes 0..n mod 8 by _WORD_HEADS, where the entries
    after the whole words are one word, zero padded. points is left as n >> 3."""
    whole = values.size // 8
    tail = np.zeros(8, dtype=np.int8)
    tail[: values.size - 8 * whole] = values[8 * whole :]
    words = values[: 8 * whole].view(np.uint64)
    heads = np.full(points.size, tail.view(np.uint64)[0])
    inside = points < 8 * whole
    heads[inside] = words[points[inside] >> 3]
    heads &= _WORD_HEADS[points & 7]
    points >>= 3
    return words, heads


def span_counts(edges, parity: str, table: MoebiusTable) -> np.ndarray:
    """Row i is (minus, plus, total) over the parity class in [edges[i], edges[i+1]):
    how many members have mu = -1, mu = +1, and how many there are.

    Entries are the bytes 0x00, 0x01 and 0xFF, so a byte's low bit marks a
    nonzero entry and its top bit a -1. In the table's uint64 words (_heads),
    whose byte k holds n = k mod 8, a word masked to the class's top bits has a
    bit for each -1 member, and masked to its low bits one for each nonzero
    member. With C(n) the (minus, nonzero, total) members up to n, row i is
    C(edges[i+1] - 1) - C(edges[i] - 1): the whole words from the word of
    edges[i] - 1 up to that of edges[i+1] - 1, plus the head of the second
    word less that of the first. One sweep masks the whole words, each once
    for all spans, through one reused buffer of at most _SPAN_CHUNK_WORDS
    words, and np.count_nonzero counts their nonzero bytes; np.bitwise_count
    counts the heads' bits.
    """
    low, top = _class_mask(parity, 0x01), _class_mask(parity, 0x80)
    for a, b in zip(edges, edges[1:]):
        if not 1 <= a < b <= table.limit + 1:
            raise ValueError(f"need 1 <= a < b <= {table.limit + 1}, got [{a}, {b})")
    points = np.array(edges, dtype=np.int64) - 1
    words, heads = _heads(points, table.values)
    heads = np.bitwise_count(heads[:, None] & np.array([top, low]))
    totals = [len(_members(1, n, parity)) for n in edges]
    rows = np.diff(np.column_stack((heads, totals)).astype(np.int64), axis=0)
    buffer = np.empty(min(int(np.diff(points).max(initial=1)), _SPAN_CHUNK_WORDS), dtype=np.uint64)
    ends = points.tolist()
    sweep = []
    for lo, hi in zip(ends, ends[1:]):
        counts = [0, 0]
        for start in range(lo, hi, buffer.size):
            chunk = words[start : min(start + buffer.size, hi)]
            for k, mask in enumerate((top, low)):
                masked = np.bitwise_and(chunk, mask, out=buffer[: chunk.size])
                counts[k] += np.count_nonzero(masked.view(np.uint8))
        sweep.append(counts)
    rows[:, :2] += np.array(sweep, dtype=np.int64).reshape(-1, 2)
    rows[:, 1] -= rows[:, 0]
    return rows


def _icbrt(x: int) -> int:
    """floor(x^(1/3)) for x >= 0, in integers only, so cache names do not
    depend on libm and no x is too large for a float.

    Newton's step c -> (2c + x // c^2) // 3 from 2^ceil(bits / 3), which is
    above the root, stays at or above floor(x^(1/3)) and falls while c^3 > x,
    so the first step that does not fall stops at the root."""
    if x == 0:
        return 0
    c = 1 << -(-x.bit_length() // 3)
    while (d := (2 * c + x // (c * c)) // 3) < c:
        c = d
    return c


def prefix_limit(x: int) -> int:
    """The table prefix class_counts reads for checkpoints up to x: all of
    [1, x] up to PREFIX_FLOOR, else max(isqrt(x) + 1, PREFIX_SCALE icbrt(x)^2)
    entries, at most x. Both sizes are read at each call."""
    if x <= PREFIX_FLOOR:
        return x
    return min(x, max(math.isqrt(x) + 1, PREFIX_SCALE * _icbrt(x) ** 2))


def _class_counts_bytes(u: int, x: int) -> int:
    """Peak bytes of class_counts up to x above a table of u entries: the
    table, its int32 word marks, the two uint8 counts a word of their pass's
    chunk, and the recursion's arrays."""
    marks = 4 * (u // 8 + 1)
    return u + 1 + marks + 2 * _SPAN_CHUNK_WORDS + _RECURSION_BYTES_PER_ROOT * math.isqrt(x)


def class_counts_bytes(x: int) -> int:
    """Peak bytes of class_counts up to x on a table of prefix_limit(x): the
    table, and with a prefix shorter than x the marks M(8i - 1), the buffers
    of their pass and the recursion's arrays."""
    u = prefix_limit(x)
    if u >= x:
        return u + 1
    return _class_counts_bytes(u, x)


def _word_sums(counts: np.ndarray) -> np.ndarray:
    """The sums of mu over words, as int8, from their uint8 popcounts, in place.

    Entries are the bytes 0x00, 0x01 and 0xFF, so a word's popcount is
    plus + 8 minus. Byte 0 of a word holds mu(8i) = 0, as 4 | 8i (and
    values[0] = 0), so plus <= 7: plus is the popcount mod 8 and minus the
    popcount // 8, also for a word masked to its bytes 0..r."""
    minus = counts >> 3
    counts &= 7
    counts -= minus
    return counts.view(np.int8)


def _word_marks(values: np.ndarray) -> np.ndarray:
    """marks[i] = M(8i - 1) for i = 0..u // 8, as int32, for the table
    values of mu(0..u): one pass over the whole words before 8 (u // 8),
    whose popcounts go through a buffer of at most _SPAN_CHUNK_WORDS
    entries, reused, and whose running sum is taken in place."""
    count = (values.size - 1) // 8
    words = values[: 8 * count].view(np.uint64)
    marks = np.zeros(count + 1, dtype=np.int32)
    buffer = np.empty(min(max(count, 1), _SPAN_CHUNK_WORDS), dtype=np.uint8)
    for start in range(0, count, buffer.size):
        chunk = words[start : start + buffer.size]
        edges = marks[start + 1 : start + chunk.size + 1]
        edges[:] = _word_sums(np.bitwise_count(chunk, out=buffer[: chunk.size]))
        edges[0] += marks[start]
        np.cumsum(edges, out=edges)
    return marks


def _fill_mertens(points: np.ndarray, values: np.ndarray, marks: np.ndarray) -> None:
    """Write M(n) over each n of the int64 array points, n in [0, u], from the
    table values of mu(0..u) and their marks (_word_marks): the mark of n's
    word plus the sum of its bytes 0..n mod 8, the head span_counts reads (_heads)."""
    sums = _word_sums(np.bitwise_count(_heads(points, values)[1]))
    points[:] = marks[points]
    points += sums


def _mertens_quotients(
    x: int, values: np.ndarray, marks: np.ndarray, t: np.ndarray, mu: np.ndarray, head: np.ndarray
) -> np.ndarray:
    """big[m] = M(x // m) for m = 1..isqrt(x); big[0] is unused. values holds
    mu(0..u), u > isqrt(x), and marks its word marks (_word_marks); t is
    1, 2, ..., mu the int64 mu(0..) and head M(0..), each at least
    isqrt(x) + 1 long.

    big[m] for m above top = x // (u + 1) is looked up, as x // m <= u.
    Below it, each v = x // k has sum_{j=1}^{v} M(v // j) = 1. With
    q = isqrt(v), the j above v // (q + 1) are grouped by t = v // j <= q,
    which holds for v // t - v // (t + 1) of them, and that sum is taken in
    Abel form:
    M(v) = 1 - sum_{j=2}^{v // (q+1)} M(v // j) - sum_{t=1}^{q} mu(t) (v // t)
           + M(q) (v // (q + 1)).
    v // j = x // (kj) is big[kj] while kj <= isqrt(x), so k runs down;
    past that it is at most isqrt(x) and read from head, at a slice of the
    quotients v // t, as last <= q (Deleglise & Rivat, Exp. Math. 1996,
    elementary form).
    """
    s = math.isqrt(x)
    top = x // values.size
    big = np.empty(s + 1, dtype=np.int64)
    np.floor_divide(x, t[top:s], out=big[top + 1 :])
    _fill_mertens(big[top + 1 :], values, marks)
    for k in range(top, 0, -1):
        v = x // k
        q = math.isqrt(v)
        last = v // (q + 1)
        near = min(s // k, last)  # the j in [2, near] read from big
        quotients = v // t[: q + 1]
        big[k] = (
            1
            - int(big[2 * k : near * k + 1 : k].sum())
            - int(head[quotients[near:last]].sum())
            - int(np.dot(mu[1 : q + 1], quotients[:q]))
            + int(head[q]) * int(quotients[q])
        )
    return big


def _class_row(
    x: int,
    parity: str,
    values: np.ndarray,
    marks: np.ndarray,
    t: np.ndarray,
    mu: np.ndarray,
    head: np.ndarray,
) -> tuple[int, int, int]:
    """(minus, plus, total) over the parity class in [1, x], for x above the
    table values of mu(0..u), u > isqrt(x); the arrays are as in
    _mertens_quotients."""
    total = len(_members(1, x + 1, parity))
    big = _mertens_quotients(x, values, marks, t, mu, head)
    s = big.size - 1
    # mu(2m) = -mu(m) for odd m and 0 for even m, so M_odd(x) = M(x) + M_odd(x // 2);
    # x >> i is at most isqrt(x) once 2^i is above it
    m_odd = sum(int(big[1 << i] if 1 << i <= s else head[x >> i]) for i in range(x.bit_length()))
    m_all = int(big[1])
    del big  # freed before Q's arrays, within the charge per root
    floors = t[:s] * t[:s]
    np.floor_divide(x, floors, out=floors)
    signs = mu[1 : s + 1]
    q_all = int(np.dot(signs, floors))
    # the odd n <= x with d^2 | n, d odd, are d^2 m for the ceil(floor(x / d^2) / 2) odd m
    q_odd = int(np.dot(signs[::2], (floors[::2] + 1) // 2))
    q, m = {
        "all": (q_all, m_all),
        "odd": (q_odd, m_odd),
        "even": (q_all - q_odd, m_all - m_odd),
    }[parity]
    return (q - m) // 2, (q + m) // 2, total


def class_counts(xs, parity: str, table: MoebiusTable) -> np.ndarray:
    """Row i is (minus, plus, total) over the parity class in [1, xs[i]], for
    ascending xs: the cumulative counts of mu = -1, mu = +1 and members.

    Checkpoints up to table.limit are running sums of span_counts. Above it
    they need a table longer than isqrt(x) + 1, and come from M and Q: M by
    the recursion of _mertens_quotients, which looks M up in the table from
    its int32 marks M(8i - 1) (_word_marks), Q(x) = sum_{d <= sqrt x}
    mu(d) floor(x / d^2), and their odd parts; the even class is the rest,
    minus = (Q - M) / 2 and plus = (Q + M) / 2. The marks, the recursion's
    arrays and the table are charged to the memory budget before the marks
    are built.
    """
    below = [x for x in xs if x <= table.limit]
    above = xs[len(below) :]
    rows = np.cumsum(span_counts([1] + [x + 1 for x in below], parity, table), axis=0)
    if not above:
        return rows
    s = math.isqrt(above[-1])
    if s >= table.limit:
        raise ValueError(f"table covers {table.limit}, need {s + 1} for {above[-1]}")
    _charge(
        _class_counts_bytes(table.limit, above[-1]),
        f"class counts to {above[-1]} above a table of limit {table.limit}",
    )
    values = table.values
    marks = _word_marks(values)
    t = np.arange(1, s + 2, dtype=np.int64)
    mu = values[: s + 1].astype(np.int64)
    head = np.cumsum(mu, dtype=np.int32)
    high = [_class_row(x, parity, values, marks, t, mu, head) for x in above]
    return np.vstack([rows, np.array(high, dtype=np.int64)])


def empirical_frequencies(
    a: int, b: int, parity: str, table: MoebiusTable
) -> FrequencyReport:
    """Exact outcome counts for mu over the integers of a parity class in [a, b)."""
    minus, plus, total = span_counts([a, b], parity, table)[0].tolist()
    if total == 0:
        raise ValueError(f"range [{a}, {b}) holds no {parity} integers")
    zero = total - minus - plus
    return FrequencyReport(
        lower=a,
        upper=b,
        parity=parity,
        count_minus=minus,
        count_plus=plus,
        count_zero=zero,
        freq_minus=minus / total,
        freq_plus=plus / total,
        freq_zero=zero / total,
        freq_squarefree=(minus + plus) / total,
        limit_value=density_limits()[parity].value,
    )


def sign_sequence_squarefree(
    a: int, b: int, parity: str, table: MoebiusTable
) -> np.ndarray:
    """mu over the squarefree integers of a parity class in [a, b), zeros dropped.

    The table and the sequence's copies, here and in the randomness tests, are
    charged to the memory budget."""
    if not 1 <= a < b <= table.limit + 1:
        raise ValueError(f"need 1 <= a < b <= {table.limit + 1}, got [{a}, {b})")
    members = _members(a, b, parity)
    _charge_sign_sequence(a, b, parity, table.limit)
    sub = table.values[members.start : b : members.step]
    return sub[sub != 0]


def _charge_sign_sequence(a: int, b: int, parity: str, limit: int) -> None:
    """Charge a table of mu(1..limit) and the copies of a sign sequence over
    the parity class in [a, b), before either exists."""
    span = _members(a, b, parity)
    members = -(-(span.stop - span.start) // span.step)  # len() overflows past 2^63
    _charge(
        limit + 1 + _SIGN_SEQUENCE_BYTES_PER_ENTRY * members,
        f"a sign sequence over {members} {parity} integers",
    )


def coin_sign_sequence(
    length: int, seed: int, *, p_plus: float = 0.5, stream: int = 0
) -> np.ndarray:
    """Synthetic +/-1 coin sequence; +1 with probability p_plus.

    Entry k is +1 when u = (w >> 11) 2^-53, the top 53 bits of the stream's
    word k + 1 as a float in [0, 1), is below p_plus. The test is made in
    integers: w >> 11 is an integer and p_plus 2^53 is exact, so u < p_plus
    holds exactly when w >> 11 < ceil(p_plus 2^53), that is when
    w < ceil(p_plus 2^53) 2^11, which is at most 2^64 - 2^11 for p_plus < 1.
    The words are drawn in blocks of at most _COIN_BLOCK_BYTES, through one
    reused pair of buffers, and each block's signs are written straight
    into the int8 sequence. The sequence, the randomness tests' temporaries
    on it and the block buffers are charged to the memory budget."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 0.0 < p_plus < 1.0:
        raise ValueError("p_plus must be in (0, 1)")
    count = max(1, min(_COIN_BLOCK_BYTES // 8, length))
    _charge(
        _COIN_SEQUENCE_BYTES_PER_ENTRY * length + _COIN_SEQUENCE_BYTES_PER_WORD * count + 4096,
        f"a coin sequence of length {length}",
    )
    threshold = np.uint64(math.ceil(math.ldexp(p_plus, 53)) << 11)
    seq = np.empty(length, dtype=np.int8)
    words = np.empty((1, count), dtype=np.uint64)
    scratch = np.empty_like(words)
    for lo in range(0, length, count):
        size = min(count, length - lo)
        block = rng.word_block(
            seed, [stream], size, start=lo, out=words[:, :size], scratch=scratch[:, :size]
        )
        signs = seq[lo : lo + size]
        np.less(block[0], threshold, out=signs.view(np.bool_))
        signs *= 2  # not <<= 1, which measured ~10x slower on int8
        signs -= 1
    return seq


def coin_walk_terminals(steps: int, trials: int, seed: int) -> np.ndarray:
    """Terminal sums S of `trials` independent fair +/-1 walks of `steps` steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    nwords = (steps + 63) // 64
    rows = max(1, min(4096, _COIN_BLOCK_BYTES // (8 * nwords), trials))
    # The terminals; per row of a block, its words, mix64's scratch and their
    # 1-byte popcounts (all three reused), and six int64s for its stream, key and
    # sums; the counters; numpy's buffers, 128 KiB for word_block's broadcast add
    # of keys and counters (traced), and later 64 KiB for the popcount sums.
    _charge(
        8 * trials + (17 * nwords + 48) * rows + 8 * nwords + (1 << 17),
        f"a run of {trials} walks of {steps} steps",
    )
    rem = steps % 64
    mask = np.uint64((1 << rem) - 1) if rem else np.uint64(0xFFFFFFFFFFFFFFFF)
    out = np.empty(trials, dtype=np.int64)
    words = np.empty((rows, nwords), dtype=np.uint64)
    scratch = np.empty_like(words)
    popcounts = np.empty((rows, nwords), dtype=np.uint8)
    for lo in range(0, trials, rows):
        hi = min(lo + rows, trials)
        streams = np.arange(lo, hi, dtype=np.uint64)
        block = rng.word_block(seed, streams, nwords, out=words[: hi - lo], scratch=scratch[: hi - lo])
        block[:, -1] &= mask
        ones = np.bitwise_count(block, out=popcounts[: hi - lo])
        out[lo:hi] = 2 * ones.sum(axis=1, dtype=np.int64) - steps
    return out


def coin_walk_simulate(
    steps: int, trials: int, seed: int, c: float, epsilon: float
) -> WalkSummary:
    """Simulate fair-coin walks and report the |S| concentration fractions.

    fraction_within_c_sqrt counts |S| <= c * sqrt(steps); its limit,
    normal_cdf(c) - normal_cdf(-c), is theoretical_within_c.
    fraction_within_power counts |S| < steps^(1/2 + epsilon), whose limit
    is 1. c and epsilon must be positive and finite. The terminals and
    np.std's deviations are charged to the memory budget, as are the walks.
    """
    for name, value in (("c", c), ("epsilon", epsilon)):
        if value <= 0:
            raise ValueError(f"{name} must be > 0")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    _charge(_WALK_SUMMARY_BYTES_PER_TRIAL * trials, f"a summary of {trials} walks")
    terminals = coin_walk_terminals(steps, trials, seed)
    mean, std = float(np.mean(terminals)), float(np.std(terminals))
    absolutes = np.abs(terminals, out=terminals)
    within_c = float(np.mean(absolutes <= c * math.sqrt(steps)))
    # Capped at 2 so that a huge epsilon cannot overflow the float power: from
    # epsilon = 1.5 on, every |S| <= steps is below both bounds or neither.
    within_power = float(np.mean(absolutes < steps ** min(0.5 + epsilon, 2.0)))
    return WalkSummary(
        steps=steps,
        trials=trials,
        seed=seed,
        c=c,
        epsilon=epsilon,
        fraction_within_c_sqrt=within_c,
        fraction_within_power=within_power,
        theoretical_within_c=normal_cdf(c) - normal_cdf(-c),
        mean_terminal=mean,
        std_terminal=std,
    )


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def shift_term(n: int, mu_prefix: MoebiusTable) -> Fraction:
    """Systematic Mertens drift estimate n * m_K^2 at K = floor(sqrt(n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * harmonic_series(math.isqrt(n), mu_prefix).m ** 2


def checkpoint_grid(lo: int, hi: int) -> list[int]:
    """The distinct values floor(10^(k/8)), k = 0, 1, 2, ..., that lie in [lo, hi],
    in integers: floor(sqrt(floor(t))) = floor(sqrt(t)), so three isqrt give
    the floor of the eighth root, with no float pow."""
    points = []
    k = 0
    while (n := math.isqrt(math.isqrt(math.isqrt(10**k)))) <= hi:
        if n >= lo and (not points or n != points[-1]):
            points.append(n)
        k += 1
    return points


def mertens_walk_stats(limit: int, mu_prefix: MoebiusTable) -> MertensWalkStats:
    """Checkpointed |M| scaling plus the shift series, each term the correctly
    rounded float of the exact n * m_K^2, from probability.shift_floats.

    M is plus - minus of class_counts, on a table of at least
    prefix_limit(limit) entries: up to PREFIX_FLOOR that is [1, limit] and no
    prefix array is built; above it, the int32 marks M(8i - 1) of that
    table, half a byte an entry.
    """
    if limit < MIN_WALK_LIMIT:
        raise ValueError(f"limit must be >= {MIN_WALK_LIMIT}, the second checkpoint, to fit alpha")
    need = prefix_limit(limit)
    if mu_prefix.limit < need:
        raise ValueError(f"table covers {mu_prefix.limit}, need {need}")
    points = checkpoint_grid(1000, limit)
    checkpoints = np.array(points, dtype=np.int64)
    counts = class_counts(points, "all", mu_prefix)
    m_values = counts[:, 1] - counts[:, 0]
    ratios = np.abs(m_values) / np.sqrt(checkpoints.astype(np.float64))
    floats = shift_floats(points, mu_prefix)
    shifts = np.array([floats[n] for n in points], dtype=np.float64)
    running_max = np.maximum.accumulate(np.abs(m_values))
    log_n = np.log(checkpoints.astype(np.float64))
    log_rm = np.log(np.maximum(running_max, 1).astype(np.float64))
    alpha, intercept = np.polyfit(log_n, log_rm, 1)
    residual = float(np.sqrt(np.mean((log_rm - (alpha * log_n + intercept)) ** 2)))
    return MertensWalkStats(
        limit=limit,
        checkpoints=checkpoints,
        m_values=m_values,
        ratios=ratios,
        shift_terms=shifts,
        running_max=running_max,
        alpha=float(alpha),
        fit_residual=residual,
    )


def _as_sign_array(seq, test: str) -> np.ndarray:
    """seq as a checked +/-1 array of at least MIN_TEST_LENGTH entries for a
    test: an int8 array as it is, with no copy (the tests count and compare
    its entries, and sum it in int64), any other input converted to int64."""
    if isinstance(seq, np.ndarray) and seq.dtype == np.int8:
        arr = seq
    else:
        arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if arr.size and not np.all(np.abs(arr) == 1):
        raise ValueError("sequence entries must be +1 or -1")
    if arr.size < MIN_TEST_LENGTH:
        raise ValueError(
            f"{test} needs at least {MIN_TEST_LENGTH} entries, got {arr.size}"
        )
    return arr


def chi_square_balance(seq, sequence: str = "sequence") -> TestReport:
    """Chi-square of the +/-1 counts against a fair 50/50 split (1 dof)."""
    arr = _as_sign_array(seq, "chi_square_balance")
    n = arr.size
    plus = int(np.count_nonzero(arr == 1))
    minus = n - plus
    statistic = (plus - minus) ** 2 / n
    p_value = math.erfc(math.sqrt(statistic / 2.0))
    return TestReport(
        test="chi_square_balance",
        sequence=sequence,
        statistic=float(statistic),
        p_value=p_value,
    )


def runs_test(seq, sequence: str = "sequence") -> TestReport:
    """Wald-Wolfowitz runs test on the signs, z-scored against the
    run-count mean and variance conditional on the observed counts. A
    sequence of one sign has no z-score (None) and p-value 0."""
    arr = _as_sign_array(seq, "runs_test")
    n = arr.size
    plus = int(np.count_nonzero(arr == 1))
    minus = n - plus
    runs = 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
    if plus == 0 or minus == 0:
        return TestReport(
            test="runs_test",
            sequence=sequence,
            statistic=float(runs),
            p_value=0.0,
        )
    mean = 1 + 2 * plus * minus / n
    var = 2 * plus * minus * (2 * plus * minus - n) / (n * n * (n - 1))
    z = (runs - mean) / math.sqrt(var)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return TestReport(
        test="runs_test",
        sequence=sequence,
        statistic=float(runs),
        p_value=p_value,
        z_score=z,
    )


def lag_autocorrelation(seq, lag: int, sequence: str = "sequence") -> TestReport:
    """Sample autocorrelation at the given lag, z-scored as sqrt(n) * r."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    arr = _as_sign_array(seq, "lag_autocorrelation")
    n = arr.size
    if lag >= n:
        raise ValueError(f"lag {lag} must be below the sequence length {n}")
    # With m = total / n, r is sum (x_i - m)(x_{i+lag} - m) / sum (x_i - m)^2.
    # Both sums times n^2 are exact integers of the +/-1 entries, and the one
    # int/int division rounds correctly, so r is the same on every BLAS and CPU.
    total = int(arr.sum(dtype=np.int64))
    denom = n * (n * n - total * total)
    if denom == 0:
        return TestReport(
            test="lag_autocorrelation",
            sequence=sequence,
            statistic=0.0,
            p_value=1.0,
            z_score=0.0,
            lag=lag,
        )
    head = total - int(arr[-lag:].sum(dtype=np.int64))  # sum of arr[:-lag]
    tail = total - int(arr[:lag].sum(dtype=np.int64))  # sum of arr[lag:]
    products = 2 * int(np.count_nonzero(arr[:-lag] == arr[lag:])) - (n - lag)
    r = (products * n * n - total * n * (head + tail) + (n - lag) * total * total) / denom
    z = r * math.sqrt(n)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return TestReport(
        test="lag_autocorrelation",
        sequence=sequence,
        statistic=r,
        p_value=p_value,
        z_score=z,
        lag=lag,
    )
