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
from math import isqrt

import numpy as np

from mobiuslab import rng
from mobiuslab.probability import _numerators, density_limits
from mobiuslab.sieve import MoebiusTable, _charge

MIN_TEST_LENGTH = 100
# Words per block of coin-walk trials are capped at this many bytes, and at 4096 trials.
_COIN_BLOCK_BYTES = 2 << 20
# rng.uniforms holds three uint64 arrays as long as a synthetic sequence at its peak.
_COIN_SEQUENCE_BYTES_PER_ENTRY = 24
# coin_walk_simulate holds the int64 terminals, np.std's float64 deviations and
# numpy's 64 KiB reduction buffer: 16.07 bytes per trial traced at 1e6 trials.
_WALK_SUMMARY_BYTES_PER_TRIAL = 17
# Per entry of a parity view: the nonzero mask and the int8 copy, then the copy
# and the randomness tests' two 1-byte temporaries (an abs and a comparison).
_SIGN_SEQUENCE_BYTES_PER_ENTRY = 3


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


def _span(a: int, b: int, parity: str, table: MoebiusTable) -> range:
    """The integers of a parity class in [a, b), a span of the table."""
    if not 1 <= a < b <= table.limit + 1:
        raise ValueError(f"need 1 <= a < b <= {table.limit + 1}, got [{a}, {b})")
    return _members(a, b, parity)


def _class_mask(parity: str, byte: int) -> np.uint64:
    """The word with `byte` in the bytes of the class's n = 0..7 (byte k of a
    word holds n = k mod 8) and 0 elsewhere."""
    mask = np.zeros(8, dtype=np.uint8)
    mask[_members(0, 8, parity)] = byte
    return mask.view(np.uint64)[0]


def span_counts(edges, parity: str, table: MoebiusTable) -> np.ndarray:
    """Row i is (minus, plus, total) over the parity class in [edges[i], edges[i+1]):
    how many members have mu = -1, mu = +1, and how many there are.

    Entries are the bytes 0x00, 0x01 and 0xFF, so a byte's low bit marks a
    nonzero entry and its top bit a -1. The part of a span from one multiple
    of 8 to another is read as uint64 words, whose byte k holds n = k mod 8;
    each word is masked to the class's low bits and then to its top bits, and
    np.count_nonzero counts the nonzero bytes. The masks go through one
    reused buffer of at most _SPAN_CHUNK_WORDS words. The entries before the
    first whole word and after the last, at most 7 at each end, are counted
    on a view.
    """
    low, top = _class_mask(parity, 0x01), _class_mask(parity, 0x80)
    # Every step divides 8, so each word's first member is at this offset in it.
    offset = _members(0, 8, parity).start
    values = table.values
    words = values[: values.size // 8 * 8].view(np.uint64)
    longest = max((b - a for a, b in zip(edges, edges[1:])), default=0)
    buffer = np.empty(min(max(longest // 8, 1), _SPAN_CHUNK_WORDS), dtype=np.uint64)
    masked = buffer.view(np.uint8)
    rows = []
    for a, b in zip(edges, edges[1:]):
        members = _span(a, b, parity, table)
        lo = -(-a // 8)
        hi = max(b // 8, lo)  # words [lo, hi) lie whole in the span
        nonzero = minus = 0
        for start in range(lo, hi, buffer.size):
            chunk = words[start : min(start + buffer.size, hi)]
            size = chunk.size
            np.bitwise_and(chunk, low, out=buffer[:size])
            nonzero += np.count_nonzero(masked[: 8 * size])
            np.bitwise_and(chunk, top, out=buffer[:size])
            minus += np.count_nonzero(masked[: 8 * size])
        for c, d in ((members.start, min(8 * lo, b)), (8 * hi + offset, b)):
            piece = values[c : d : members.step].tolist()
            nonzero += len(piece) - piece.count(0)
            minus += piece.count(-1)
        rows.append((minus, nonzero - minus, len(members)))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


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
    members = _span(a, b, parity, table)
    _charge_sign_sequence(a, b, parity, table.limit)
    sub = table.values[members.start : b : members.step]
    return sub[sub != 0]


def _charge_sign_sequence(a: int, b: int, parity: str, limit: int) -> None:
    """Charge a table of mu(1..limit) and the copies of a sign sequence over
    the parity class in [a, b), before either exists."""
    members = len(_members(a, b, parity))
    _charge(
        limit + 1 + _SIGN_SEQUENCE_BYTES_PER_ENTRY * members,
        f"a sign sequence over {members} {parity} integers",
    )


def coin_sign_sequence(
    length: int, seed: int, *, p_plus: float = 0.5, stream: int = 0
) -> np.ndarray:
    """Synthetic +/-1 coin sequence; +1 with probability p_plus."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 0.0 < p_plus < 1.0:
        raise ValueError("p_plus must be in (0, 1)")
    _charge(_COIN_SEQUENCE_BYTES_PER_ENTRY * length, f"a coin sequence of length {length}")
    u = rng.uniforms(seed, stream, length)
    return np.where(u < p_plus, 1, -1).astype(np.int8)


def coin_walk_terminals(steps: int, trials: int, seed: int) -> np.ndarray:
    """Terminal sums S of `trials` independent fair +/-1 walks of `steps` steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    nwords = (steps + 63) // 64
    chunk = max(1, min(4096, _COIN_BLOCK_BYTES // (8 * nwords)))
    # The terminals, plus mix64's peak: two blocks of words and the counters.
    _charge(
        8 * trials + (2 * min(chunk, trials) + 1) * 8 * nwords,
        f"a run of {trials} walks of {steps} steps",
    )
    rem = steps % 64
    mask = np.uint64((1 << rem) - 1) if rem else np.uint64(0xFFFFFFFFFFFFFFFF)
    out = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        block = rng.word_block(seed, np.arange(lo, hi, dtype=np.uint64), nwords)
        block[:, -1] &= mask
        out[lo:hi] = 2 * np.bitwise_count(block).sum(axis=1, dtype=np.int64) - steps
        del block  # else it sits beside the next block's words
    return out


def coin_walk_simulate(
    steps: int, trials: int, seed: int, c: float, epsilon: float
) -> WalkSummary:
    """Simulate fair-coin walks and report the |S| concentration fractions.

    fraction_within_c_sqrt counts |S| <= c * sqrt(steps); the limit of
    that fraction is normal_cdf(c) - normal_cdf(-c). fraction_within_power
    counts |S| < steps^(1/2 + epsilon), whose limit is 1. c and epsilon
    must be positive and finite. The terminals and np.std's deviations are
    charged to the memory budget, as are the walks.
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
    within_power = float(np.mean(absolutes < steps ** (0.5 + epsilon)))
    return WalkSummary(
        steps=steps,
        trials=trials,
        seed=seed,
        c=c,
        epsilon=epsilon,
        fraction_within_c_sqrt=within_c,
        fraction_within_power=within_power,
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
    cutoff = isqrt(n)
    big, numerators = _numerators([cutoff], mu_prefix, full=False)
    a = numerators[cutoff][0]
    return Fraction(n * a * a, big * big)


def checkpoint_grid(lo: int, hi: int) -> list[int]:
    """The distinct values floor(10^(k/8)), k = 0, 1, 2, ..., that lie in [lo, hi]."""
    points = []
    k = 0
    while (n := int(10 ** (k / 8))) <= hi:
        if n >= lo and (not points or n != points[-1]):
            points.append(n)
        k += 1
    return points


def mertens_walk_stats(limit: int, mu_prefix: MoebiusTable) -> MertensWalkStats:
    """Checkpointed |M| scaling plus the shift series, each term the correctly
    rounded float of the exact n * m_K^2.

    M is read at the checkpoints as a running total of per-span counts of the
    table, so no prefix array of the whole range is built.
    """
    if limit < 1000:
        raise ValueError("limit must be >= 1000 to give enough checkpoints")
    if mu_prefix.limit < limit:
        raise ValueError(f"table covers {mu_prefix.limit}, need {limit}")
    points = checkpoint_grid(1000, limit)
    cutoffs = sorted({isqrt(n) for n in points})
    big, numerators = _numerators(cutoffs, mu_prefix, full=False)
    checkpoints = np.array(points, dtype=np.int64)
    counts = span_counts([1] + [n + 1 for n in points], "all", mu_prefix)
    m_values = np.cumsum(counts[:, 1] - counts[:, 0])
    ratios = np.abs(m_values) / np.sqrt(checkpoints.astype(np.float64))
    # n a^2 / P^2 is n m^2 exactly, and int/int true division rounds it
    # correctly: the same double as float(n * m**2), with no gcd.
    big2 = big * big
    shifts = np.array(
        [n * numerators[isqrt(n)][0] ** 2 / big2 for n in points], dtype=np.float64
    )
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


def _as_sign_array(seq) -> np.ndarray:
    """seq as a checked +/-1 array: an int8 array as it is, with no copy (the
    tests count and compare its entries, and sum it in int64), any other
    input converted to int64."""
    if isinstance(seq, np.ndarray) and seq.dtype == np.int8:
        arr = seq
    else:
        arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if arr.size and not np.all(np.abs(arr) == 1):
        raise ValueError("sequence entries must be +1 or -1")
    return arr


def _check_length(arr: np.ndarray, test: str) -> None:
    if arr.size < MIN_TEST_LENGTH:
        raise ValueError(
            f"{test} needs at least {MIN_TEST_LENGTH} entries, got {arr.size}"
        )


def chi_square_balance(seq, sequence: str = "sequence") -> TestReport:
    """Chi-square of the +/-1 counts against a fair 50/50 split (1 dof)."""
    arr = _as_sign_array(seq)
    _check_length(arr, "chi_square_balance")
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
    arr = _as_sign_array(seq)
    _check_length(arr, "runs_test")
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
    arr = _as_sign_array(seq)
    _check_length(arr, "lag_autocorrelation")
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
