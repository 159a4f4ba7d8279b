"""Moebius and Mertens tables over large ranges.

The sieve is segmented, with base primes p <= B = max(isqrt(limit), 64),
and it sieves only the n coprime to 6, in two classes, n = 1 and
n = 5 (mod 6): slot j of a class window holds n = lo + 6j, with lo
coprime to 6, so a window of 2^20 slots spans 6 * 2^20 numbers. Each slot
holds one uint8 accumulator, and each base prime p >= 5 makes one strided
add of 2 L(p) + 1 to its multiples, where L(p) = round(2 log2 p). In slot
terms the multiples of p start at j = (t + c p)/6, where t = -lo mod p and
c = ((-t) mod 6)(p mod 6) mod 6 (p mod 6 is its own inverse mod 6), so a
window's starts are one numpy step over the primes, with every
intermediate below 6p and no product that can overflow int64. The low bit
of the accumulator is then the number of base primes dividing n, mod 2,
and acc >> 1 is S(n), the sum of L(p) over them. mu is formed in place in
the accumulator's bytes, so the scratch is 2 bytes per slot (the
accumulator and the leftover mask), and the class members that are
multiples of p^2 are zeroed last: strided stores while p^2 is shorter
than the window, then one indexed store for the longer squares, each with
at most one multiple in it. SIEVE_WORKERS (window, class) jobs run at
once, each on its own thread with its own row of scratch, into disjoint
slots of the table; the numpy steps release the interpreter lock, so the
threads overlap. The other entries then come from these in two strided
passes, each split across the same threads by ranges of n: first the odd
multiples of 3, from mu(3m) = -mu(m) for m coprime to 6 (and
mu(9m) = 0), then the evens, from mu(2m) = -mu(m) for odd m (and
mu(4m) = 0). Output is exact and independent of the window size and the
number of threads.

The leftover test. Let R(n) be the product of the base primes dividing a
squarefree n <= limit. Any other prime factor q is above B >= isqrt(limit),
so there is at most one: n = R(n) or n = R(n) q. Each L(p) is within 1/2
of 2 log2 p, so S(n) is within omega/2 of 2 log2 R(n), where omega is the
most distinct primes of any n <= limit (from the primorials). On the
class members n of the piece 2^k <= n < 2^(k+1) of a window:

- with no leftover prime, R(n) = n >= 2^k, so S(n) >= 2k - omega/2;
- with a leftover q >= B + 1, R(n) < 2^(k+1) / (B + 1), so
  S(n) < 2k + 2 - 2 log2(B + 1) + omega/2, which is below 2k - omega/2
  when 2 (log2(B + 1) - 1) > omega (the gap condition).

So n has a leftover prime exactly when S(n) < 2k - omega/2, and
mu(n) = (-1)^(parity XOR leftover). The distinct base primes dividing
any n <= limit multiply to at most n, so its accumulator is at most
2 (2 log2 limit + omega/2) + omega, and it cannot wrap while
2 (2 log2(limit + 1) + omega/2) + omega < 255 (the overflow condition).
sieve_moebius checks both conditions on every call and raises
RuntimeError if either fails; the 64 floor on B keeps the gap condition
true at small limits.

Tables persist to a small versioned binary format (see save_table /
load_table); save_table replaces a file in one rename, and a corrupted or
truncated file raises CorruptCacheError. load_table(path, limit) reads
and validates only the prefix 1..limit, so damage past it is reported by
the first call that reads it.
"""
from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

# Slots per class window; a window spans six times as many numbers.
DEFAULT_SEGMENT_SIZE = 1 << 20
# (window, class) jobs run at once, each on its own thread with its own scratch.
SIEVE_WORKERS = 2
# Caps every large allocation of the package, each checked by _charge first.
DEFAULT_MEMORY_BUDGET = 2 << 30
# The uint8 accumulator (mu is formed in its bytes) and the bool leftover mask.
_SCRATCH_BYTES_PER_SLOT = 2
# Least base-prime bound B, so that the gap condition holds at small limits.
_PRIME_FLOOR = 64

CACHE_MAGIC = b"MOBS"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIQ")


class CorruptCacheError(Exception):
    """A table cache file failed magic, version, or length validation."""


class ResourceLimitError(Exception):
    """A requested allocation exceeds the configured memory budget."""


def _charge(needed: int, what: str) -> None:
    """Raise ResourceLimitError if `what`, holding ~needed bytes at its peak,
    would exceed DEFAULT_MEMORY_BUDGET, read at each call."""
    if needed > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what} needs ~{needed} bytes, over the memory budget of "
            f"{DEFAULT_MEMORY_BUDGET} bytes"
        )


@dataclass(frozen=True, eq=False)
class MoebiusTable:
    """mu(1..limit) as int8 values in {-1, 0, +1}; values[0] is unused.

    Immutable after construction and safe to share across readers.
    """

    limit: int
    values: np.ndarray

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.values.shape != (self.limit + 1,):
            raise ValueError("values must have length limit + 1")


@dataclass(frozen=True, eq=False)
class MertensSeries:
    """Prefix sums M(n) = sum of mu(k) for k <= n; prefix[0] = 0."""

    limit: int
    prefix: np.ndarray

    def m(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n must be in [1, {self.limit}]")
        return int(self.prefix[n])


def _base_primes(bound: int) -> list[int]:
    """Primes up to bound via a plain boolean sieve."""
    if bound < 2:
        return []
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def _omega_max(limit: int) -> int:
    """The most distinct prime factors of any n <= limit: the largest j
    whose primorial p_1 * ... * p_j is at most limit. p_(j+1) is below
    2 bit_length(limit) + 2: it is below 2 p_j (Bertrand), and p_j - 1 is at
    most log2 of the primorial, so below bit_length(limit)."""
    count, primorial = 0, 1
    for p in _base_primes(2 * limit.bit_length() + 2):
        if primorial * p > limit:
            break
        primorial *= p
        count += 1
    return count


def _check_margins(limit: int, bound: int, omega: int) -> None:
    """Raise unless the leftover test is exact and the accumulator cannot wrap.

    Integer forms of the gap condition 2 (log2(B + 1) - 1) > omega and the
    overflow condition 4 log2(limit + 1) + 2 omega < 255.
    """
    if (bound + 1) ** 2 <= 1 << (omega + 2):
        raise RuntimeError(
            f"base-prime bound {bound} is too small to tell a leftover prime "
            f"from rounding error at omega = {omega}"
        )
    if (limit + 1) ** 4 << 2 * omega >= 1 << 255:
        raise RuntimeError(f"the uint8 log sum can overflow at limit {limit}")


def _wheel_primes(primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """From the base primes, 2 and 3 first: those from 5 up (2 and 3 divide
    no class member) and their squares, as the two rows of an int64 array,
    and their weights 2 L(p) + 1 as uint8, with L(p) = round(2 log2 p).

    L(p) = round(log2(p^4) / 2) is bit_length(p^4) // 2 exactly: log2(p^4)
    is never an odd integer, so there is no tie.
    """
    primes = primes[2:]
    moduli = np.array([primes, [p * p for p in primes]], dtype=np.int64)
    return moduli, np.array([2 * ((p**4).bit_length() // 2) + 1 for p in primes], dtype=np.uint8)


def _class_starts(lo: int, moduli: np.ndarray) -> np.ndarray:
    """For lo coprime to 6 and each m of moduli (int64, coprime to 6), the
    least slot j >= 0 with m | lo + 6j: j = (t + c m)/6, where t = -lo mod m
    and c = ((-t) mod 6)(m mod 6) mod 6 makes t + c m a multiple of 6 (m mod 6
    is its own inverse mod 6). No intermediate reaches 6m."""
    t = np.remainder(-lo, moduli)
    c = np.negative(t)
    c %= 6
    c *= moduli  # at most 5m; mod 6 it is ((-t) mod 6)(m mod 6)
    c %= 6
    c *= moduli
    t += c
    t //= 6
    return t


def _fill_segment(
    lo: int,
    hi: int,
    moduli: np.ndarray,
    weights: np.ndarray,
    omega: int,
    scratch: np.ndarray,
) -> np.ndarray:
    """mu of the n = lo (mod 6) in [lo, hi), lo coprime to 6, as int8; slot j
    holds n = lo + 6j.

    moduli is int64 of shape (2, P): the base primes from 5 up to
    isqrt(hi - 1) or beyond, and their squares; weights[i] is
    2 L(moduli[0, i]) + 1 as uint8. scratch is uint8 of shape (2, >= the slot
    count); the result is a view of its first row, valid until the next call
    with the same scratch.
    """
    length = (hi - lo + 5) // 6
    primes, squares = moduli
    starts, square_starts = _class_starts(lo, moduli)  # one step for both rows
    acc = scratch[0, :length]
    acc.fill(0)
    # the primes row itself, not a list of it per window: less memory per thread
    for s, p, w in zip(starts.tolist(), primes, weights):
        if s < length:
            v = acc[s::p]
            np.add(v, w, out=v)
    leftover = scratch[1, :length]
    # a leftover prime is above every base prime, so no n up to the last has one
    first = max(lo, int(primes[-1]) + 1)
    leftover[: (first - lo + 5) // 6] = 0
    for k in range(first.bit_length() - 1, (hi - 1).bit_length()):
        a, b = (max(first, 1 << k) - lo + 5) // 6, (min(hi, 2 << k) - lo + 5) // 6
        # acc >> 1 < 2k - omega/2, on integers: acc < 2 ceil(2k - omega/2)
        np.less(acc[a:b], max(4 * k - 2 * (omega // 2), 0), out=leftover[a:b].view(bool))
    acc &= 1
    acc ^= leftover
    mu = acc.view(np.int8)
    mu *= -2
    mu += 1
    short = int(np.searchsorted(squares, length))
    for s, p2 in zip(square_starts[:short].tolist(), squares[:short].tolist()):
        mu[s::p2] = 0
    # a square of at least the window's length has at most one multiple in it,
    # and one above the window has none: its start is past the last slot
    longer = square_starts[short:]
    mu[longer[longer < length]] = 0
    return mu


# The entries the jobs leave, in two passes: each reads what the jobs or the
# pass before it wrote, anywhere below it. (r, first, step) sets
# values[r m] = -values[m] for the m = first (mod step): mu(3m) = -mu(m) for
# m coprime to 6, then mu(2m) = -mu(m) for odd m. The multiples of 9 and 4
# keep their zeros.
_DERIVED = (((3, 1, 6), (3, 5, 6)), ((2, 1, 2),))


def _derive(values: np.ndarray, r: int, first: int, step: int, part: int, parts: int) -> None:
    """values[r m] = -values[m] for the m = first (mod step) whose r m falls
    in the part-th of `parts` equal ranges of the table's entries."""
    count = len(range(r * first, values.size, r * step))
    i, j = count * part // parts, count * (part + 1) // parts
    src = values[first + step * i : first + step * j : step]
    # disjoint from src, so numpy negates in place with no copy of it
    np.negative(src, out=values[r * (first + step * i) : r * (first + step * j) : r * step])


def sieve_moebius(limit: int) -> MoebiusTable:
    """Exact mu(1..limit) by segmented sieving of the n coprime to 6.

    Deterministic and independent of DEFAULT_SEGMENT_SIZE, the slots of a
    class window, and of SIEVE_WORKERS, the jobs run at once; both are read
    at each call. A table whose classes fit in one window each starts no
    thread. The table plus the scratch of each job in flight is charged to
    the memory budget; ResourceLimitError when over. A worker's exception
    is raised here.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    seg = min(DEFAULT_SEGMENT_SIZE, (limit + 5) // 6)
    windows = range(1, limit + 1, 6 * seg)
    jobs = [lo + d for lo in windows for d in (0, 4) if lo + d <= limit]  # classes 1 and 5
    workers = min(SIEVE_WORKERS, len(windows))
    _charge((limit + 1) + _SCRATCH_BYTES_PER_SLOT * seg * workers, f"sieve of limit {limit}")
    bound = max(isqrt(limit), _PRIME_FLOOR)
    omega = _omega_max(limit)
    _check_margins(limit, bound, omega)
    moduli, weights = _wheel_primes(_base_primes(bound))
    values = np.zeros(limit + 1, dtype=np.int8)
    scratch = np.empty((workers, _SCRATCH_BYTES_PER_SLOT, seg), dtype=np.uint8)
    barrier = threading.Barrier(workers)  # of one party, wait() returns at once
    failures: list[BaseException] = []

    def work(worker: int) -> None:
        # jobs worker, worker + workers, ...: slots no other worker writes
        try:
            for lo in jobs[worker::workers]:
                hi = min(lo + 6 * seg, limit + 1)
                mu = _fill_segment(lo, hi, moduli, weights, omega, scratch[worker])
                values[lo:hi:6] = mu
            for derived in _DERIVED:
                barrier.wait()
                for r, first, step in derived:
                    _derive(values, r, first, step, worker, workers)
        except BaseException as exc:  # raised again in the caller, below
            failures.append(exc)
            barrier.abort()  # the other workers leave their waits

    # The caller is worker 0. A helper thread's exception is kept and raised
    # here; left to the thread, it would be printed and the table returned
    # half filled.
    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in helpers:
        thread.start()
    work(0)
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[0]
    values.setflags(write=False)
    return MoebiusTable(limit=limit, values=values)


def moebius_at(n: int) -> int:
    """mu(n) by trial division; independent of the sieve code path.

    Early-exits to 0 on a repeated prime factor. Practical for
    n up to ~10^12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    m = n
    factors = 0
    if m % 2 == 0:
        m //= 2
        if m % 2 == 0:
            return 0
        factors += 1
    d = 3
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            factors += 1
        d += 2
    if m > 1:
        factors += 1
    return -1 if factors % 2 else 1


def mertens_series(table: MoebiusTable) -> MertensSeries:
    """Prefix sums of the table; M(n) - M(n-1) = mu(n).

    int32 is ample: |M(n)| stays in the tens of thousands across the
    supported range (it is ~1.9e3 at n = 10^8). The table and the 4-byte
    prefix entries are charged to the memory budget; ResourceLimitError
    when over.
    """
    _charge(table.values.nbytes + 4 * (table.limit + 1), f"Mertens prefix of limit {table.limit}")
    prefix = np.zeros(table.limit + 1, dtype=np.int32)
    # Widened first, then summed in place: a cumsum from int8 into int32 casts
    # its whole input to a second int32 array, 4 more bytes an entry.
    prefix[1:] = table.values[1:]
    np.cumsum(prefix[1:], out=prefix[1:])
    prefix.setflags(write=False)
    return MertensSeries(limit=table.limit, prefix=prefix)


def save_table(table: MoebiusTable, path: str | Path) -> None:
    """Write the binary cache: magic, u32 version, u64 limit, int8 payload.

    The bytes go to a hidden temporary file beside path, named for this
    process and thread (no *.mobs glob matches it), are flushed to disk,
    and then replace path in one rename: readers, including those after a
    crash, see the old file or the complete new one, never a partial
    write. The fsync costs ~0.07 s for a 1e8 table on a 2-core x86 VM.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, table.limit))
            fh.write(table.values[1:].data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_table(path: str | Path, limit: int | None = None) -> MoebiusTable:
    """Read mu(1..limit), or the whole table, from a cache file.

    Header, version and file size are checked at every limit, so truncation
    raises; only entries 1..limit are read, range-checked and charged to
    the budget. Any deviation, or fewer entries than limit, raises
    CorruptCacheError."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CorruptCacheError(f"{path}: truncated header")
        magic, version, declared = _HEADER.unpack(header)
        if magic != CACHE_MAGIC:
            raise CorruptCacheError(f"{path}: bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise CorruptCacheError(f"{path}: unsupported version {version}")
        if declared < 1:
            raise CorruptCacheError(f"{path}: invalid limit {declared}")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != declared:
            raise CorruptCacheError(
                f"{path}: payload holds {payload} values, header declares {declared}"
            )
        limit = declared if limit is None else limit
        if declared < limit:
            raise CorruptCacheError(f"{path}: header declares {declared} values, {limit} requested")
        _charge(limit + 1, f"table load of limit {limit}")
        values = np.empty(limit + 1, dtype=np.int8)
        values[0] = 0
        if fh.readinto(values[1:].data) != limit:
            raise CorruptCacheError(f"{path}: payload shorter than its size on disk")
    if values.min() < -1 or values.max() > 1:
        raise CorruptCacheError(f"{path}: payload values outside {{-1, 0, 1}}")
    values.setflags(write=False)
    return MoebiusTable(limit=limit, values=values)
