"""Moebius and Mertens tables over large ranges.

The sieve is segmented, with base primes p <= B = max(isqrt(limit), 64),
and it sieves only the odd n: slot j of a segment holds n = lo + 2j, with
lo odd, so a segment of 2^20 slots spans 2^21 numbers. Each slot holds
one uint8 accumulator, and each odd base prime makes one strided add of
2 L(p) + 1 to its multiples, where L(p) = round(2 log2 p); in slot terms
the multiples of p start at j = -lo (p + 1)/2 mod p, since (p + 1)/2 is
the inverse of 2 mod p. The low bit of the accumulator is then the number
of base primes dividing n, mod 2, and acc >> 1 is S(n), the sum of L(p)
over them. mu is formed in place in the accumulator's bytes, so the
scratch is 2 bytes per odd slot (the accumulator and the leftover mask),
and odd multiples of p^2 are zeroed last. Every even entry then comes
from the odd half in one strided pass: mu(2m) = -mu(m) for odd m, and
mu(4m) = 0. Output is exact and independent of the segment size.

The leftover test. Let R(n) be the product of the base primes dividing a
squarefree n <= limit. Any other prime factor q is above B >= isqrt(limit),
so there is at most one: n = R(n) or n = R(n) q. Each L(p) is within 1/2
of 2 log2 p, so S(n) is within omega/2 of 2 log2 R(n), where omega is the
most distinct primes of any n <= limit (from the primorials). On the odd
n of the piece 2^k <= n < 2^(k+1) of a segment:

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
truncated file raises CorruptCacheError.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

# Odd slots per segment; a segment spans twice as many numbers.
DEFAULT_SEGMENT_SIZE = 1 << 20
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
    return [int(p) for p in np.nonzero(flags)[0]]


def _omega_max(limit: int) -> int:
    """The most distinct prime factors of any n <= limit: the largest j
    whose primorial p_1 * ... * p_j is at most limit."""
    count, primorial, p = 0, 1, 2
    while primorial * p <= limit:
        primorial *= p
        count += 1
        p += 1
        while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            p += 1
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


def _weights(primes: list[int]) -> list[int]:
    """2 L(p) + 1 for each p, with L(p) = round(2 log2 p).

    L(p) = round(log2(p^4) / 2) is bit_length(p^4) // 2 exactly: log2(p^4)
    is never an odd integer, so there is no tie.
    """
    return [2 * ((p**4).bit_length() // 2) + 1 for p in primes]


def _fill_segment(
    lo: int, hi: int, primes: list[int], weights: list[int], omega: int
) -> np.ndarray:
    """mu of the odd n in [lo, hi), lo odd, as int8; slot j holds n = lo + 2j.

    primes are the odd base primes up to isqrt(hi - 1) or beyond, and
    weights[i] is 2 L(primes[i]) + 1.
    """
    length = (hi - lo + 1) >> 1
    acc = np.zeros(length, dtype=np.uint8)
    for p, w in zip(primes, weights):
        # p | lo + 2j exactly when j = -lo / 2 (mod p), and 1/2 = (p + 1) / 2 mod p
        start = (-lo * ((p + 1) >> 1)) % p
        if start < length:
            acc[start::p] += w
    leftover = np.empty(length, dtype=bool)
    for k in range(lo.bit_length() - 1, (hi - 1).bit_length()):
        a, b = (max(lo, 1 << k) - lo + 1) >> 1, (min(hi, 2 << k) - lo + 1) >> 1
        # acc >> 1 < 2k - omega/2, on integers: acc < 2 ceil(2k - omega/2)
        np.less(acc[a:b], max(4 * k - 2 * (omega // 2), 0), out=leftover[a:b])
    acc &= 1
    acc ^= leftover
    mu = acc.view(np.int8)
    mu *= -2
    mu += 1
    for p in primes:
        p2 = p * p
        if p2 >= hi:
            break
        mu[(-lo * ((p2 + 1) >> 1)) % p2 :: p2] = 0
    return mu


def sieve_moebius(limit: int) -> MoebiusTable:
    """Exact mu(1..limit) by segmented sieving.

    Deterministic and independent of DEFAULT_SEGMENT_SIZE, read at each
    call: the number of odd n a segment holds. The table plus one segment's
    scratch is charged to the memory budget; ResourceLimitError when over.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    seg = min(DEFAULT_SEGMENT_SIZE, (limit + 1) // 2)
    _charge((limit + 1) + _SCRATCH_BYTES_PER_SLOT * seg, f"sieve of limit {limit}")
    bound = max(isqrt(limit), _PRIME_FLOOR)
    omega = _omega_max(limit)
    _check_margins(limit, bound, omega)
    primes = _base_primes(bound)[1:]  # the odd ones: 2 divides no slot
    weights = _weights(primes)
    values = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, 2 * seg):
        hi = min(lo + 2 * seg, limit + 1)
        values[lo:hi:2] = _fill_segment(lo, hi, primes, weights, omega)
    # mu(2m) = -mu(m) for odd m; values[4::4] keep their zeros
    evens = values[2::4]
    np.negative(values[1::2][: evens.size], out=evens)
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
    np.cumsum(table.values[1:], dtype=np.int32, out=prefix[1:])
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


def load_table(path: str | Path) -> MoebiusTable:
    """Read a cache file back; any format deviation raises CorruptCacheError."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CorruptCacheError(f"{path}: truncated header")
        magic, version, limit = _HEADER.unpack(header)
        if magic != CACHE_MAGIC:
            raise CorruptCacheError(f"{path}: bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise CorruptCacheError(f"{path}: unsupported version {version}")
        if limit < 1:
            raise CorruptCacheError(f"{path}: invalid limit {limit}")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != limit:
            raise CorruptCacheError(
                f"{path}: payload holds {payload} values, header declares {limit}"
            )
        values = np.empty(limit + 1, dtype=np.int8)
        values[0] = 0
        if fh.readinto(values[1:].data) != limit:
            raise CorruptCacheError(f"{path}: payload shorter than its size on disk")
    if values.min() < -1 or values.max() > 1:
        raise CorruptCacheError(f"{path}: payload values outside {{-1, 0, 1}}")
    values.setflags(write=False)
    return MoebiusTable(limit=limit, values=values)
