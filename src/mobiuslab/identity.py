"""Delta-sum evaluation of the Moebius function.

mu(n) for n >= 2 equals minus the sum of mu(i)*mu(j) over all pairs
i, j <= floor(sqrt(n)) whose product divides n.

Two evaluators compute it. The scalar ones (moebius_via_identity and
its odd and coprime forms) take one n: only divisors of n can fire the
divisibility indicator, so they enumerate the squarefree divisors of n
up to the cutoff (a chunked numpy scan) and sum over pairs of them;
they are the oracle.
identity_blocks takes a whole range [lo, hi): for each squarefree pair
i <= j it adds mu(i)mu(j), doubled when i < j, to the multiples of i*j
from max(lo, j^2) upward, then negates. Starting at j^2 is what keeps
i, j <= isqrt(n) at each n. That is about N (log sqrt N)^2 array work
for N numbers instead of N sqrt N Python steps: on a 2-core x86 VM,
[2, 1e5] takes ~0.04 s and [2, 1e7] ~8 s. The range runs in blocks of
at most IDENTITY_BLOCK_SIZE, so the int32 accumulator stays bounded.

The same sum restricted to odd indices reproduces mu on odd n, and more
generally restricting indices to those coprime to any prime set that n
avoids leaves the value intact. bootstrap_identity rebuilds the whole
table from the identity alone, seeded only with mu(1) = 1.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from mobiuslab.sieve import MoebiusTable, _charge

# The scan runs in chunks of 64 KB temporaries: one 800 KB temporary per
# call near n = 1e10 grew the process heap by ~6 MB over 200 calls.
_SCAN_CHUNK = 8192
# Range blocks hold at most this many n; each needs an int32 accumulator
# plus a bool comparison mask in verify-identity.
IDENTITY_BLOCK_SIZE = 1 << 22
_BLOCK_BYTES_PER_SLOT = 5


def _require_prefix(n: int, mu_prefix: MoebiusTable) -> int:
    cutoff = isqrt(n)
    if mu_prefix.limit < cutoff:
        raise ValueError(
            f"prefix table covers {mu_prefix.limit} but n={n} needs mu up to {cutoff}"
        )
    return cutoff


def _divisor_items(n: int, cutoff: int, values) -> list[tuple[int, int]]:
    """Squarefree divisors of n up to cutoff, paired with their mu value."""
    divisors = []
    for lo in range(1, cutoff + 1, _SCAN_CHUNK):
        r = np.arange(lo, min(lo + _SCAN_CHUNK, cutoff + 1))
        np.remainder(n, r, out=r)
        divisors += (np.flatnonzero(r == 0) + lo).tolist()
    return [(d, m) for d in divisors if (m := int(values[d]))]


def _identity_sum(n: int, items: Sequence[tuple[int, int]]) -> int:
    total = 0
    for i, mi in items:
        q = n // i
        inner = 0
        for j, mj in items:
            if q % j == 0:
                inner += mj
        total += mi * inner
    return -total


def moebius_via_identity(n: int, mu_prefix: MoebiusTable) -> int:
    """Evaluate the delta sum at n; equals mu(n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    cutoff = _require_prefix(n, mu_prefix)
    items = _divisor_items(n, cutoff, mu_prefix.values)
    return _identity_sum(n, items)


def moebius_via_identity_odd(n: int, mu_prefix: MoebiusTable) -> int:
    """Odd-restricted delta sum; defined for odd n >= 3 and equals mu(n)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    cutoff = _require_prefix(n, mu_prefix)
    items = [(d, m) for d, m in _divisor_items(n, cutoff, mu_prefix.values) if d % 2]
    return _identity_sum(n, items)


def moebius_via_identity_coprime(
    n: int, excluded_primes: set[int], mu_prefix: MoebiusTable
) -> int:
    """Delta sum over indices coprime to every excluded prime.

    n itself must avoid the excluded primes; divisors of n then survive
    the restriction automatically, so the value is still mu(n). With all
    primes below a prime n excluded, only the (1, 1) term remains.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    for p in excluded_primes:
        if n % p == 0:
            raise ValueError(f"n={n} shares factor {p} with the excluded set")
    cutoff = _require_prefix(n, mu_prefix)
    items = [
        (d, m)
        for d, m in _divisor_items(n, cutoff, mu_prefix.values)
        if all(d % p for p in excluded_primes)
    ]
    return _identity_sum(n, items)


def _identity_block(lo: int, hi: int, mu: np.ndarray, odd: bool) -> np.ndarray:
    """Delta sums at every n in [lo, hi) as int32; with odd, at odd n only
    (the slots of even n stay 0)."""
    length = hi - lo
    acc = np.zeros(length, dtype=np.int32)
    idx = np.flatnonzero(mu[1 : isqrt(hi - 1) + 1]) + 1
    if odd:
        idx = idx[idx % 2 == 1]
    signs = mu[idx].astype(np.int64)
    for b, j in enumerate(idx.tolist()):
        # The pairs (i, j) with i <= j; (i, j) and (j, i) fire together.
        products = idx[: b + 1] * j
        coeffs = signs[: b + 1] * (2 * int(signs[b]))
        coeffs[-1] //= 2
        # A pair counts at n only when j <= isqrt(n), i.e. from n = j^2 on.
        q = -(-max(lo, j * j) // products)
        if odd:
            q |= 1  # products are odd: step over their even multiples
        first = q * products - lo
        stride = products * 2 if odd else products
        live = first < length
        for f, s, c in zip(first[live].tolist(), stride[live].tolist(), coeffs[live].tolist()):
            acc[f::s] += c
    np.negative(acc, out=acc)
    return acc


def identity_blocks(
    lo: int, hi: int, mu: np.ndarray, *, odd: bool = False
) -> Iterator[tuple[int, np.ndarray]]:
    """Evaluate the delta sum at every n in [lo, hi), one block at a time.

    Returns an iterator of (start, sums) pairs in increasing start order:
    sums is an int32 array and sums[k] is the delta sum at n = start + k,
    with mu(i) read from mu[i] for i <= isqrt(n). It equals
    moebius_via_identity(n, ...) at every n; with odd, it equals
    moebius_via_identity_odd at every odd n and the slots of even n hold 0.
    Blocks hold at most IDENTITY_BLOCK_SIZE n, read at each call. The table
    plus one block's scratch is charged to the memory budget;
    ResourceLimitError when over.
    """
    if lo < 2:
        raise ValueError("lo must be >= 2")
    cutoff = isqrt(max(hi - 1, 1))
    if mu.size <= cutoff:
        raise ValueError(
            f"prefix table covers {mu.size - 1} but n={hi - 1} needs mu up to {cutoff}"
        )
    block = max(1, min(IDENTITY_BLOCK_SIZE, hi - lo))
    _charge(
        mu.nbytes + _BLOCK_BYTES_PER_SLOT * block,
        f"an identity pass in blocks of {block} over a table of {mu.nbytes} bytes",
    )
    return (
        (start, _identity_block(start, min(start + block, hi), mu, odd))
        for start in range(lo, hi, block)
    )


def bootstrap_identity(limit: int) -> MoebiusTable:
    """Rebuild mu(1..limit) from the identity alone.

    Every n below (L + 1)^2 needs mu only up to isqrt(n) <= L, so a known
    prefix [1, L] fills [L + 1, (L + 1)^2 - 1] in one range pass; starting
    from mu(1) = 1 the prefix squares each round.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    values = np.zeros(limit + 1, dtype=np.int8)
    values[1] = 1
    known = 1
    while known < limit:
        top = min((known + 1) ** 2 - 1, limit)
        for start, sums in identity_blocks(known + 1, top + 1, values):
            values[start : start + sums.size] = sums
        known = top
    values.setflags(write=False)
    return MoebiusTable(limit=limit, values=values)
