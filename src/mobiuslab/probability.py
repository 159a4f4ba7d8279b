"""Exact value probabilities for the Moebius function.

For n with cutoff K = floor(sqrt(n)), writing m_K for the partial sum
of mu(i)/i and s2_K for the partial sum of mu(i)/i^2 (i <= K):

    Pr(mu = -1) =  m_K^2 / 2 + s2_K / 2
    Pr(mu = +1) = -m_K^2 / 2 + s2_K / 2
    Pr(mu =  0) = 1 - s2_K

The odd class swaps in the odd-index partial sums; the even class is
2 * general - odd, componentwise, at the same cutoff. All values are
Fractions, so the normalization, gap, and averaging identities hold as
exact rational equalities. Every triple is constant on the interval
between squares of consecutive squarefree integers containing n.

Partial sums are accumulated as integer numerators over P_K and P_K^2,
where P_K is the product of the primes up to the cutoff K: the lcm of every
squarefree i <= K, so every nonzero term mu(i)/i has an exact numerator.
The terms are summed in blocks of at most 64 consecutive i, each block over
its own small lcm and then scaled once to the primorial reached so far, so
the big integers are touched once per block and not once per i. At each
requested cutoff the pass also gives each numerator's gcd with its
denominator, found with no gcd of the big integers (see _numerators), and
the Fractions are built from the reduced pairs without a gcd of their own.

The walk needs only the float of n * m_K^2, so shift_floats sums m_K in
fixed point with SHIFT_BITS bits after the point, brackets it by the error
of the floors, and keeps the float where both ends of the bracket round to
it (Ziv's test). Any other n reads the exact numerator a of m_K = a/P_K, and
n a^2 / P_K^2 by int/int division rounds correctly with no gcd. shift_term,
the series and the triples read only the exact numerators.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, Literal

import numpy as np

from mobiuslab.sieve import MoebiusTable, _base_primes, _charge

ParityClass = Literal["general", "odd", "even"]

# Consecutive i summed over one small lcm before scaling to P; blocks of 32,
# 64, 128 and 256 all cost the same at K = 10^4.
_BLOCK = 64
# E, the bits after the point of shift_floats' fixed-point sum of m_K; read at
# each call. At 256 no checkpoint of the walk to 1e10 needs the exact fallback.
SHIFT_BITS = 256
# _numerators' traced peak per unit of its largest cutoff K: 9.9 bytes at
# K = 10^4 and 8.6 at 10^5 (the list of primes to K, the big sums at ~1.44 K
# bits a numerator and ~2.88 K a square, and the sqrt(K) lead products).
_SERIES_BYTES_PER_CUTOFF = 16


@dataclass(frozen=True)
class HarmonicMuSeries:
    """Exact partial sums at a cutoff: m = sum mu(i)/i, s2 = sum mu(i)/i^2,
    plus the odd-index variants."""

    cutoff: int
    m: Fraction
    m_odd: Fraction
    s2: Fraction
    s2_odd: Fraction


@dataclass(frozen=True)
class ProbabilityTriple:
    p_minus: Fraction
    p_plus: Fraction
    p_zero: Fraction
    n: int
    parity_class: ParityClass


@dataclass(frozen=True)
class IntervalBracket:
    """[a^2, b^2) for consecutive squarefree a, b; triples are constant here."""

    lower: int
    upper: int


@dataclass(frozen=True)
class DensityLimit:
    expression: str
    value: float


def _checked_cutoffs(cutoffs: Iterable[int], mu_prefix: MoebiusTable) -> list[int]:
    """The distinct cutoffs, ascending, each >= 1 and covered by the table."""
    wanted = sorted(set(cutoffs))
    if wanted and wanted[0] < 1:
        raise ValueError("cutoffs must be >= 1")
    if wanted and mu_prefix.limit < wanted[-1]:
        raise ValueError(
            f"prefix table covers {mu_prefix.limit}, cutoff {wanted[-1]} requested"
        )
    return wanted


def _lead_products(mus: list[int], scale: int) -> list[int]:
    """A_q A_q^odd B_q B_q^odd at q = 0, 1, ..., len(mus) - 1, from mus[j] =
    mu(j): A_q (A_q^odd) sums mu(j) scale / j over j <= q (odd j <= q), and
    B_q (B_q^odd) sums mu(j) scale^2 / j^2. scale is a multiple of every
    squarefree j read."""
    a = a_odd = b = b_odd = 0
    out = [0]
    for j in range(1, len(mus)):
        if mus[j]:
            share = scale // j
            term = mus[j] * share
            a, b = a + term, b + term * share
            if j & 1:
                a_odd, b_odd = a_odd + term, b_odd + term * share
        out.append(a * a_odd * b * b_odd)
    return out


def _numerators(
    cutoffs: Iterable[int], mu_prefix: MoebiusTable
) -> Iterator[tuple[int, tuple[tuple[int, int, int], ...]]]:
    """At each requested cutoff K, ascending, as the pass reaches it: K and, for
    m, m_odd, s2 and s2_odd in turn, (numerator, denominator, their gcd). The
    sums of mu(i)/i over all i <= K and over odd i <= K are a/P_K and
    a_odd/P_K, and those of mu(i)/i^2 are b/P_K^2 and b_odd/P_K^2, where P_K
    is the product of the primes up to K. Nothing big is kept per cutoff.

    Each block of at most _BLOCK consecutive i, cut short at every cutoff, is
    summed over lb, the lcm of its squarefree members, and added once scaled by
    P // lb and by P^2 // lb^2, where P is the product of the primes reached so
    far: as the pass reaches a prime p, the sums take a factor p, and the sums
    of squares p^2.

    The gcds need no gcd of big integers. P_K is squarefree, so gcd(a, P_K) is
    the product of the primes p <= K that divide a, and gcd(b, P_K^2) takes
    p^2 where p^2 divides b. Let R = max(isqrt(max K), 2), so that 2, which
    divides no odd i, is never above it. For p > R, q = K // p is below p, and
    the i <= K that p divides are p j with j <= q, where mu(p j) = -mu(j). So
    p divides a exactly when it divides A_q, the sum of mu(j) P_R / j over
    j <= q (P_R, the product of the primes up to R, is prime to p), and b,
    a_odd and b_odd when it divides B_q, A_q^odd and B_q^odd, formed alike.
    The pass keeps the set of p > R that divide the lead product
    A_q A_q^odd B_q B_q^odd, and retests a p only where K passes one of its
    multiples, since only there does K // p move. Each gcd is then
    gcd(n mod M, M) for M the product of the primes up to R and of that set
    (their squares for b): ~120 and ~240 bits at K = 10^4, where P_K has
    14,277 bits and P_K^2 28,554.
    """
    wanted = _checked_cutoffs(cutoffs, mu_prefix)
    if not wanted:
        return
    top = wanted[-1]
    _charge(_SERIES_BYTES_PER_CUTOFF * top, f"the exact series to cutoff {top}")
    values = mu_prefix.values
    primes = _base_primes(top)
    r = max(isqrt(top), 2)
    small = primes[: bisect_right(primes, r)]
    lead = _lead_products(values[: isqrt(top) + 1].tolist(), math.prod(small))
    flagged: set[int] = set()
    big = big2 = 1
    a = a_odd = b = b_odd = 0
    lo, passed, known = 1, 0, 0
    for k in wanted:
        while lo <= k:
            hi = min(lo + _BLOCK, k + 1)
            reached = bisect_left(primes, hi, passed)
            if reached > passed:
                grow = math.prod(primes[passed:reached])
                grow2 = grow * grow
                big, a, a_odd = big * grow, a * grow, a_odd * grow
                big2, b, b_odd = big2 * grow2, b * grow2, b_odd * grow2
                passed = reached
            terms = [(i, mu) for i, mu in enumerate(values[lo:hi].tolist(), lo) if mu]
            lb = math.lcm(*(i for i, _ in terms))
            m = m_odd = s = s_odd = 0
            for i, mu in terms:
                share = lb // i
                term = mu * share
                square = term * share
                m += term
                s += square
                if i & 1:
                    m_odd += term
                    s_odd += square
            scale, scale2 = big // lb, big2 // (lb * lb)
            a, a_odd = a + m * scale, a_odd + m_odd * scale
            b, b_odd = b + s * scale2, b_odd + s_odd * scale2
            lo = hi
        # the p > R with k // p = q whose quotient moved since the last cutoff
        for q in range(1, k // (r + 1) + 1):
            low, high = max(known // q, k // (q + 1), r), k // q
            if low < high:
                for p in primes[bisect_right(primes, low) : bisect_right(primes, high)]:
                    if lead[q] % p:
                        flagged.discard(p)
                    else:
                        flagged.add(p)
        known = k
        part = math.prod(small[: bisect_right(small, k)]) * math.prod(flagged)
        part2 = part * part
        yield k, (
            (a, big, math.gcd(a % part, part)),
            (a_odd, big, math.gcd(a_odd % part, part)),
            (b, big2, math.gcd(b % part2, part2)),
            (b_odd, big2, math.gcd(b_odd % part2, part2)),
        )


def shift_floats(ns: Iterable[int], mu_prefix: MoebiusTable) -> dict[int, float]:
    """{n: the correctly rounded float of n * m_K^2}, K = floor(sqrt(n)), n >= 1.

    With E = SHIFT_BITS, A = sum over i <= K of mu(i) floor(2^E / i) is summed
    over the nonzero mu(i) in one pass to the largest cutoff. Each floor
    loses less than 1, so m_K 2^E lies inside (A - K, A + K). Where that
    bracket excludes 0, n t^2 is monotone on it, and where its two ends give
    the same double, n (A -/+ K)^2 / 2^(2E) by int/int division, so does
    n m_K^2 (Ziv's test). Every other n is n a^2 / P_K^2 by int/int division,
    from the exact numerator a of m_K = a/P_K that _numerators sums.
    """
    ns = list(ns)
    cutoffs = _checked_cutoffs({isqrt(n) for n in ns}, mu_prefix)
    one, scale = 1 << SHIFT_BITS, 1 << 2 * SHIFT_BITS
    values = mu_prefix.values
    sums: dict[int, int] = {}
    a, lo = 0, 1
    for k in cutoffs:
        segment = values[lo : k + 1]
        plus = (np.flatnonzero(segment == 1) + lo).tolist()
        minus = (np.flatnonzero(segment == -1) + lo).tolist()
        a += sum([one // i for i in plus]) - sum([one // i for i in minus])
        sums[k] = a
        lo = k + 1
    out: dict[int, float] = {}
    misses = []
    for n in ns:
        k = isqrt(n)
        low, high = sums[k] - k, sums[k] + k
        if low > 0 or high < 0:
            value = n * low * low / scale
            if value == n * high * high / scale:
                out[n] = value
                continue
        misses.append(n)
    if misses:
        series = dict(_numerators({isqrt(n) for n in misses}, mu_prefix))
        for n in misses:
            a, big, _ = series[isqrt(n)][0]
            out[n] = n * a * a / (big * big)
    return out


def harmonic_series_many(
    cutoffs: Iterable[int], mu_prefix: MoebiusTable
) -> dict[int, HarmonicMuSeries]:
    """Series at every requested cutoff from one accumulation pass."""
    return {
        k: HarmonicMuSeries(k, *(_reduced(n // g, d // g) for n, d, g in parts))
        for k, parts in _numerators(cutoffs, mu_prefix)
    }


def _reduced(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator as a Fraction, with no gcd: the two must be coprime
    and the denominator positive. Fraction keeps both in these two slots on
    CPython 3.10 to 3.13."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


def harmonic_series(cutoff: int, mu_prefix: MoebiusTable) -> HarmonicMuSeries:
    """Exact series at one cutoff."""
    return harmonic_series_many([cutoff], mu_prefix)[cutoff]


def _of_class(
    parity_class: ParityClass, whole: Fraction, odd: Fraction, power: int = 1
) -> Fraction:
    """A class's value from its all-index and odd-index sums, each raised to
    `power`: the first, the second, or 2 * all - odd for the even class. Only
    the sums a class reads are raised."""
    if parity_class == "general":
        return whole**power
    if parity_class == "odd":
        return odd**power
    if parity_class == "even":
        return 2 * whole**power - odd**power
    raise ValueError(f"unknown parity class {parity_class!r}")


def _check_n(n: int, parity_class: ParityClass) -> None:
    """n must be >= 2 and, for the odd and even classes, of that parity."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if (parity_class == "odd" and n % 2 == 0) or (parity_class == "even" and n % 2):
        raise ValueError(f"{parity_class} class requires {parity_class} n")


def _series_for(
    n: int, parity_class: ParityClass, mu_prefix: MoebiusTable, series: HarmonicMuSeries | None
) -> HarmonicMuSeries:
    """The series at floor(sqrt(n)), given or summed, once n fits its class."""
    _check_n(n, parity_class)
    cutoff = isqrt(n)
    if series is None:
        return harmonic_series(cutoff, mu_prefix)
    if series.cutoff != cutoff:
        raise ValueError(
            f"series cutoff {series.cutoff} does not match floor(sqrt({n})) = {cutoff}"
        )
    return series


def triple_from_series(
    series: HarmonicMuSeries, parity_class: ParityClass
) -> tuple[Fraction, Fraction, Fraction]:
    """(p_minus, p_plus, p_zero) for a class, straight from partial sums."""
    msq = _of_class(parity_class, series.m, series.m_odd, 2)
    s2 = _of_class(parity_class, series.s2, series.s2_odd)
    return ((s2 + msq) / 2, (s2 - msq) / 2, 1 - s2)


def _triple(
    n: int,
    parity_class: ParityClass,
    mu_prefix: MoebiusTable,
    series: HarmonicMuSeries | None,
) -> ProbabilityTriple:
    p_minus, p_plus, p_zero = triple_from_series(
        _series_for(n, parity_class, mu_prefix, series), parity_class
    )
    return ProbabilityTriple(p_minus, p_plus, p_zero, n=n, parity_class=parity_class)


def prob_triple_general(
    n: int, mu_prefix: MoebiusTable, *, series: HarmonicMuSeries | None = None
) -> ProbabilityTriple:
    """Exact triple for arbitrary n >= 2."""
    return _triple(n, "general", mu_prefix, series)


def prob_triple_odd(
    n: int, mu_prefix: MoebiusTable, *, series: HarmonicMuSeries | None = None
) -> ProbabilityTriple:
    """Exact triple for odd n, from the odd-index partial sums."""
    return _triple(n, "odd", mu_prefix, series)


def prob_triple_even(
    n: int, mu_prefix: MoebiusTable, *, series: HarmonicMuSeries | None = None
) -> ProbabilityTriple:
    """Exact triple for even n: 2 * general - odd, at the same cutoff."""
    return _triple(n, "even", mu_prefix, series)


def delta_prob(
    n: int,
    parity_class: ParityClass,
    mu_prefix: MoebiusTable,
    *,
    series: HarmonicMuSeries | None = None,
) -> Fraction:
    """Closed form of Pr(mu = -1) - Pr(mu = +1).

    general: m_K^2; odd: (m_K^odd)^2; even: 2 m_K^2 - (m_K^odd)^2. The
    even gap can be negative at small cutoffs.
    """
    series = _series_for(n, parity_class, mu_prefix, series)
    return _of_class(parity_class, series.m, series.m_odd, 2)


def interval_of(n: int, mu_prefix: MoebiusTable) -> IntervalBracket:
    """Bracketing squares of consecutive squarefree integers around n."""
    _check_n(n, "general")
    root = isqrt(n)
    if mu_prefix.limit < root:
        raise ValueError(f"prefix table covers {mu_prefix.limit}, need {root}")
    values = mu_prefix.values
    a = root
    while values[a] == 0:
        a -= 1
    b = root + 1
    while b <= mu_prefix.limit and values[b] == 0:
        b += 1
    if b > mu_prefix.limit:
        raise ValueError(
            f"prefix table covers {mu_prefix.limit}, need the squarefree integer above {root}"
        )
    return IntervalBracket(lower=a * a, upper=b * b)


def density_limits() -> dict[str, DensityLimit]:
    """Asymptotic squarefree densities: all 6/pi^2, odd 8/pi^2, even 4/pi^2."""
    pi2 = math.pi**2
    return {
        "all": DensityLimit("6/pi^2", 6 / pi2),
        "odd": DensityLimit("8/pi^2", 8 / pi2),
        "even": DensityLimit("4/pi^2", 4 / pi2),
    }
