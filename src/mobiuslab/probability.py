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

Partial sums are accumulated as integer numerators over P and P^2, where P
is the product of the primes up to the largest cutoff: the lcm of every
squarefree i <= K, so every nonzero term mu(i)/i has an exact numerator.
The terms are summed in blocks of at most 64 consecutive i, each block over
its own small lcm and then scaled once to P, so the big integers are
touched once per block and not once per i. Fractions are formed only at
the requested cutoffs.

The walk needs only the float of n * m_K^2, so shift_floats sums m_K in
fixed point with SHIFT_BITS bits after the point, brackets it by the error
of the floors, and keeps the float where both ends of the bracket round to
it (Ziv's test). Any other n reads the exact numerator a of m_K = a/P, and
n a^2 / P^2 by int/int division rounds correctly with no gcd. shift_term,
the series and the triples read only the exact numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Literal

import numpy as np

from mobiuslab.sieve import MoebiusTable, _base_primes

ParityClass = Literal["general", "odd", "even"]

# Consecutive i summed over one small lcm before scaling to P; blocks of 32,
# 64, 128 and 256 all cost the same at K = 10^4.
_BLOCK = 64
# E, the bits after the point of shift_floats' fixed-point sum of m_K; read at
# each call. At 256 no checkpoint of the walk to 1e10 needs the exact fallback.
SHIFT_BITS = 256


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


def _numerators(
    cutoffs: Iterable[int], mu_prefix: MoebiusTable
) -> tuple[int, dict[int, tuple[int, int, int, int]]]:
    """P and, at each requested cutoff K, the numerators (a, a_odd, b, b_odd):
    sum mu(i)/i over all i <= K and over odd i <= K is a/P and a_odd/P, and
    sum mu(i)/i^2 is b/P^2 and b_odd/P^2. P is the product of the primes up
    to the largest cutoff.

    Each block of at most _BLOCK consecutive i, cut short at every cutoff,
    is summed over lb, the lcm of its squarefree members, and added once
    scaled by P // lb and by P^2 // lb^2 (a fifth of the cost of squaring
    P // lb at K = 10^5).
    """
    wanted = _checked_cutoffs(cutoffs, mu_prefix)
    if not wanted:
        return 1, {}
    big = math.prod(_base_primes(wanted[-1]))
    big2 = big * big
    values = mu_prefix.values
    out: dict[int, tuple[int, int, int, int]] = {}
    a = a_odd = b = b_odd = 0
    lo = 1
    for k in wanted:
        while lo <= k:
            hi = min(lo + _BLOCK, k + 1)
            terms = [(i, mu) for i, mu in enumerate(values[lo:hi].tolist(), lo) if mu]
            odd = [(i, mu) for i, mu in terms if i & 1]
            lb = math.lcm(*(i for i, _ in terms))
            scale, scale2 = big // lb, big2 // (lb * lb)
            a += sum(mu * (lb // i) for i, mu in terms) * scale
            a_odd += sum(mu * (lb // i) for i, mu in odd) * scale
            b += sum(mu * (lb // i) ** 2 for i, mu in terms) * scale2
            b_odd += sum(mu * (lb // i) ** 2 for i, mu in odd) * scale2
            lo = hi
        out[k] = (a, a_odd, b, b_odd)
    return big, out


def shift_floats(ns: Iterable[int], mu_prefix: MoebiusTable) -> dict[int, float]:
    """{n: the correctly rounded float of n * m_K^2}, K = floor(sqrt(n)), n >= 1.

    With E = SHIFT_BITS, A = sum over i <= K of mu(i) floor(2^E / i) is summed
    over the nonzero mu(i) in one pass to the largest cutoff. Each floor
    loses less than 1, so m_K 2^E lies inside (A - K, A + K). Where that
    bracket excludes 0, n t^2 is monotone on it, and where its two ends give
    the same double, n (A -/+ K)^2 / 2^(2E) by int/int division, so does
    n m_K^2 (Ziv's test). Every other n is n a^2 / P^2 by int/int division,
    from the exact numerator a of m_K = a/P that _numerators sums.
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
        big, numerators = _numerators({isqrt(n) for n in misses}, mu_prefix)
        big2 = big * big
        out.update((n, n * numerators[isqrt(n)][0] ** 2 / big2) for n in misses)
    return out


def harmonic_series_many(
    cutoffs: Iterable[int], mu_prefix: MoebiusTable
) -> dict[int, HarmonicMuSeries]:
    """Series at every requested cutoff from one accumulation pass."""
    big, numerators = _numerators(cutoffs, mu_prefix)
    big2 = big * big
    return {
        k: HarmonicMuSeries(
            cutoff=k,
            m=Fraction(a, big),
            m_odd=Fraction(a_odd, big),
            s2=Fraction(b, big2),
            s2_odd=Fraction(b_odd, big2),
        )
        for k, (a, a_odd, b, b_odd) in numerators.items()
    }


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
