"""Exact value probabilities for the Moebius function.

For n with cutoff K = floor(sqrt(n)), writing m_K for the partial sum
of mu(i)/i and s2_K for the partial sum of mu(i)/i^2 (i <= K):

    Pr(mu = -1) =  m_K^2 / 2 + s2_K / 2
    Pr(mu = +1) = -m_K^2 / 2 + s2_K / 2
    Pr(mu =  0) = 1 - s2_K

A class's numerators come from its own two sums by one rule (_quad): with
m_K = a/P_K and s2_K = b/P_K^2 (P_K below), b + a^2 and b - a^2 over
2 P_K^2, then P_K^2 - b and a^2 over P_K^2. The odd class takes the
odd-index sums; the even class is 2 * general - odd, componentwise, at the
same cutoff (_even). All values are Fractions, so the normalization, gap,
and averaging identities hold as exact rational equalities. Every triple is
constant on the interval between squares of consecutive squarefree integers
containing n.

Partial sums are accumulated as integer numerators over P_K and P_K^2,
where P_K is the product of the primes up to the cutoff K: the lcm of every
squarefree i <= K, so every nonzero term mu(i)/i has an exact numerator.
The terms are summed in blocks of at most 64 consecutive i, each block over
its own small lcm and then scaled once to the primorial reached so far, so
the big integers are touched once per block and not once per i. At each
requested cutoff the pass also gives each numerator's gcd with its
denominator, found with no gcd of the big integers (see _numerators), and
the Fractions are built from the reduced pairs without a gcd of their own.
The large primes that divide a numerator are found by the same pass: it
also stops at each small quotient q = K // p a candidate prime p can take,
where its own running sums, over P_q, decide every prime of that quotient.

The triples are reduced the same way: the pass also finds the primes in
(R, K], R about the square root of its largest cutoff, that divide each
triple numerator over 2 P_K^2 or P_K^2 (see _Reduction), and a series
carries their products, so a triple value costs one exact division by
that product and gcds no larger than it.

The walk needs only the float of n * m_K^2, so shift_floats sums m_K in
fixed point with SHIFT_BITS bits after the point, brackets it by the error
of the floors, and keeps the float where both ends of the bracket round to
it (Ziv's test). Any other n reads the exact numerator a of m_K = a/P_K, and
n a^2 / P_K^2 by int/int division rounds correctly with no gcd. shift_term
and the triples read the series, and so the exact numerators.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from mobiuslab.sieve import MoebiusTable, _base_primes, _charge

ParityClass = Literal["general", "odd", "even"]

# Consecutive i summed over one small lcm before scaling to P; blocks of 32,
# 64, 128 and 256 all cost the same at K = 10^4.
_BLOCK = 64
# E, the bits after the point of shift_floats' fixed-point sum of m_K; read at
# each call. At 256 no checkpoint of the walk to 1e10 needs the exact fallback.
SHIFT_BITS = 256
# _numerators' traced peak per unit of its largest cutoff K: 8.9 bytes at
# K = 10^4 and 7.5 at 10^5 (the list of primes to K, and the big sums at
# ~1.44 K bits a numerator and ~2.88 K a square).
_SERIES_BYTES_PER_CUTOFF = 16
# The values _lead_forms gives at each quotient: the lead product and 8 triple numerators.
_FORMS = 9


class _Reduction(NamedTuple):
    """What a series carries to reduce its triples with no gcd of big
    integers: the gcds of a, a_odd, b and b_odd with P_K, P_K, P_K^2 and
    P_K^2; small, the product of the primes up to min(R, K); and, for each
    triple numerator, the product of the primes in (R, K] that divide it, in
    order: p_minus and p_plus of the general and odd _quad, then _even's four."""

    gcds: tuple[int, int, int, int]
    small: int
    flagged: tuple[int, ...]


@dataclass(frozen=True)
class HarmonicMuSeries:
    """Exact partial sums at a cutoff: m = sum mu(i)/i, s2 = sum mu(i)/i^2,
    plus the odd-index variants. harmonic_series and harmonic_series_many also
    set _reduction, what the triples are reduced with; a series built by hand,
    or by dataclasses.replace, has none."""

    cutoff: int
    m: Fraction
    m_odd: Fraction
    s2: Fraction
    s2_odd: Fraction
    _reduction: _Reduction | None = field(default=None, init=False, compare=False, repr=False)


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


def _quad(a: int, b: int, big2: int) -> tuple[int, int, int, int]:
    """One class's four numerators from its own sums a/P_K and b/P_K^2, with
    big2 = P_K^2: b + a^2 and b - a^2 (p_minus and p_plus, over 2 P_K^2),
    then P_K^2 - b and a^2 (p_zero and the gap, over P_K^2)."""
    square = a * a
    return b + square, b - square, big2 - b, square


def _even(general: tuple[int, ...], odd: tuple[int, ...]) -> list[int]:
    """The even class's numerators from the general and odd _quad: 2 * general - odd."""
    return [2 * g - o for g, o in zip(general, odd)]


def _lead_forms(a: int, a_odd: int, b: int, b_odd: int) -> tuple[int, ...]:
    """From the pass's sums at cutoff q, A = a, A^odd = a_odd, B = b and
    B^odd = b_odd over P_q, the small values that a prime p > R with
    K // p = q divides exactly when it divides the matching numerator at K
    (see _numerators): the lead product A A^odd B B^odd, then the triple
    numerators of _Reduction.flagged at (A, -B, 0) and (A^odd, -B^odd, 0)."""
    general, odd = _quad(a, -b, 0), _quad(a_odd, -b_odd, 0)
    return (a * a_odd * b * b_odd, *general[:2], *odd[:2], *_even(general, odd))


def _numerators(
    cutoffs: Iterable[int], mu_prefix: MoebiusTable
) -> Iterator[tuple[int, tuple[tuple[int, int, int], ...], _Reduction]]:
    """At each requested cutoff K, ascending, as the pass reaches it: K; for
    m, m_odd, s2 and s2_odd in turn, (numerator, denominator, their gcd); and
    the _Reduction its triples read. The sums of mu(i)/i over all i <= K and
    over odd i <= K are a/P_K and a_odd/P_K, and those of mu(i)/i^2 are
    b/P_K^2 and b_odd/P_K^2, where P_K is the product of the primes up to K.
    Nothing big is kept per cutoff.

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
    modulo p, a is a unit u times A_q, the sum of mu(j) P_q / j over j <= q
    (P_q, the product of the primes up to q, is prime to p), and a_odd is u
    times A_q^odd; modulo p^2, b and b_odd are -u^2 times B_q and B_q^odd,
    formed alike with j^2: the pass's own a, a_odd, b and b_odd as it
    reaches i = q. So p divides a, a_odd, b or b_odd exactly when it divides
    A_q A_q^odd B_q B_q^odd. Each triple numerator (_quad, _even) sums
    multiples of a^2, b and P_K^2, and p divides P_K; so modulo p it is u^2
    times its value at (A_q, -B_q, 0) and the odd pair (_lead_forms): b + a^2
    goes with A_q^2 - B_q. One number per q serves every prime with that
    quotient: the product of its nonzero forms. Where a form is 0 at q, as
    A_q^2 - B_q is at q = 1 (every prime in (K/2, K] divides b + a^2), every
    prime of that quotient divides it.

    The pass tests each pair (p, q) once, as it reaches i = q: the p in
    (max(K_0 // (q + 1), R), max K // q], K_0 the least cutoff, have
    K // p = q at some cutoff. It stops there, cutting its block short, only
    at the q <= max K // (R + 1) where such a p exists, forms the values from
    its sums (_lead_forms), and keeps the p that divide a nonzero form (a few
    per pass), each with its q and those forms; a cutoff K takes the ones with
    K // p = q. For each q where some form is 0 it keeps the product of the
    primes of that quotient, slid along as K grows. Each series gcd is then
    gcd(n mod M, M) for M the product of the primes up to R and of the
    flagged primes of the lead product (their squares for b): ~120 and ~240
    bits at K = 10^4, where P_K has 14,277 bits and P_K^2 28,554. Each triple
    numerator gets the product of the primes in (R, K] that divide it.
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
    tests: dict[int, list[int]] = {}  # q -> the p > R with K // p = q at some cutoff K, where any
    for q in range(1, top // (r + 1) + 1):
        low = max(wanted[0] // (q + 1), r)
        if candidates := primes[bisect_right(primes, low) : bisect_right(primes, top // q)]:
            tests[q] = candidates
    zeros: dict[int, tuple[int, ...]] = {}  # q -> the forms that are 0 at q, where any are
    divisors = []  # (p, q, the nonzero forms at q that p divides) for those p > R
    windows: dict[int, tuple[int, int, int]] = {}  # q -> slice of primes, their product
    big = big2 = 1
    a = a_odd = b = b_odd = 0
    lo, passed = 1, 0
    requested = set(wanted)
    for k in sorted(requested.union(tests)):
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
        if candidates := tests.pop(k, ()):  # k is a quotient q: the sums are A_q ... B_q^odd
            forms = _lead_forms(a, a_odd, b, b_odd)
            if not all(forms):
                zeros[k] = tuple(j for j, v in enumerate(forms) if not v)
            test = math.prod(filter(None, forms))
            for p in candidates:
                if not test % p:  # rare
                    divided = tuple(j for j, v in enumerate(forms) if v and not v % p)
                    divisors.append((p, k, divided))
        if k not in requested:
            continue
        # per form, the product of the primes in (R, k] that divide it: the
        # windows of the q where it is 0, each slid along with k, and the
        # divisors p of a nonzero form at their quotient q = k // p
        flagged = [1] * _FORMS
        for q, zero in zeros.items():
            start = bisect_right(primes, max(k // (q + 1), r))
            stop = bisect_right(primes, k // q)
            was_start, was_stop, window = windows.get(q, (0, 0, 1))
            if start < was_stop:
                window *= math.prod(primes[was_stop:stop])
                window //= math.prod(primes[was_start:start])
            else:
                window = math.prod(primes[start:stop])
            windows[q] = start, stop, window
            for j in zero:
                flagged[j] *= window
        for p, q, divided in divisors:
            if k // p == q:
                for j in divided:
                    flagged[j] *= p
        part = math.prod(small[: bisect_right(small, k)])
        lead_part = part * flagged[0]
        lead_part2 = lead_part * lead_part
        gcds = (
            math.gcd(a % lead_part, lead_part),
            math.gcd(a_odd % lead_part, lead_part),
            math.gcd(b % lead_part2, lead_part2),
            math.gcd(b_odd % lead_part2, lead_part2),
        )
        yield k, (
            (a, big, gcds[0]),
            (a_odd, big, gcds[1]),
            (b, big2, gcds[2]),
            (b_odd, big2, gcds[3]),
        ), _Reduction(gcds, part, tuple(flagged[1:]))


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
        series = {k: parts for k, parts, _ in _numerators({isqrt(n) for n in misses}, mu_prefix)}
        for n in misses:
            a, big, _ = series[isqrt(n)][0]
            out[n] = n * a * a / (big * big)
    return out


def harmonic_series_many(
    cutoffs: Iterable[int], mu_prefix: MoebiusTable
) -> dict[int, HarmonicMuSeries]:
    """Series at every requested cutoff from one accumulation pass."""
    bank = {}
    for k, parts, reduction in _numerators(cutoffs, mu_prefix):
        series = HarmonicMuSeries(k, *(_reduced(n // g, d // g) for n, d, g in parts))
        object.__setattr__(series, "_reduction", reduction)
        bank[k] = series
    return bank


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


# Where each class's flagged products start in _Reduction.flagged: p_minus's and
# p_plus's, then the even class's p_zero's and gap's.
_CLASS_FLAGS = {"general": 0, "odd": 2, "even": 4}


def _unreduced(series: HarmonicMuSeries) -> tuple[_Reduction, int, int, int, int, int, int]:
    """The series' reduction data, then a, a_odd, b, b_odd, P_K and P_K^2,
    given back from its reduced values and their gcds by small
    multiplications: s2 is b/P_K^2 reduced by g_b, so P_K^2 is its
    denominator times g_b, with no square of P_K."""
    reduction = series._reduction
    if reduction is None:
        raise ValueError(
            "the series carries no reduction data: make it with harmonic_series "
            "or harmonic_series_many"
        )
    g_a, g_a_odd, g_b, g_b_odd = reduction.gcds
    return (
        reduction,
        series.m.numerator * g_a,
        series.m_odd.numerator * g_a_odd,
        series.s2.numerator * g_b,
        series.s2_odd.numerator * g_b_odd,
        series.m.denominator * g_a,
        series.s2.denominator * g_b,
    )


def _lowest(numerator: int, over: int, flagged: int, big: int, big2: int, small: int) -> Fraction:
    """numerator / (over P_K^2) in lowest terms, for a triple numerator over
    P_K^2 or 2 P_K^2 (over = 1 or 2), with big = P_K and big2 = P_K^2.
    flagged is the product of the primes in (R, K] that divide the
    numerator, and small that of the primes up to min(R, K). One exact
    division by flagged, a gcd within flagged for the p^2 that divide, and
    one within over small^2; the denominator over P_K^2 / flagged is over
    big2 where flagged is 1 and over P_K (P_K / flagged) otherwise, which
    costs less than big2 / flagged."""
    rest = numerator // flagged
    part = over * small * small
    g = math.gcd(rest % flagged, flagged) * math.gcd(numerator % part, part)
    denominator = over * big2 if flagged == 1 else over * big * (big // flagged)
    return _reduced(rest // g, denominator // g)


def _class_numerators(
    series: HarmonicMuSeries, parity_class: ParityClass
) -> tuple[Sequence[int], tuple[int, ...], tuple[int, int, int]]:
    """The class's four numerators at the series' unreduced sums (_quad of its
    own sums, or _even of the general and odd ones: each class squares only
    the sums it reads), the flagged products from the class's first on, and
    the primorials _lowest reads after them: P_K, P_K^2 and that to min(R, K)."""
    if parity_class not in _CLASS_FLAGS:
        raise ValueError(f"unknown parity class {parity_class!r}")
    reduction, a, a_odd, b, b_odd, big, big2 = _unreduced(series)
    if parity_class == "odd":
        forms = _quad(a_odd, b_odd, big2)
    else:
        forms = _quad(a, b, big2)
        if parity_class == "even":
            forms = _even(forms, _quad(a_odd, b_odd, big2))
    return forms, reduction.flagged[_CLASS_FLAGS[parity_class] :], (big, big2, reduction.small)


def triple_from_series(
    series: HarmonicMuSeries, parity_class: ParityClass
) -> tuple[Fraction, Fraction, Fraction]:
    """(p_minus, p_plus, p_zero) for a class, from its numerators over 2 P_K^2
    and P_K^2 (_class_numerators), each reduced by its flagged primes
    (_lowest); the general and odd p_zero, 1 - s2, needs no reduction, being
    prime to its denominator as s2 is."""
    (minus, plus, zero, _), flags, primorials = _class_numerators(series, parity_class)
    if parity_class == "even":
        p_zero = _lowest(zero, 1, flags[2], *primorials)
    else:
        s2 = series.s2_odd if parity_class == "odd" else series.s2
        p_zero = _reduced(s2.denominator - s2.numerator, s2.denominator)
    return _lowest(minus, 2, flags[0], *primorials), _lowest(plus, 2, flags[1], *primorials), p_zero


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
    if parity_class == "general":
        return series.m**2
    if parity_class == "odd":
        return series.m_odd**2
    if parity_class == "even":
        (*_, gap), flags, primorials = _class_numerators(series, parity_class)
        return _lowest(gap, 1, flags[3], *primorials)
    raise ValueError(f"unknown parity class {parity_class!r}")


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
