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

Partial sums are accumulated as integer numerators over lcm(1..K), with
reduction deferred to the requested cutoffs; this keeps sweeps over
thousands of cutoffs exact without per-step gcd cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Literal

from mobiuslab.sieve import MoebiusTable

ParityClass = Literal["general", "odd", "even"]


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


def harmonic_series_many(
    cutoffs: Iterable[int], mu_prefix: MoebiusTable
) -> dict[int, HarmonicMuSeries]:
    """Series at every requested cutoff from one accumulation pass."""
    wanted = sorted(set(cutoffs))
    if not wanted:
        return {}
    if wanted[0] < 1:
        raise ValueError("cutoffs must be >= 1")
    k_max = wanted[-1]
    if mu_prefix.limit < k_max:
        raise ValueError(
            f"prefix table covers {mu_prefix.limit}, cutoff {k_max} requested"
        )
    lcm = math.lcm(*range(1, k_max + 1))
    lcm2 = lcm * lcm
    values = mu_prefix.values
    targets = set(wanted)
    out: dict[int, HarmonicMuSeries] = {}
    num_m = num_m_odd = num_s2 = num_s2_odd = 0
    for i in range(1, k_max + 1):
        mu_i = int(values[i])
        if mu_i:
            term_m = mu_i * (lcm // i)
            term_s2 = mu_i * (lcm2 // (i * i))
            num_m += term_m
            num_s2 += term_s2
            if i % 2:
                num_m_odd += term_m
                num_s2_odd += term_s2
        if i in targets:
            out[i] = HarmonicMuSeries(
                cutoff=i,
                m=Fraction(num_m, lcm),
                m_odd=Fraction(num_m_odd, lcm),
                s2=Fraction(num_s2, lcm2),
                s2_odd=Fraction(num_s2_odd, lcm2),
            )
    return out


def harmonic_series(cutoff: int, mu_prefix: MoebiusTable) -> HarmonicMuSeries:
    """Exact series at one cutoff."""
    return harmonic_series_many([cutoff], mu_prefix)[cutoff]


def _class_sums(
    series: HarmonicMuSeries, parity_class: ParityClass
) -> tuple[Fraction, Fraction]:
    """(m^2, s2) of a class: the all-index sums, the odd-index sums, or
    2 * all - odd for the even class."""
    if parity_class == "general":
        return series.m**2, series.s2
    if parity_class == "odd":
        return series.m_odd**2, series.s2_odd
    if parity_class == "even":
        return 2 * series.m**2 - series.m_odd**2, 2 * series.s2 - series.s2_odd
    raise ValueError(f"unknown parity class {parity_class!r}")


def _check_n(n: int, parity_class: ParityClass) -> None:
    """n must be >= 2 and, for the odd and even classes, of that parity."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if (parity_class == "odd" and n % 2 == 0) or (parity_class == "even" and n % 2):
        raise ValueError(f"{parity_class} class requires {parity_class} n")


def _series_for(n: int, mu_prefix: MoebiusTable, series: HarmonicMuSeries | None):
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
    msq, s2 = _class_sums(series, parity_class)
    half = Fraction(1, 2)
    return (half * msq + half * s2, -half * msq + half * s2, 1 - s2)


def _triple(
    n: int,
    parity_class: ParityClass,
    mu_prefix: MoebiusTable,
    series: HarmonicMuSeries | None,
) -> ProbabilityTriple:
    _check_n(n, parity_class)
    p_minus, p_plus, p_zero = triple_from_series(
        _series_for(n, mu_prefix, series), parity_class
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
    _check_n(n, parity_class)
    return _class_sums(_series_for(n, mu_prefix, series), parity_class)[0]


def interval_of(n: int, mu_prefix: MoebiusTable) -> IntervalBracket:
    """Bracketing squares of consecutive squarefree integers around n."""
    if n < 2:
        raise ValueError("n must be >= 2")
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
