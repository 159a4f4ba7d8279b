import bisect
import dataclasses
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuslab import ResourceLimitError, sieve_moebius
from mobiuslab import probability as probability_module
from mobiuslab import sieve as sieve_module
from mobiuslab.probability import (
    HarmonicMuSeries,
    _BLOCK,
    _numerators,
    _reduced,
    _unreduced,
    delta_prob,
    density_limits,
    harmonic_series,
    harmonic_series_many,
    interval_of,
    prob_triple_even,
    prob_triple_general,
    prob_triple_odd,
    shift_floats,
    triple_from_series,
)
from mobiuslab.stochastic import _RECURSION_BYTES_PER_ROOT, checkpoint_grid

F = Fraction
CLASSES = ("general", "odd", "even")
# Banks whose least cutoff K_0 is large: only there does K_0 // (q + 1), the
# low end of the primes _numerators tests at quotient q, rise above R at small q
LATE_BANKS = [[5000, 10000], [7919, 7920], [3000, 9000, 9999], [99991, 100000]]


def numerators_at(cutoffs, table):
    """{K: the four (numerator, denominator, gcd) of _numerators at K}."""
    return {k: parts for k, parts, _ in _numerators(cutoffs, table)}


def reference_numerators(cutoffs, table):
    """The per-i oracle for the block accumulator: numerators over
    L = lcm(1..K) and L^2, one term mu(i) * (L // i) at a time."""
    wanted = set(cutoffs)
    lcm = math.lcm(*range(1, max(wanted) + 1))
    lcm2 = lcm * lcm
    out = {}
    a = a_odd = b = b_odd = 0
    for i in range(1, max(wanted) + 1):
        mu_i = int(table.values[i])
        if mu_i:
            term_m = mu_i * (lcm // i)
            term_s2 = mu_i * (lcm2 // (i * i))
            a += term_m
            b += term_s2
            if i % 2:
                a_odd += term_m
                b_odd += term_s2
        if i in wanted:
            out[i] = (a, a_odd, b, b_odd)
    return lcm, out


def assert_numerators_match_reference(cutoffs, table):
    """Both sides name the same four rationals at every cutoff, checked by
    cross-multiplying: a/P_K, a_odd/P_K, b/P_K^2 and b_odd/P_K^2 against the
    reference over lcm(1..K) and its square."""
    got = numerators_at(cutoffs, table)
    lcm, want = reference_numerators(cutoffs, table)
    assert sorted(got) == sorted(want)
    for k, sums in want.items():
        big = got[k][0][1]
        assert [d for _, d, _ in got[k]] == [big, big, big * big, big * big], k
        for (n, d, _), ref, ref_d in zip(got[k], sums, (lcm, lcm, lcm**2, lcm**2)):
            assert n * ref_d == ref * d, k


def assert_reduced_like_fraction(cutoffs, table):
    """At every cutoff each gcd is math.gcd of its numerator and denominator,
    and the series' four values have the numerator and denominator of the
    gcd-normalized Fraction(n, d), the oracle of the reduction."""
    bank = harmonic_series_many(cutoffs, table)
    seen = set()
    for k, parts in numerators_at(cutoffs, table).items():
        series = bank[k]
        values = (series.m, series.m_odd, series.s2, series.s2_odd)
        for value, (n, d, g) in zip(values, parts):
            want = F(n, d)
            assert g == math.gcd(n, d), k
            assert (value.numerator, value.denominator) == (want.numerator, want.denominator), k
        seen.add(k)
    assert seen == set(cutoffs)


def reference_triple(series, cls):
    """The oracle of the triple reduction: p_minus, p_plus, p_zero and the gap
    by Fraction arithmetic, each normalized by its gcd. A class's value comes
    from the all-index and odd-index sums: the first, the second, or
    2 * all - odd for the even class."""

    def of_class(whole, odd, power=1):
        if cls == "general":
            return whole**power
        if cls == "odd":
            return odd**power
        return 2 * whole**power - odd**power

    msq = of_class(series.m, series.m_odd, 2)
    s2 = of_class(series.s2, series.s2_odd)
    return (s2 + msq) / 2, (s2 - msq) / 2, 1 - s2, msq


def n_at(cutoff, cls):
    """The least n >= 2 of the class with floor(sqrt(n)) = cutoff."""
    return next(
        n
        for n in range(max(cutoff * cutoff, 2), cutoff * cutoff + 3)
        if cls == "general" or (n % 2 == 1) == (cls == "odd")
    )


def triple_terms(series, table):
    """Every class's p_minus, p_plus, p_zero and gap, as (numerator,
    denominator) pairs, from the series through the functions under test."""
    out = []
    for cls in CLASSES:
        gap = delta_prob(n_at(series.cutoff, cls), cls, table, series=series)
        out += [(v.numerator, v.denominator) for v in (*triple_from_series(series, cls), gap)]
    return out


def assert_triples_like_fraction(cutoffs, table, singles=False):
    """At every cutoff of one bank, each class's p_minus, p_plus, p_zero and
    gap have the numerator and denominator of the Fraction oracle; with
    singles, the series of each cutoff alone gives the same pairs."""
    bank = harmonic_series_many(cutoffs, table)
    assert sorted(bank) == sorted(set(cutoffs))
    for k, series in bank.items():
        oracle = [v for cls in CLASSES for v in reference_triple(series, cls)]
        want = [(v.numerator, v.denominator) for v in oracle]
        got = triple_terms(series, table)
        assert got == want, k
        if singles:
            assert triple_terms(harmonic_series(k, table), table) == got, k


def primes_to(bound):
    return [p for p in range(2, bound + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


class TestBlockAccumulator:
    def test_every_cutoff_to_3000(self, table_10k):
        assert_numerators_match_reference(range(1, 3001), table_10k)
        assert_reduced_like_fraction(range(1, 3001), table_10k)

    def test_cutoffs_at_block_edges(self, table_10k):
        edges = [j * _BLOCK + d for j in range(1, 12) for d in (-1, 0, 1)]
        assert_numerators_match_reference(edges, table_10k)
        assert_reduced_like_fraction(edges, table_10k)
        for k in edges:
            assert_numerators_match_reference([k], table_10k)
            assert_reduced_like_fraction([k], table_10k)

    def test_cutoffs_where_the_primorial_grows(self, table_10k):
        # P_K takes a factor p at each prime p: the cutoffs p - 1, p and p + 1,
        # alone and as one bank
        around = sorted({p + d for p in primes_to(1000) for d in (-1, 0, 1)} - {0})
        assert_reduced_like_fraction(around, table_10k)
        for k in around:
            assert_reduced_like_fraction([k], table_10k)

    def test_criterion_4_bank(self, table_100k):
        # the 927 cutoffs of test_acceptance's criterion 4, up to 10^4
        rng = random.Random(20260809)
        cutoffs = {isqrt(rng.randrange(2, 10**8 + 1)) for _ in range(1000)}
        assert len(cutoffs) == 927
        assert_reduced_like_fraction(cutoffs, table_100k)

    @pytest.mark.parametrize("cutoffs", LATE_BANKS)
    def test_banks_whose_least_cutoff_is_large(self, table_100k, cutoffs):
        assert_reduced_like_fraction(cutoffs, table_100k)
        if max(cutoffs) <= 10**4:  # the per-i oracle takes ~22 s at 10^5
            assert_numerators_match_reference(cutoffs, table_100k)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_cutoff_sets(self, table_100k, seed):
        rng = random.Random(seed)
        cutoffs = rng.sample(range(1, 10**4 + 1), 200)
        assert_numerators_match_reference(cutoffs, table_100k)
        bank = harmonic_series_many(cutoffs, table_100k)
        lcm, want = reference_numerators(cutoffs, table_100k)
        for k in rng.sample(cutoffs, 3):
            a, a_odd, b, b_odd = want[k]
            assert bank[k] == HarmonicMuSeries(
                k, F(a, lcm), F(a_odd, lcm), F(b, lcm**2), F(b_odd, lcm**2)
            )

    def test_denominator_is_lcm_of_squarefree(self, table_10k):
        # P_K, the lcm of the squarefree i <= K, at every K to 2000 from one pass
        got = numerators_at(range(1, 2001), table_10k)
        lcm = 1
        for k in range(1, 2001):
            lcm = math.lcm(lcm, k) if table_10k.values[k] else lcm
            assert got[k][0][1] == lcm, k

    def test_reduced_skips_only_the_gcd(self):
        pairs = [(0, 1), (1, 1), (-3, 1), (5, 6), (-7, 30), (2**200 + 1, 3**150)]
        pairs.append((-(3**99), 2**127))
        for n, d in pairs:
            assert math.gcd(n, d) == 1
            value = _reduced(n, d)
            assert type(value) is F
            assert value == F(n, d) and hash(value) == hash(F(n, d)), (n, d)
            assert (value.numerator, value.denominator) == (n, d)
        assert _reduced(4, 1) == 4 and hash(_reduced(4, 1)) == hash(4)

    def test_validation(self, table_10k):
        assert list(_numerators([], table_10k)) == []
        with pytest.raises(ValueError):
            list(_numerators([0, 5], table_10k))
        with pytest.raises(ValueError):
            list(_numerators([10**4 + 1], table_10k))

    @pytest.mark.parametrize("cutoff", [1000, 10**4, 3 * 10**4])
    def test_peak_within_its_charge(self, monkeypatch, table_100k, cutoff):
        charged = []
        monkeypatch.setattr(
            probability_module, "_charge", lambda needed, what: charged.append(needed)
        )
        tracemalloc.start()
        try:
            for _ in _numerators([cutoff], table_100k):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charged == [probability_module._SERIES_BYTES_PER_CUTOFF * cutoff]
        assert peak <= charged[0] + 4096  # and a few small objects

    def test_memory_budget_enforced(self, monkeypatch, table_10k):
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 10**4)
        with pytest.raises(ResourceLimitError, match="the exact series to cutoff 1000"):
            harmonic_series(1000, table_10k)


class TestTripleReduction:
    def test_every_cutoff_to_3000(self, table_10k):
        assert_triples_like_fraction(range(1, 3001), table_10k, singles=True)

    def test_cutoffs_where_the_primorial_grows(self, table_10k):
        around = sorted({p + d for p in primes_to(1000) for d in (-1, 0, 1)} - {0})
        assert_triples_like_fraction(around, table_10k, singles=True)

    def test_criterion_4_bank(self, table_100k):
        rng = random.Random(20260809)
        cutoffs = {isqrt(rng.randrange(2, 10**8 + 1)) for _ in range(1000)}
        assert len(cutoffs) == 927
        assert_triples_like_fraction(cutoffs, table_100k)

    @pytest.mark.parametrize("cutoffs", LATE_BANKS)
    def test_banks_whose_least_cutoff_is_large(self, table_100k, cutoffs):
        assert_triples_like_fraction(cutoffs, table_100k)

    @pytest.mark.parametrize("cutoffs", [[10**4], [5000, 10**4]])
    def test_lead_forms_only_at_quotients_a_prime_takes(self, monkeypatch, table_100k, cutoffs):
        # the pass forms the lead values at each q <= top // (R + 1) with a prime
        # in (max(K_0 // (q + 1), R), top // q], from its own sums over P_q
        top, least = max(cutoffs), min(cutoffs)
        r = isqrt(top)
        primes = primes_to(top)
        stops = [
            q
            for q in range(1, top // (r + 1) + 1)
            if any(max(least // (q + 1), r) < p <= top // q for p in primes)
        ]
        assert stops
        at = harmonic_series_many(stops, table_100k)
        sums = []
        lead_forms = probability_module._lead_forms

        def counted(*args):
            sums.append(args)
            return lead_forms(*args)

        monkeypatch.setattr(probability_module, "_lead_forms", counted)
        assert_triples_like_fraction(cutoffs, table_100k)
        assert len(sums) == len(stops)
        for q, (a, a_odd, b, b_odd) in zip(stops, sums):
            big = math.prod(p for p in primes if p <= q)
            series = at[q]
            assert (F(a, big), F(a_odd, big)) == (series.m, series.m_odd), q
            assert (F(b, big * big), F(b_odd, big * big)) == (series.s2, series.s2_odd), q

    def test_a_prime_divides_each_value_as_it_divides_its_lead_form(self, table_100k):
        # the lemma the stops rest on: for p > max(isqrt(K), 2) and q = K // p,
        # p divides each of the nine values at K exactly when it divides the
        # matching lead form of the sums at q; the values are written out here
        cutoffs = [*range(2, 401), 3162, 10**4]
        bank = harmonic_series_many([*range(1, 401), 3162, 10**4], table_100k)
        primes = primes_to(10**4)
        checks = 0
        for k in cutoffs:
            _, a, a_odd, b, b_odd, _, big2 = _unreduced(bank[k])
            square, square_odd = a * a, a_odd * a_odd
            values = (
                a * a_odd * b * b_odd,
                b + square,
                b - square,
                b_odd + square_odd,
                b_odd - square_odd,
                2 * (b + square) - (b_odd + square_odd),
                2 * (b - square) - (b_odd - square_odd),
                big2 - 2 * b + b_odd,
                2 * square - square_odd,
            )
            for p in primes[bisect.bisect_right(primes, max(isqrt(k), 2)) :]:
                if p > k:
                    break
                _, *small, _, _ = _unreduced(bank[k // p])
                forms = probability_module._lead_forms(*small)
                assert len(forms) == len(values)
                for j, (value, form) in enumerate(zip(values, forms)):
                    assert (value % p == 0) == (form % p == 0), (k, p, j)
                    checks += 1
        assert checks == 151_578

    def test_square_of_the_primorial_is_read_not_squared(self, table_10k, table_100k):
        # P_K^2 is s2's denominator times its gcd, at the cutoffs of the tests above
        rng = random.Random(20260809)
        criterion_4 = {isqrt(rng.randrange(2, 10**8 + 1)) for _ in range(1000)}
        around = {p + d for p in primes_to(1000) for d in (-1, 0, 1)} - {0}
        banks = [(range(1, 3001), table_10k), (around, table_10k), (criterion_4, table_100k)]
        banks += [(cutoffs, table_100k) for cutoffs in LATE_BANKS]
        for cutoffs, table in banks:
            for k, series in harmonic_series_many(cutoffs, table).items():
                *_, big, big2 = _unreduced(series)
                assert big2 == big * big, k

    def test_hand_built_series_has_no_reduction(self, table_10k):
        bank = harmonic_series_many([3, 50, 1000], table_10k)
        for k, built in bank.items():
            hand = HarmonicMuSeries(k, built.m, built.m_odd, built.s2, built.s2_odd)
            # the reduction data takes no part in equality, hashing or repr
            assert hand == built and hash(hand) == hash(built) and repr(hand) == repr(built)
            for series in (hand, dataclasses.replace(built, m=built.m)):
                for cls in CLASSES:
                    with pytest.raises(ValueError, match="harmonic_series"):
                        triple_from_series(series, cls)
                for fn, cls in (
                    (prob_triple_general, "general"),
                    (prob_triple_odd, "odd"),
                    (prob_triple_even, "even"),
                ):
                    with pytest.raises(ValueError, match="harmonic_series"):
                        fn(n_at(k, cls), table_10k, series=series)
                with pytest.raises(ValueError, match="harmonic_series"):
                    delta_prob(n_at(k, "even"), "even", table_10k, series=series)
                # the general and odd gaps read only the reduced m
                for cls in ("general", "odd"):
                    n = n_at(k, cls)
                    assert delta_prob(n, cls, table_10k, series=series) == delta_prob(
                        n, cls, table_10k, series=built
                    )

    def test_unknown_class(self, table_10k):
        with pytest.raises(ValueError, match="unknown parity class"):
            triple_from_series(harmonic_series(5, table_10k), "???")


class TestHarmonicSeries:
    def test_cutoff_one(self, table_10k):
        s = harmonic_series(1, table_10k)
        assert (s.m, s.m_odd, s.s2, s.s2_odd) == (1, 1, 1, 1)

    def test_cutoff_two(self, table_10k):
        s = harmonic_series(2, table_10k)
        assert s.m == F(1, 2)
        assert s.s2 == F(3, 4)

    def test_cutoff_three(self, table_10k):
        # 1 - 1/2 - 1/3, 1 - 1/3, 1 - 1/4 - 1/9, 1 - 1/9
        s = harmonic_series(3, table_10k)
        assert (s.m, s.m_odd, s.s2, s.s2_odd) == (F(1, 6), F(2, 3), F(23, 36), F(8, 9))

    def test_incremental_consistency(self, table_10k):
        bank = harmonic_series_many(range(1, 201), table_10k)
        for k in range(2, 201):
            mu_k = int(table_10k.values[k])
            assert bank[k].m == bank[k - 1].m + F(mu_k, k)
            assert bank[k].s2 == bank[k - 1].s2 + F(mu_k, k * k)
            odd_term = F(mu_k, k) if k % 2 else 0
            assert bank[k].m_odd == bank[k - 1].m_odd + odd_term

    def test_many_matches_single(self, table_10k):
        bank = harmonic_series_many([5, 50, 500], table_10k)
        for k in (5, 50, 500):
            assert bank[k] == harmonic_series(k, table_10k)

    def test_insufficient_table(self):
        with pytest.raises(ValueError):
            harmonic_series(100, sieve_moebius(10))

    def test_tail_bounds(self, table_10k):
        # |s2_K - 6/pi^2| and |s2_odd_K - 8/pi^2| are below the 1/K tail bound
        pi2 = math.pi**2
        for k in (100, 1000, 10**4):
            s = harmonic_series(k, table_10k)
            assert abs(float(s.s2) - 6 / pi2) <= 1 / k
            assert abs(float(s.s2_odd) - 8 / pi2) <= 1 / k

    def test_m_squared_becomes_small(self, table_10k):
        for k in (1000, 3163, 10**4):
            assert float(harmonic_series(k, table_10k).m) ** 2 <= 1e-2


def counting_fallback(monkeypatch):
    """The cutoff lists that shift_floats sends to _numerators, one per call
    (calls from any other function, such as harmonic_series, are not kept)."""
    calls = []

    def wrapper(cutoffs, mu_prefix):
        cutoffs = sorted(cutoffs)
        if sys._getframe(1).f_code is shift_floats.__code__:
            calls.append(cutoffs)
        return _numerators(cutoffs, mu_prefix)

    monkeypatch.setattr(probability_module, "_numerators", wrapper)
    return calls


def exact_floats(ns, table):
    """n a^2 / P_K^2 by int/int division from the exact numerator a of
    m_K = a/P_K: the fallback's path."""
    numerators = numerators_at({isqrt(n) for n in ns}, table)
    out = {}
    for n in ns:
        a, big, _ = numerators[isqrt(n)][0]
        out[n] = n * a * a / (big * big)
    return out


class TestShiftFloats:
    NS = [*checkpoint_grid(1000, 10**6), 1, 3, 4, 8, 9, 999_999]

    @pytest.mark.parametrize("bits", [8, 256])
    def test_both_paths_round_the_exact_series(self, monkeypatch, table_10k, bits):
        monkeypatch.setattr(probability_module, "SHIFT_BITS", bits)
        calls = counting_fallback(monkeypatch)
        got = shift_floats(self.NS, table_10k)
        for n in self.NS:
            assert got[n] == float(n * harmonic_series(isqrt(n), table_10k).m ** 2), n
        fallbacks = [k for cutoffs in calls for k in cutoffs]
        if bits == 8:
            # a bracket of +/- K units of 2^-8 rounds to one double nowhere here
            assert fallbacks == sorted({isqrt(n) for n in self.NS})
        else:
            assert fallbacks == []

    def test_fallback_takes_only_the_failed_cutoffs(self, monkeypatch, table_10k):
        # at E = 64 the smallest cutoffs pass Ziv's test and most others fail
        monkeypatch.setattr(probability_module, "SHIFT_BITS", 64)
        calls = counting_fallback(monkeypatch)
        ns = checkpoint_grid(1, 10**8)
        assert shift_floats(ns, table_10k) == exact_floats(ns, table_10k)
        assert len(calls) == 1 and 0 < len(calls[0]) < len({isqrt(n) for n in ns})

    def test_walk_to_1e10_from_a_small_table(self, monkeypatch, table_100k):
        points = checkpoint_grid(1000, 10**10)
        assert len(points) == 57
        calls = counting_fallback(monkeypatch)
        tracemalloc.start()
        try:
            got = shift_floats(points, table_100k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert got == exact_floats(points, table_100k)
        # within what the walk's class_counts already charges per isqrt(x)
        assert peak <= _RECURSION_BYTES_PER_ROOT * 10**5

    @pytest.mark.parametrize("bits", [12, 256])
    @given(ns=st.lists(st.integers(1, 10**8), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_random_n(self, table_10k, bits, ns):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probability_module, "SHIFT_BITS", bits)
            assert shift_floats(ns, table_10k) == exact_floats(ns, table_10k)

    def test_validation(self, table_10k):
        assert shift_floats([], table_10k) == {}
        with pytest.raises(ValueError, match=">= 1"):
            shift_floats([0, 5], table_10k)
        with pytest.raises(ValueError, match="covers 10000, cutoff 10001"):
            shift_floats([10001**2], table_10k)


class TestTripleFixtures:
    def test_interval_two_to_four(self, table_10k):
        for n in (2, 3):
            t = prob_triple_general(n, table_10k)
            assert (t.p_minus, t.p_plus, t.p_zero) == (1, 0, 0)

    def test_interval_four_to_nine(self, table_10k):
        for n in range(4, 9):
            t = prob_triple_general(n, table_10k)
            assert (t.p_minus, t.p_plus, t.p_zero) == (F(1, 2), F(1, 4), F(1, 4))

    def test_interval_nine_to_twentyfive(self, table_10k):
        for n in range(9, 25):
            t = prob_triple_general(n, table_10k)
            assert (t.p_minus, t.p_plus, t.p_zero) == (F(1, 3), F(11, 36), F(13, 36))

    def test_odd_triples(self, table_10k):
        t = prob_triple_odd(3, table_10k)
        assert (t.p_minus, t.p_plus, t.p_zero) == (1, 0, 0)
        for n in (5, 7):
            t = prob_triple_odd(n, table_10k)
            assert (t.p_minus, t.p_plus, t.p_zero) == (1, 0, 0)
        for n in (9, 11, 13, 23):
            t = prob_triple_odd(n, table_10k)
            assert (t.p_minus, t.p_plus, t.p_zero) == (F(2, 3), F(2, 9), F(1, 9))

    def test_even_triples(self, table_10k):
        t = prob_triple_even(2, table_10k)
        assert (t.p_minus, t.p_plus, t.p_zero) == (1, 0, 0)
        for n in (4, 6, 8):
            t = prob_triple_even(n, table_10k)
            assert (t.p_minus, t.p_plus, t.p_zero) == (0, F(1, 2), F(1, 2))
        for n in (10, 12, 24):
            t = prob_triple_even(n, table_10k)
            assert (t.p_minus, t.p_plus, t.p_zero) == (0, F(7, 18), F(11, 18))

    def test_parity_validation(self, table_10k):
        with pytest.raises(ValueError):
            prob_triple_odd(10, table_10k)
        with pytest.raises(ValueError):
            prob_triple_even(11, table_10k)
        with pytest.raises(ValueError):
            prob_triple_general(1, table_10k)

    def test_series_cutoff_mismatch_rejected(self, table_10k):
        series = harmonic_series(4, table_10k)
        with pytest.raises(ValueError):
            prob_triple_general(10, table_10k, series=series)


class TestDeltaProb:
    def test_on_nine_to_twentyfive(self, table_10k):
        assert delta_prob(10, "general", table_10k) == F(1, 36)
        assert delta_prob(11, "odd", table_10k) == F(4, 9)
        # the even gap can go negative: 2/36 - 4/9
        assert delta_prob(10, "even", table_10k) == F(-7, 18)

    def test_parity_mismatch(self, table_10k):
        with pytest.raises(ValueError):
            delta_prob(10, "odd", table_10k)
        with pytest.raises(ValueError):
            delta_prob(11, "even", table_10k)
        with pytest.raises(ValueError):
            delta_prob(11, "???", table_10k)

    @given(n=st.integers(2, 10**4))
    @settings(max_examples=150, deadline=None)
    def test_gap_equals_triple_difference(self, table_10k, n):
        general = prob_triple_general(n, table_10k)
        assert general.p_minus - general.p_plus == delta_prob(n, "general", table_10k)
        if n % 2:
            odd = prob_triple_odd(n, table_10k)
            assert odd.p_minus - odd.p_plus == delta_prob(n, "odd", table_10k)
        else:
            even = prob_triple_even(n, table_10k)
            assert even.p_minus - even.p_plus == delta_prob(n, "even", table_10k)


class TestExactIdentities:
    @given(n=st.integers(2, 10**4))
    @settings(max_examples=150, deadline=None)
    def test_normalization_and_bounds(self, table_10k, n):
        triples = [prob_triple_general(n, table_10k)]
        triples.append(
            prob_triple_odd(n, table_10k) if n % 2 else prob_triple_even(n, table_10k)
        )
        for t in triples:
            assert t.p_minus + t.p_plus + t.p_zero == 1
            for p in (t.p_minus, t.p_plus, t.p_zero):
                assert 0 <= p <= 1

    def test_normalization_for_large_n(self, table_100k):
        rng = random.Random(2024)
        samples = [rng.randrange(2, 10**8) for _ in range(40)]
        bank = harmonic_series_many({isqrt(n) for n in samples}, table_100k)
        for n in samples:
            series = bank[isqrt(n)]
            t = prob_triple_general(n, table_100k, series=series)
            assert t.p_minus + t.p_plus + t.p_zero == 1

    def test_averaging_identity_for_even_n(self, table_10k):
        # even triple = 2 * general - odd-formula, all at the same cutoff
        for n in range(2, 2001, 2):
            series = harmonic_series(isqrt(n), table_10k)
            general = prob_triple_general(n, table_10k, series=series)
            odd_formula = triple_from_series(series, "odd")
            even = prob_triple_even(n, table_10k, series=series)
            assert even.p_minus == 2 * general.p_minus - odd_formula[0]
            assert even.p_plus == 2 * general.p_plus - odd_formula[1]
            assert even.p_zero == 2 * general.p_zero - odd_formula[2]

    def test_squarefree_probability_split(self, table_10k):
        # p_minus + p_plus collapses to the 1/i^2 partial sums
        for n in (7, 50, 300, 4000, 9999):
            series = harmonic_series(isqrt(n), table_10k)
            general = prob_triple_general(n, table_10k, series=series)
            assert general.p_minus + general.p_plus == series.s2
            if n % 2:
                odd = prob_triple_odd(n, table_10k, series=series)
                assert odd.p_minus + odd.p_plus == series.s2_odd
            else:
                even = prob_triple_even(n, table_10k, series=series)
                assert even.p_minus + even.p_plus == 2 * series.s2 - series.s2_odd


class TestIntervals:
    def test_fixtures(self, table_10k):
        assert interval_of(5, table_10k) == interval_of(8, table_10k)
        bracket = interval_of(5, table_10k)
        assert (bracket.lower, bracket.upper) == (4, 9)
        bracket = interval_of(30, table_10k)
        assert (bracket.lower, bracket.upper) == (25, 36)
        # 8 and 9 are squareful, so [49, 100) spans three squares
        bracket = interval_of(70, table_10k)
        assert (bracket.lower, bracket.upper) == (49, 100)

    def test_contains_n(self, table_10k):
        for n in range(2, 3000):
            bracket = interval_of(n, table_10k)
            assert bracket.lower <= n < bracket.upper

    def test_first_bracket_boundaries(self, table_10k):
        # squarefree 1,2,3,5,6,7,10,11,13,14,15 give the boundary squares
        seen = []
        for n in range(2, 225):
            bracket = interval_of(n, table_10k)
            pair = (bracket.lower, bracket.upper)
            if not seen or seen[-1] != pair:
                seen.append(pair)
        assert seen == [
            (1, 4), (4, 9), (9, 25), (25, 36), (36, 49), (49, 100),
            (100, 121), (121, 169), (169, 196), (196, 225),
        ]

    def test_endpoints_are_consecutive_squarefree_squares(self, table_10k):
        for n in range(2, 3000):
            bracket = interval_of(n, table_10k)
            a, b = isqrt(bracket.lower), isqrt(bracket.upper)
            assert a * a == bracket.lower and b * b == bracket.upper
            assert table_10k.values[a] != 0 and table_10k.values[b] != 0
            assert all(table_10k.values[c] == 0 for c in range(a + 1, b))

    def test_triples_constant_on_brackets(self, table_10k):
        previous = None
        for n in range(2, 2001):
            t = prob_triple_general(n, table_10k)
            triple = (t.p_minus, t.p_plus, t.p_zero)
            if previous is not None:
                root = isqrt(n)
                changed = root * root == n and table_10k.values[root] != 0
                if changed:
                    assert triple != previous
                else:
                    assert triple == previous
            previous = triple


class TestDensityLimits:
    def test_values_to_twelve_digits(self):
        limits = density_limits()
        assert limits["odd"].value == pytest.approx(0.810569469139, abs=5e-13)
        assert limits["even"].value == pytest.approx(0.405284734569, abs=5e-13)
        assert limits["all"].value == pytest.approx(0.607927101854, abs=5e-13)

    def test_odd_is_twice_even(self):
        limits = density_limits()
        assert limits["odd"].value == pytest.approx(2 * limits["even"].value, rel=1e-15)

    def test_expressions(self):
        limits = density_limits()
        assert limits["odd"].expression == "8/pi^2"
        assert limits["even"].expression == "4/pi^2"
        assert limits["all"].expression == "6/pi^2"
