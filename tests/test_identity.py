import random
from dataclasses import dataclass
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuslab import MoebiusTable, ResourceLimitError, sieve_moebius
from mobiuslab import identity as identity_module
from mobiuslab import sieve as sieve_module
from mobiuslab.identity import (
    _divisor_items,
    _identity_sum,
    _require_prefix,
    bootstrap_identity,
    identity_blocks,
    moebius_via_identity,
    moebius_via_identity_coprime,
    moebius_via_identity_odd,
)


def delta_divides(n: int, d: int) -> int:
    """1 when d divides n, else 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    return 1 if n % d == 0 else 0


@dataclass(frozen=True)
class IdentityTerm:
    i: int
    j: int
    coefficient: int  # mu(i) * mu(j), nonzero
    fired: bool  # i*j divides n


@dataclass(frozen=True)
class IdentityTermSet:
    """All nonzero-coefficient terms of the delta sum at n."""

    n: int
    cutoff: int
    terms: tuple[IdentityTerm, ...]

    def value(self) -> int:
        return -sum(t.coefficient for t in self.terms if t.fired)


def identity_terms(n: int, mu_prefix: MoebiusTable) -> IdentityTermSet:
    """The literal pair grid of the delta sum at n, O(cutoff^2) terms: the
    reference the divisor scan and the range blocks are checked against."""
    if n < 2:
        raise ValueError("n must be >= 2")
    cutoff = _require_prefix(n, mu_prefix)
    mu = mu_prefix.values
    nonzero = [(i, int(mu[i])) for i in range(1, cutoff + 1) if mu[i] != 0]
    terms = tuple(
        IdentityTerm(i=i, j=j, coefficient=mi * mj, fired=n % (i * j) == 0)
        for i, mi in nonzero
        for j, mj in nonzero
    )
    return IdentityTermSet(n=n, cutoff=cutoff, terms=terms)


def loop_divisor_items(n, cutoff, values):
    """The per-d Python loop the numpy divisor scan replaced."""
    items = []
    for d in range(1, cutoff + 1):
        if n % d == 0:
            m = int(values[d])
            if m != 0:
                items.append((d, m))
    return items


def range_sums(lo, hi, mu, **kwargs):
    blocks = list(identity_blocks(lo, hi, mu, **kwargs))
    assert [start for start, _ in blocks] == sorted(start for start, _ in blocks)
    return np.concatenate([sums for _, sums in blocks])


class TestDeltaDivides:
    def test_fixtures(self):
        assert delta_divides(6, 3) == 1
        assert delta_divides(6, 4) == 0
        assert delta_divides(36, 36) == 1

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            delta_divides(6, 0)

    @given(n=st.integers(1, 10**6), d=st.integers(1, 10**4))
    def test_matches_modulo(self, n, d):
        assert delta_divides(n, d) == (1 if n % d == 0 else 0)


class TestIdentityTerms:
    def test_terms_match_pair_grid_semantics(self, table_10k):
        for n in range(2, 400):
            term_set = identity_terms(n, table_10k)
            assert term_set.cutoff == isqrt(n)
            for t in term_set.terms:
                assert 1 <= t.i <= term_set.cutoff
                assert 1 <= t.j <= term_set.cutoff
                assert t.coefficient != 0
                assert t.fired == (n % (t.i * t.j) == 0)

    def test_full_grid_agrees_with_fast_path(self, table_10k):
        # the naive pair enumeration and the divisor walk are independent routes
        for n in range(2, 600):
            assert identity_terms(n, table_10k).value() == moebius_via_identity(n, table_10k)


class TestDivisorScan:
    def test_scan_matches_pair_grid(self, table_100k):
        # every cutoff takes the numpy scan; the grid is the literal sum
        rng = random.Random(11)
        for n in [rng.randrange(200**2, 230**2) for _ in range(12)]:
            assert moebius_via_identity(n, table_100k) == identity_terms(n, table_100k).value()

    def test_scan_matches_loop_up_to_1e10(self, table_100k):
        rng = random.Random(12)
        values = table_100k.values
        for _ in range(200):
            n = int(10 ** rng.uniform(1, 10))
            items = loop_divisor_items(n, isqrt(n), values)
            assert _divisor_items(n, isqrt(n), values) == items
            assert moebius_via_identity(n, table_100k) == _identity_sum(n, items)


class TestMoebiusViaIdentity:
    def test_single_term_at_two(self, table_10k):
        assert moebius_via_identity(2, table_10k) == -1

    def test_four_terms_cancel_at_four(self, table_10k):
        # pairs over {1,2}^2 give 1 - 1 - 1 + 1
        assert moebius_via_identity(4, table_10k) == 0

    def test_nine(self, table_10k):
        # (1,1), (1,3), (3,1), (3,3) give 1 - 2 + 1
        assert moebius_via_identity(9, table_10k) == 0

    def test_matches_sieve_exhaustively(self, table_10k):
        values = table_10k.values
        for n in range(2, 10**4 + 1):
            assert moebius_via_identity(n, table_10k) == int(values[n])

    def test_small_n_rejected(self, table_10k):
        with pytest.raises(ValueError):
            moebius_via_identity(1, table_10k)

    def test_insufficient_prefix_names_cutoff(self):
        small = sieve_moebius(10)
        with pytest.raises(ValueError, match="up to 31"):
            moebius_via_identity(1000, small)


class TestOddRestricted:
    def test_fixtures(self, table_10k):
        assert moebius_via_identity_odd(3, table_10k) == -1
        assert moebius_via_identity_odd(9, table_10k) == 0
        # fired pairs (1,1), (1,3), (3,1): -(1 - 1 - 1) = +1
        assert moebius_via_identity_odd(15, table_10k) == 1

    def test_even_n_rejected(self, table_10k):
        with pytest.raises(ValueError):
            moebius_via_identity_odd(10, table_10k)

    def test_matches_general_form_on_odds(self, table_10k):
        for n in range(3, 10**4 + 1, 2):
            assert moebius_via_identity_odd(n, table_10k) == int(table_10k.values[n])


class TestCoprimeRestricted:
    def test_prime_reduces_to_single_term(self, table_10k):
        assert moebius_via_identity_coprime(7, {2, 3, 5}, table_10k) == -1

    def test_fixtures(self, table_10k):
        # indices coprime to 6 up to 5: (1,1), (1,5), (5,1), (5,5) give 1 - 2 + 1
        assert moebius_via_identity_coprime(25, {2, 3}, table_10k) == 0
        # fired pairs (1,1), (1,5), (5,1)
        assert moebius_via_identity_coprime(35, {2, 3}, table_10k) == 1

    def test_shared_factor_rejected(self, table_10k):
        with pytest.raises(ValueError):
            moebius_via_identity_coprime(14, {2, 3}, table_10k)

    def test_restriction_is_conservative(self, table_10k):
        rng = random.Random(7)
        for excluded in ({2}, {2, 3}, {2, 3, 5}):
            checked = 0
            while checked < 120:
                n = rng.randrange(2, 10**4)
                if any(n % p == 0 for p in excluded):
                    continue
                value = moebius_via_identity_coprime(n, excluded, table_10k)
                assert value == int(table_10k.values[n])
                checked += 1


class TestIdentityBlocks:
    def test_matches_scalar_on_1e5(self, table_100k):
        top = 10**5
        general = range_sums(2, top + 1, table_100k.values)
        assert general.tolist() == [moebius_via_identity(n, table_100k) for n in range(2, top + 1)]
        odd = range_sums(3, top + 1, table_100k.values, odd=True)
        assert odd[::2].tolist() == [
            moebius_via_identity_odd(n, table_100k) for n in range(3, top + 1, 2)
        ]
        assert not odd[1::2].any()

    @pytest.mark.parametrize("block_size", [1, 2, 7, 64, 999, 1500, 4096])
    def test_block_size_does_not_change_output(self, monkeypatch, table_10k, block_size):
        mu = table_10k.values
        lo, hi = (2, 600) if block_size <= 2 else (2, 3001)
        whole = range_sums(lo, hi, mu)
        whole_odd = range_sums(lo + 1, hi, mu, odd=True)
        monkeypatch.setattr(identity_module, "IDENTITY_BLOCK_SIZE", block_size)
        assert np.array_equal(range_sums(lo, hi, mu), whole)
        assert np.array_equal(range_sums(lo + 1, hi, mu, odd=True), whole_odd)

    def test_blocks_are_bounded(self, monkeypatch, table_10k):
        monkeypatch.setattr(identity_module, "IDENTITY_BLOCK_SIZE", 999)
        blocks = identity_blocks(2, 10**4 + 1, table_10k.values)
        sizes = [sums.size for _, sums in blocks]
        assert max(sizes) == 999 and sum(sizes) == 10**4 - 1

    def test_block_size_read_at_each_call(self, monkeypatch, table_10k):
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 1000)
        monkeypatch.setattr(identity_module, "IDENTITY_BLOCK_SIZE", 999)
        with pytest.raises(ResourceLimitError, match="blocks of 999 "):
            identity_blocks(2, 10**4 + 1, table_10k.values)

    def test_wrong_table_agrees_with_scalar(self, monkeypatch):
        # the engine reads mu only from the table, as the scalar form does
        rng = np.random.default_rng(3)
        values = rng.integers(-1, 2, 2001).astype(np.int8)
        values[0] = 0
        table = MoebiusTable(limit=2000, values=values)
        monkeypatch.setattr(identity_module, "IDENTITY_BLOCK_SIZE", 333)
        got = range_sums(2, 2001, values)
        assert got.tolist() == [moebius_via_identity(n, table) for n in range(2, 2001)]

    def test_empty_range(self, table_10k):
        assert list(identity_blocks(3, 3, table_10k.values, odd=True)) == []

    def test_bad_arguments_rejected(self, table_10k):
        with pytest.raises(ValueError):
            identity_blocks(1, 10, table_10k.values)
        with pytest.raises(ValueError, match="up to 11"):
            identity_blocks(2, 122, sieve_moebius(9).values)

    def test_memory_budget_enforced(self):
        # a broadcast view reports 2 GiB without allocating it
        huge = np.broadcast_to(np.int8(0), (2 << 30,))
        with pytest.raises(ResourceLimitError):
            identity_blocks(2, 100, huge)


class TestBootstrap:
    def test_first_four_values(self):
        assert bootstrap_identity(4).values[1:].tolist() == [1, -1, -1, 0]

    def test_value_at_ten(self):
        assert bootstrap_identity(10).values[10] == 1

    def test_matches_sieve_at_scale(self, table_10k):
        rebuilt = bootstrap_identity(10**4)
        assert np.array_equal(rebuilt.values, table_10k.values)

    @pytest.mark.parametrize("k", [2, 4, 16, 256])
    def test_matches_sieve_around_squares(self, k):
        # each round fills [L + 1, (L + 1)^2 - 1] from the prefix [1, L]
        for limit in (k * k - 1, k * k, k * k + 1):
            assert np.array_equal(bootstrap_identity(limit).values, sieve_moebius(limit).values)

    def test_tiny_limit_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_identity(1)


class TestEventFrequency:
    def test_delta_firing_rate_matches_reciprocal(self):
        # firing frequency of the (i, j) indicator over n <= 10^6 is 1/(i*j)
        big = 10**6
        n_values = np.arange(1, big + 1, dtype=np.int64)
        rate = {}
        for product in range(1, 101):
            rate[product] = np.count_nonzero(n_values % product == 0) / big
        for i in range(1, 101):
            for j in range(1, 100 // i + 1):
                assert abs(rate[i * j] - 1 / (i * j)) < 1e-4

    @given(n=st.integers(1, 10**6), i=st.integers(1, 10), j=st.integers(1, 10))
    @settings(max_examples=100)
    def test_indicator_agrees_with_delta_divides(self, n, i, j):
        assert delta_divides(n, i * j) in (0, 1)
        assert delta_divides(n, i * j) == (n % (i * j) == 0)
