import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuslab import (
    MoebiusTable,
    ResourceLimitError,
    harmonic_series,
    mertens_series,
    rng,
    sieve_moebius,
)
from mobiuslab import stochastic as stochastic_module
from mobiuslab.probability import _numerators
from mobiuslab.stochastic import (
    _COIN_BLOCK_BYTES,
    _icbrt,
    MIN_TEST_LENGTH,
    MIN_WALK_LIMIT,
    checkpoint_grid,
    chi_square_balance,
    class_counts,
    class_counts_bytes,
    coin_sign_sequence,
    coin_walk_simulate,
    coin_walk_terminals,
    empirical_frequencies,
    lag_autocorrelation,
    mertens_walk_stats,
    normal_cdf,
    prefix_limit,
    runs_test,
    shift_term,
    sign_sequence_squarefree,
    span_counts,
)


@pytest.fixture(scope="module")
def table_20m():
    return sieve_moebius(2 * 10**7)


# Reference stream keys: the SplitMix64 finalizer on Python ints, one key at a time.
_MASK = (1 << 64) - 1


def mix64_int(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def stream_key(seed: int, stream: int) -> int:
    return mix64_int(seed + stream * 0xD1B54A32D192ED03)


def unmix64_int(x: int) -> int:
    """The inverse of mix64_int: each xorshift and odd multiply undone in turn."""
    for factor, shift in ((1, 31), (0x94D049BB133111EB, 27), (0xBF58476D1CE4E5B9, 30)):
        y = (x * pow(factor, -1, 1 << 64)) & _MASK
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
    return x


def seed_with_first_word(word: int) -> int:
    """A seed whose stream 0 begins with the given word."""
    return unmix64_int((unmix64_int(word) - 0x9E3779B97F4A7C15) & _MASK)


def reference_word_block(seed: int, streams, count: int, start: int = 0) -> list[list[int]]:
    golden = 0x9E3779B97F4A7C15
    return [
        [mix64_int(stream_key(seed, s) + k * golden) for k in range(start + 1, start + count + 1)]
        for s in streams
    ]


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """float64 samples in [0, 1): the top 53 bits of the stream's first count words."""
    top = rng.word_block(seed, [stream], count)[0]
    top >>= np.uint64(11)
    return top * (1.0 / (1 << 53))


def float_coin_sequence(length: int, seed: int, p_plus: float, stream: int) -> np.ndarray:
    """The synthetic coin by the float test it restates in integers: +1 where u < p_plus."""
    return np.where(uniforms(seed, stream, length) < p_plus, 1, -1).astype(np.int8)


def phi_by_quadrature(x: float) -> float:
    """Simpson integration of the normal density, independent of erfc."""
    if x < 0:
        return 1.0 - phi_by_quadrature(-x)
    panels = 4000
    h = x / panels
    total = math.exp(0.0) + math.exp(-x * x / 2)
    for k in range(1, panels):
        t = k * h
        total += (4 if k % 2 else 2) * math.exp(-t * t / 2)
    return 0.5 + (h / 3) * total / math.sqrt(2 * math.pi)


class TestFrequencies:
    def test_first_ten_integers(self, table_10k):
        report = empirical_frequencies(1, 11, "all", table_10k)
        assert (report.count_minus, report.count_plus, report.count_zero) == (4, 3, 3)
        assert report.total == 10
        assert report.freq_squarefree == 0.7

    def test_frequencies_sum_to_one(self, table_10k):
        for parity in ("all", "odd", "even"):
            report = empirical_frequencies(5, 5000, parity, table_10k)
            total = report.freq_minus + report.freq_plus + report.freq_zero
            assert abs(total - 1.0) < 1e-12

    def test_densities_approach_limits(self, table_10m):
        odd = empirical_frequencies(1, 10**7, "odd", table_10m)
        even = empirical_frequencies(1, 10**7, "even", table_10m)
        assert abs(odd.freq_squarefree - odd.limit_value) < 2e-3
        assert abs(even.freq_squarefree - even.limit_value) < 2e-3

    def test_squarefree_fraction_matches_table_exactly(self, table_10k):
        n = table_10k.limit
        report = empirical_frequencies(1, n + 1, "all", table_10k)
        assert report.count_minus + report.count_plus == int(
            np.count_nonzero(table_10k.values[1:])
        )

    def test_empty_range_rejected(self, table_10k):
        with pytest.raises(ValueError):
            empirical_frequencies(4, 5, "odd", table_10k)
        with pytest.raises(ValueError):
            empirical_frequencies(7, 7, "all", table_10k)

    def test_range_outside_table(self, table_10k):
        with pytest.raises(ValueError):
            empirical_frequencies(1, table_10k.limit + 2, "all", table_10k)


def python_counts(table, edges, parity):
    """span_counts by a count of each entry in Python."""
    member = {"all": lambda n: True, "odd": lambda n: n % 2, "even": lambda n: n % 2 == 0}
    mu = table.values.tolist()
    rows = []
    for a, b in zip(edges, edges[1:]):
        signs = [mu[n] for n in range(a, b) if member[parity](n)]
        rows.append([signs.count(-1), signs.count(1), len(signs)])
    return rows


class TestSpanCounts:
    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_matches_python_count(self, table_10k, parity):
        top = table_10k.limit + 1
        # one-wide spans at 4 and 5: one of them holds no member of a parity class
        inner = random.Random(parity).sample(range(6, top), 60) + [4, 5, 6]
        edges = [1] + sorted(set(inner)) + [top]
        expected = python_counts(table_10k, edges, parity)
        got = span_counts(edges, parity, table_10k)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert span_counts([7], parity, table_10k).shape == (0, 3)
        if parity != "all":
            assert [0, 0, 0] in expected

    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_span_ends_at_every_residue(self, table_10k, parity):
        # spans read as whole 8-entry words plus end pieces: ends at every
        # residue mod 8, one-wide spans, and spans inside a single word
        edges = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 18, 26, 35, 44, 53, 62, 71, 80]
        edges += [80 + 64 * k + r for k, r in enumerate(range(8), start=1)] + [700, 701]
        assert span_counts(edges, parity, table_10k).tolist() == python_counts(
            table_10k, edges, parity
        )
        for a in range(1, 17):
            for b in range(a + 1, a + 40):
                assert span_counts([a, b], parity, table_10k).tolist() == python_counts(
                    table_10k, [a, b], parity
                ), (a, b)

    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_spans_across_chunks(self, monkeypatch, table_10k, parity):
        # 3-word chunks, so the long spans cross hundreds of chunk boundaries
        monkeypatch.setattr(stochastic_module, "_SPAN_CHUNK_WORDS", 3)
        edges = [3, 4, 29, 52, 53, 1001, 1024, 5003, 9999, 10001]
        assert span_counts(edges, parity, table_10k).tolist() == python_counts(
            table_10k, edges, parity
        )

    def test_bad_parity_rejected(self, table_10k):
        with pytest.raises(ValueError, match="parity"):
            span_counts([1, 100], "prime", table_10k)

    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_members_match_a_filter(self, parity):
        keep = {"all": lambda n: True, "odd": lambda n: n % 2, "even": lambda n: n % 2 == 0}
        for a in range(1, 41):
            for b in range(a + 1, 41):
                got = list(stochastic_module._members(a, b, parity))
                assert got == [n for n in range(a, b) if keep[parity](n)], (a, b)

    @pytest.mark.parametrize(
        "edges", [[5, 5], [1, 7, 3], [0, 10], [1, 10**4 + 2]]
    )
    def test_bad_edges_rejected(self, table_10k, edges):
        with pytest.raises(ValueError):
            span_counts(edges, "all", table_10k)


class TestSignSequences:
    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_mustats_peak_within_its_charge(self, monkeypatch, table_10m, parity):
        # the sequence plus the tests' temporaries, beside the table mustats already holds
        charged = []
        monkeypatch.setattr(stochastic_module, "_charge", lambda needed, what: charged.append(needed))
        tracemalloc.start()
        try:
            seq = sign_sequence_squarefree(10**6, 2 * 10**6, parity, table_10m)
            chi_square_balance(seq)
            runs_test(seq)
            lag_autocorrelation(seq, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charged and peak <= charged[0] - table_10m.values.nbytes

    def test_synthetic_mustats_peak_within_its_charge(self, monkeypatch):
        # the sequence and its blocks, then the sequence and the tests'
        # temporaries: long enough that the blocks' charge cannot cover these
        charged = []
        monkeypatch.setattr(stochastic_module, "_charge", lambda needed, what: charged.append(needed))
        tracemalloc.start()
        try:
            seq = coin_sign_sequence(10**7, 1)
            chi_square_balance(seq)
            runs_test(seq)
            for lag in (1, 2, 3):
                lag_autocorrelation(seq, lag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charged and peak <= charged[0]

    def test_first_ten(self, table_10k):
        assert sign_sequence_squarefree(1, 11, "all", table_10k).tolist() == [
            1, -1, -1, -1, 1, -1, 1,
        ]

    def test_odd_filter(self, table_10k):
        assert sign_sequence_squarefree(1, 11, "odd", table_10k).tolist() == [1, -1, -1, -1]

    def test_squareful_only_range_is_empty(self, table_10k):
        assert sign_sequence_squarefree(4, 5, "all", table_10k).size == 0

    def test_sign_balance_equals_mertens_difference(self, table_10k):
        series = mertens_series(table_10k)
        for a, b in ((1, 5000), (123, 4567), (9000, 10001)):
            seq = sign_sequence_squarefree(a, b, "all", table_10k)
            plus = int(np.count_nonzero(seq == 1))
            minus = seq.size - plus
            assert plus - minus == series.m(b - 1) - (series.m(a - 1) if a > 1 else 0)


class TestStreamKeys:
    SEEDS = [0, 1, -5, 2**64 + 3, -(2**65)]
    STREAMS = [0, 1, 2**63, 2**64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_word_block_matches_per_key_reference(self, seed):
        block = rng.word_block(seed, self.STREAMS, 5)
        assert block.dtype == np.uint64
        assert block.tolist() == reference_word_block(seed, self.STREAMS, 5)
        as_array = rng.word_block(seed, np.array(self.STREAMS, dtype=np.uint64), 5)
        assert np.array_equal(as_array, block)
        for row, stream in zip(block, self.STREAMS):
            top = [(w >> 11) / 2**53 for w in row.tolist()]
            assert uniforms(seed, stream, 5).tolist() == top
        # counters start + 1 .. start + count, here from the middle of a row
        for start in (1, 2, 2**40, 2**63):
            moved = rng.word_block(seed, self.STREAMS, 3, start=start)
            assert moved.tolist() == reference_word_block(seed, self.STREAMS, 3, start)
        assert np.array_equal(rng.word_block(seed, self.STREAMS, 3, start=2), block[:, 2:])

    def test_uniforms_are_the_top_53_bits(self):
        words = reference_word_block(-5, [7], 4)[0]
        assert uniforms(-5, 7, 4).tolist() == [(w >> 11) / 2**53 for w in words]


class TestCoinWalks:
    def test_single_step_walks(self):
        terminals = coin_walk_terminals(1, 500, seed=3)
        assert set(np.unique(terminals)) <= {-1, 1}
        summary = coin_walk_simulate(1, 500, seed=3, c=1.0, epsilon=0.1)
        assert summary.fraction_within_c_sqrt == 1.0

    @given(steps=st.integers(1, 300), trials=st.integers(1, 64), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_terminal_parity(self, steps, trials, seed):
        terminals = coin_walk_terminals(steps, trials, seed)
        assert np.all((terminals - steps) % 2 == 0)
        assert np.all(np.abs(terminals) <= steps)

    def test_deterministic_for_fixed_seed(self):
        a = coin_walk_terminals(777, 300, seed=11)
        b = coin_walk_terminals(777, 300, seed=11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, coin_walk_terminals(777, 300, seed=12))

    def test_per_trial_streams_are_stable(self):
        # trial t sees the same walk no matter how many trials run
        few = coin_walk_terminals(123, 50, seed=5)
        many = coin_walk_terminals(123, 5000, seed=5)
        assert np.array_equal(few, many[:50])

    def test_de_moivre_laplace_fraction(self):
        summary = coin_walk_simulate(10**4, 4000, seed=1, c=1.96, epsilon=0.1)
        expected = normal_cdf(1.96) - normal_cdf(-1.96)
        assert summary.theoretical_within_c == expected
        assert abs(summary.fraction_within_c_sqrt - expected) < 0.02

    def test_power_bound_fraction_grows_with_steps(self):
        small = coin_walk_simulate(10**2, 10**4, seed=2, c=1.96, epsilon=0.1)
        large = coin_walk_simulate(10**4, 10**4, seed=2, c=1.96, epsilon=0.1)
        assert large.fraction_within_power > small.fraction_within_power

    def test_huge_epsilon_gives_the_fractions_of_epsilon_1_5(self):
        # steps^(1/2 + epsilon) overflows a float from epsilon ~ 154 on at 100 steps
        for steps, fraction in ((100, 1.0), (1, 0.0)):
            for epsilon in (1.5, 1000.0):
                summary = coin_walk_simulate(steps, 10, 0, 1.96, epsilon)
                assert summary.fraction_within_power == fraction, (steps, epsilon)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            coin_walk_simulate(0, 10, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            coin_walk_simulate(10, 0, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            coin_walk_simulate(10, 10, 0, 0.0, 0.1)
        with pytest.raises(ValueError):
            coin_walk_simulate(10, 10, 0, 1.0, 0.0)
        for c, epsilon in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                coin_walk_simulate(10, 10, 0, c, epsilon)
        with pytest.raises(ValueError, match="c must be > 0"):
            coin_walk_simulate(10, 10, 0, -math.inf, 0.1)

    def test_blocks_capped_by_row_length(self):
        # 65537 words a row, over a 512 KiB block, so a block holds 1 trial (3 in
        # the 2 MiB blocks before), where it used to hold 4096
        steps, trials, seed = 64 * 2**16 + 5, 70, 9
        tracemalloc.start()
        try:
            terminals = coin_walk_terminals(steps, trials, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _COIN_BLOCK_BYTES + 4 * 2**20
        # both sides of block boundaries, including the first two and the last
        for k in (0, 2, 3, 5, 6, 30, 31, 62, 68, 69):
            words = rng.word_block(seed, [k], (steps + 63) // 64)[0]
            words[-1] &= np.uint64((1 << 5) - 1)
            assert terminals[k] == 2 * int(np.bitwise_count(words).sum()) - steps

    def test_warm_lab_sized_walks_stay_small(self):
        # the largest cointoss of the benchmark's warm-lab session: 311 words a
        # row, so 210 trials a block of 512 KiB, where 2 MiB blocks held 842
        # and 16 MiB blocks 4096
        steps, trials, seed = 19893, 5102, 7
        tracemalloc.start()
        try:
            terminals = coin_walk_terminals(steps, trials, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        for k in (0, 209, 210, 841, 842, 5039, 5040, 5101):
            words = rng.word_block(seed, [k], (steps + 63) // 64)[0]
            words[-1] &= np.uint64((1 << (steps % 64)) - 1)
            assert terminals[k] == 2 * int(np.bitwise_count(words).sum()) - steps

    @pytest.mark.parametrize("steps, trials", [(10**4, 10**4), (19893, 5102), (64 * 2**16 + 5, 7)])
    def test_walks_peak_within_their_charge(self, monkeypatch, steps, trials):
        # the block of words and mix64's scratch are reused from block to block
        charged = []
        monkeypatch.setattr(stochastic_module, "_charge", lambda needed, what: charged.append(needed))
        tracemalloc.start()
        try:
            coin_walk_terminals(steps, trials, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charged[-1]

    def test_summary_peak_within_its_charge(self, monkeypatch):
        # the terminals, their abs and np.std's deviations peaked at 24 bytes a
        # trial, where 8 were charged. The stand-in allocates the terminals as
        # the walks do and nothing else; the walks' own peak is tested above.
        charged = []
        monkeypatch.setattr(stochastic_module, "_charge", lambda needed, what: charged.append(needed))
        monkeypatch.setattr(
            stochastic_module,
            "coin_walk_terminals",
            lambda steps, trials, seed: np.ones(trials, dtype=np.int64),
        )
        tracemalloc.start()
        try:
            coin_walk_simulate(1, 10**6, 0, 1.96, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charged)

    @pytest.mark.parametrize("block_bytes", [8, 64, 4096])
    def test_block_size_read_at_each_call(self, monkeypatch, block_bytes):
        # blocks of 1, 8 and 512 words give the walks and sequences of 64 Ki-word blocks
        walks = [(1, 9), (63, 17), (64, 17), (65, 17), (1000, 70)]
        lengths = [1, 7, 8, 9, 513, 1100]
        expected = [coin_walk_terminals(steps, trials, 4) for steps, trials in walks]
        expected += [coin_sign_sequence(n, -3, p_plus=0.6, stream=2) for n in lengths]
        monkeypatch.setattr(stochastic_module, "_COIN_BLOCK_BYTES", block_bytes)
        got = [coin_walk_terminals(steps, trials, 4) for steps, trials in walks]
        got += [coin_sign_sequence(n, -3, p_plus=0.6, stream=2) for n in lengths]
        for a, b in zip(expected, got):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    BLOCK = _COIN_BLOCK_BYTES // 8
    P_PLUS = [0.5, 0.6, 1 / 3, float(np.nextafter(0.5, 0)), 5e-324, 1 - 2**-53]

    @pytest.mark.parametrize("p_plus", P_PLUS)
    @pytest.mark.parametrize("seed, stream", [(0, 0), (-7, 2**64 - 1), (2**64 + 3, 2**64 - 2)])
    def test_sequences_are_the_float_test(self, p_plus, seed, stream):
        # each sign decided in integers, block by block, is the float u < p_plus
        for length in (self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, 2 * self.BLOCK + 1):
            seq = coin_sign_sequence(length, seed, p_plus=p_plus, stream=stream)
            assert seq.dtype == np.int8
            assert np.array_equal(seq, float_coin_sequence(length, seed, p_plus, stream))

    @pytest.mark.parametrize("p_plus", P_PLUS)
    def test_signs_at_the_threshold_are_the_float_test(self, p_plus):
        # words on both sides of ceil(p_plus 2^53) 2^11, where the integer test
        # turns, and at the ends of the range
        edge = math.ceil(math.ldexp(p_plus, 53)) << 11
        for word in (0, 2047, edge - 2049, edge - 2048, edge - 1, edge, edge + 2047, edge + 2048, _MASK):
            if not 0 <= word <= _MASK:
                continue
            seed = seed_with_first_word(word)
            assert reference_word_block(seed, [0], 1)[0][0] == word
            sign = coin_sign_sequence(1, seed, p_plus=p_plus)[0]
            assert sign == float_coin_sequence(1, seed, p_plus, 0)[0] == (1 if word < edge else -1)

    @pytest.mark.parametrize("length", [1000, BLOCK + 1, 10**6])
    def test_sequence_peak_within_its_charge(self, monkeypatch, length):
        # the int8 sequence and one block of words, scratch and counters
        charged = []
        monkeypatch.setattr(stochastic_module, "_charge", lambda needed, what: charged.append(needed))
        tracemalloc.start()
        try:
            coin_sign_sequence(length, 3, p_plus=0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert charged and peak <= charged[0]

    def test_over_budget_sizes_raise_before_allocating(self):
        with pytest.raises(ResourceLimitError, match="memory budget"):
            coin_walk_terminals(10**12, 1, seed=0)
        with pytest.raises(ResourceLimitError, match="memory budget"):
            coin_walk_terminals(64, 10**12, seed=0)
        with pytest.raises(ResourceLimitError, match="memory budget"):
            coin_sign_sequence(10**11, seed=0)

    def test_biased_coin_sequences(self):
        seq = coin_sign_sequence(10**4, seed=0, p_plus=0.9)
        assert seq.mean() > 0.5
        with pytest.raises(ValueError):
            coin_sign_sequence(100, seed=0, p_plus=1.0)


class TestNormalCdf:
    def test_midpoint(self):
        assert normal_cdf(0.0) == 0.5

    def test_against_quadrature_oracle(self):
        for x in (0.5, 1.0, 1.96, 2.5, 3.0):
            assert abs(normal_cdf(x) - phi_by_quadrature(x)) < 1e-9

    def test_known_value(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-7)

    @given(x=st.floats(-8, 8, allow_nan=False))
    @settings(max_examples=200)
    def test_symmetry(self, x):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-12


class TestMertensWalk:
    def test_checkpoint_grid(self):
        assert checkpoint_grid(1, 10) == [1, 2, 3, 4, 5, 7, 10]
        assert checkpoint_grid(11, 99) == [13, 17, 23, 31, 42, 56, 74]
        points = checkpoint_grid(1000, 10**7)
        assert points[0] == 1000
        assert points[-1] <= 10**7
        assert len(points) >= 32
        assert all(b > a for a, b in zip(points, points[1:]))

    def test_checkpoint_grid_is_the_integer_eighth_root(self):
        # floor(10^(k/8)) by bisection on n^8 <= 10^k; a float pow first misses
        # it at k = 126, with 5623413251903491
        roots = []
        for k in range(400):
            lo, hi = 1, 10 ** (k // 8 + 1)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if mid**8 <= 10**k else (lo, mid)
            roots.append(lo)
        assert roots[126] == 5623413251903490
        assert checkpoint_grid(1, roots[-1]) == sorted(set(roots))

    def test_stats_cross_module_consistency(self, table_10m, mertens_10m):
        stats = mertens_walk_stats(10**6, table_10m)
        for n, m in zip(stats.checkpoints, stats.m_values):
            assert int(m) == mertens_10m.m(int(n))

    def test_ratios_below_one_at_desk_scale(self, table_10m):
        stats = mertens_walk_stats(10**7, table_10m)
        assert float(stats.ratios.max()) < 1.0
        assert 0.3 <= stats.alpha <= 0.7

    def test_running_max_is_monotone(self, table_10m):
        stats = mertens_walk_stats(10**6, table_10m)
        assert np.all(np.diff(stats.running_max) >= 0)
        assert np.all(stats.running_max >= np.abs(stats.m_values[0]))

    def test_walk_builds_no_prefix_array(self, table_10m):
        # an int32 prefix of the 1e7 table alone would be 40 MB
        tracemalloc.start()
        try:
            mertens_walk_stats(10**7, table_10m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_limit_validation(self, table_10m):
        with pytest.raises(ValueError):
            mertens_walk_stats(999, table_10m)
        small = sieve_moebius(2000)
        with pytest.raises(ValueError):
            mertens_walk_stats(10**6, small)

    def test_alpha_is_fitted_through_two_checkpoints(self, table_10k):
        assert checkpoint_grid(1000, MIN_WALK_LIMIT) == [1000, MIN_WALK_LIMIT]
        for limit in (1000, MIN_WALK_LIMIT - 1):
            with pytest.raises(ValueError, match=f">= {MIN_WALK_LIMIT}, the second checkpoint"):
                mertens_walk_stats(limit, table_10k)
        assert mertens_walk_stats(MIN_WALK_LIMIT, table_10k).checkpoints.size == 2

    def test_walk_over_a_prefix_equals_the_full_table(self, monkeypatch, table_10m, mertens_10m):
        whole = mertens_walk_stats(10**7, table_10m)
        monkeypatch.setattr(stochastic_module, "PREFIX_FLOOR", 10**5)
        u = prefix_limit(10**7)
        assert u == 739_600
        with pytest.raises(ValueError, match=f"need {u}"):
            mertens_walk_stats(10**7, head(table_10m, u - 1))
        stats = mertens_walk_stats(10**7, head(table_10m, u))
        assert np.array_equal(stats.m_values, mertens_10m.prefix[stats.checkpoints])
        for field in ("checkpoints", "m_values", "ratios", "shift_terms", "running_max"):
            assert np.array_equal(getattr(stats, field), getattr(whole, field)), field
        assert (stats.alpha, stats.fit_residual) == (whole.alpha, whole.fit_residual)

    def test_shift_terms_are_the_rounded_exact_series(self):
        table = sieve_moebius(10**6)
        stats = mertens_walk_stats(10**6, table)
        shifts = dict(zip(stats.checkpoints.tolist(), stats.shift_terms.tolist()))
        # and the exact ratios behind them, also below the grid and at cutoff edges:
        # shift_term, and the int/int division n a^2 / P_K^2 of the fallback
        ns = [*shifts, 1, 3, 4, 8, 9, 999_999]
        numerators = {k: parts for k, parts, _ in _numerators({math.isqrt(n) for n in ns}, table)}
        for n in ns:
            exact = n * harmonic_series(math.isqrt(n), table).m ** 2
            a, big, _ = numerators[math.isqrt(n)][0]
            assert Fraction(n * a * a, big * big) == shift_term(n, table) == exact, n
            assert n * a * a / (big * big) == float(exact), n
            if n in shifts:
                assert shifts[n] == float(exact), n

    def test_shift_term_closed_forms(self, table_10k):
        # m_3 = 1/6 so the shift is n/36 while floor(sqrt(n)) = 3
        for n in range(9, 16):
            assert shift_term(n, table_10k) == Fraction(n, 36)
        # m_10 = 19/210
        for n in range(100, 121):
            assert shift_term(n, table_10k) == Fraction(n * 361, 44100)


def head(table: MoebiusTable, u: int) -> MoebiusTable:
    """The table's prefix mu(1..u), as a cached table's prefix is read."""
    return MoebiusTable(limit=u, values=table.values[: u + 1])


class TestClassCounts:
    FLOOR = 10**5
    # above the floor, on both sides of a cube (150^3) and of a power of ten
    XS = [FLOOR + 1, 150**3 - 1, 150**3, 999_983, 10**6, 10**7]

    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_recursion_equals_span_counts(self, monkeypatch, table_10m, parity):
        monkeypatch.setattr(stochastic_module, "PREFIX_FLOOR", self.FLOOR)
        for x in self.XS:
            u = prefix_limit(x)
            assert math.isqrt(x) < u < x
            got = class_counts([x], parity, head(table_10m, u))
            assert got.tolist() == span_counts([1, x + 1], parity, table_10m).tolist(), x

    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_checkpoints_on_both_sides_of_the_prefix(self, table_10m, parity):
        # the shortest prefix the recursion accepts, isqrt(x) + 1, up to the whole table
        for top, u in ((10**6, 1001), (10**7, 10**4), (10**7, 10**5), (10**7, 10**7)):
            xs = checkpoint_grid(10, top)
            expected = np.cumsum(span_counts([1] + [x + 1 for x in xs], parity, table_10m), axis=0)
            assert np.array_equal(class_counts(xs, parity, head(table_10m, u)), expected), u

    def test_prefix_limit(self, monkeypatch):
        assert prefix_limit(2**24) == 2**24
        assert prefix_limit(10**8) == 3_444_736
        assert prefix_limit(10**10) == 74_235_456
        # the cube root is exact in integers, at a cube and one below it
        c = 10**5 + 3
        assert prefix_limit(c**3) == 16 * c**2
        assert prefix_limit(c**3 - 1) == 16 * (c - 1) ** 2
        monkeypatch.setattr(stochastic_module, "PREFIX_FLOOR", 10)
        assert prefix_limit(11) == 11  # never above x, where 16 * 2^2 is
        monkeypatch.setattr(stochastic_module, "PREFIX_SCALE", 1)
        assert prefix_limit(10**6) == 10**4
        assert prefix_limit(26) == 6  # isqrt(26) + 1, above 2^2

    def test_integer_cube_root(self):
        # integers only, so no x is too large for a float; exact on each side of a cube
        rng = random.Random(5)
        roots = [*range(1, 1000), *(10**k + d for k in range(3, 201) for d in (-1, 0, 1))]
        roots += [rng.randrange(1, 10**200) for _ in range(100)]
        assert _icbrt(0) == 0
        for c in roots:
            assert (_icbrt(c**3 - 1), _icbrt(c**3), _icbrt(c**3 + 1)) == (c - 1, c, c), c
        assert prefix_limit(10**399) == 16 * 10**266

    def test_short_table_rejected(self, table_10k):
        with pytest.raises(ValueError, match="need 10001"):
            class_counts([10**8], "all", table_10k)
        with pytest.raises(ValueError, match="parity"):
            class_counts([10**6], "prime", table_10k)

    @pytest.mark.parametrize("x", [2 * 10**5, 10**7])
    def test_peak_within_its_charge(self, monkeypatch, table_10m, x):
        monkeypatch.setattr(stochastic_module, "PREFIX_FLOOR", self.FLOOR)
        table = head(table_10m, prefix_limit(x))
        tracemalloc.start()
        try:
            class_counts(checkpoint_grid(10, x), "odd", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.values.nbytes + peak <= class_counts_bytes(x)


class TestRandomnessTests:
    def test_alternating_sequence(self):
        seq = np.tile([1, -1], 500)
        chi = chi_square_balance(seq)
        assert chi.statistic == 0.0
        runs = runs_test(seq)
        assert runs.z_score > 10  # far too many runs

    def test_constant_sequence(self):
        seq = np.ones(1000, dtype=np.int8)
        assert chi_square_balance(seq).p_value < 1e-6
        assert runs_test(seq).p_value == 0.0
        assert runs_test(seq).z_score is None
        assert runs_test(-seq).z_score is None
        assert lag_autocorrelation(seq, 1).p_value == 1.0

    def test_too_short_sequences_rejected(self):
        seq = np.ones(MIN_TEST_LENGTH - 1, dtype=np.int8)
        for call in (
            lambda: chi_square_balance(seq),
            lambda: runs_test(seq),
            lambda: lag_autocorrelation(seq, 1),
        ):
            with pytest.raises(ValueError, match=str(MIN_TEST_LENGTH)):
                call()

    def test_int8_sequences_are_not_copied(self):
        # an int64 copy alone would take 8 bytes per entry
        seq = coin_sign_sequence(10**6, 5)
        tests = [lambda: chi_square_balance(seq), lambda: runs_test(seq)]
        tests += [lambda lag=lag: lag_autocorrelation(seq, lag) for lag in (1, 2, 3)]
        for test in tests:
            tracemalloc.start()
            try:
                test()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * seq.size
        wide = seq.astype(np.int64)
        assert chi_square_balance(wide) == chi_square_balance(seq)
        assert runs_test(wide) == runs_test(seq)
        for lag in (1, 2, 3):
            assert lag_autocorrelation(wide, lag) == lag_autocorrelation(seq, lag)
        for bad in (-128, 0, 2):  # abs(-128) wraps to -128 in int8
            with pytest.raises(ValueError, match="must be"):
                runs_test(np.append(seq[:199], np.int8(bad)))

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            chi_square_balance(np.zeros(200, dtype=np.int8))

    @pytest.mark.parametrize("seed, lag", [(0, 1), (1, 2), (2, 5), (3, 150)])
    def test_lag_autocorrelation_is_the_rounded_exact_ratio(self, seed, lag):
        # the sample autocorrelation in exact rationals, rounded once
        seq = coin_sign_sequence(200, seed=seed, p_plus=0.6)
        x = [int(v) for v in seq]
        mean = Fraction(sum(x), len(x))
        centered = [v - mean for v in x]
        num = sum(a * b for a, b in zip(centered[:-lag], centered[lag:]))
        den = sum(c * c for c in centered)
        assert lag_autocorrelation(seq, lag).statistic == float(num / den)

    def test_lag_validation(self):
        seq = coin_sign_sequence(200, seed=0)
        with pytest.raises(ValueError):
            lag_autocorrelation(seq, 0)
        with pytest.raises(ValueError):
            lag_autocorrelation(seq, 200)

    def test_fair_coin_rejection_rate(self):
        rejections = {"chi": 0, "runs": 0, "auto": 0}
        seeds = 400
        for s in range(seeds):
            seq = coin_sign_sequence(10**4, seed=99, stream=s)
            rejections["chi"] += chi_square_balance(seq).p_value < 0.05
            rejections["runs"] += runs_test(seq).p_value < 0.05
            rejections["auto"] += lag_autocorrelation(seq, 1).p_value < 0.05
        for rate in (v / seeds for v in rejections.values()):
            assert 0.02 <= rate <= 0.09

    def test_biased_coin_is_caught_by_balance_test(self):
        caught = sum(
            chi_square_balance(coin_sign_sequence(10**4, seed=5, p_plus=0.6, stream=s)).p_value
            < 0.05
            for s in range(100)
        )
        assert caught == 100


class TestMuSignBehaviour:
    def test_window_gap_shrinks(self, table_20m):
        # |freq(-1) - freq(+1)| over squarefree integers in [10^k, 2*10^k)
        gaps = []
        for k in range(4, 8):
            seq = sign_sequence_squarefree(10**k, 2 * 10**k, "all", table_20m)
            plus = int(np.count_nonzero(seq == 1))
            minus = seq.size - plus
            gaps.append(abs(plus - minus) / seq.size)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-2

    def test_lag_one_autocorrelation_is_small(self, table_10m):
        seq = sign_sequence_squarefree(10**6, 2 * 10**6, "all", table_10m)
        report = lag_autocorrelation(seq, 1)
        assert abs(report.statistic) <= 0.05
