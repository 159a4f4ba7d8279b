import math
import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiuslab import sieve as sieve_module
from mobiuslab.sieve import DEFAULT_MEMORY_BUDGET, DEFAULT_SEGMENT_SIZE
from mobiuslab import (
    CorruptCacheError,
    MoebiusTable,
    ResourceLimitError,
    load_table,
    mertens_series,
    moebius_at,
    save_table,
    sieve_moebius,
)
from mobiuslab.identity import identity_blocks
from mobiuslab.stochastic import (
    coin_sign_sequence,
    coin_walk_simulate,
    coin_walk_terminals,
    sign_sequence_squarefree,
)


def mu_by_factorization(n: int) -> int:
    """Plain factorization oracle, independent of the library code."""
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def reference_fill_segment(lo, hi, primes):
    """A residual-product kernel, the oracle for the log-sum kernel: mu of
    every n in [lo, hi). Multiply out the base primes, 2 included and at
    least up to isqrt(hi - 1), in int64 and flip the sign of entries whose
    product falls short of n."""
    length = hi - lo
    mu = np.ones(length, dtype=np.int8)
    residual = np.ones(length, dtype=np.int64)
    for p in primes:
        start = ((lo + p - 1) // p) * p
        if start < hi:
            sl = slice(start - lo, length, p)
            np.negative(mu[sl], out=mu[sl])
            residual[sl] *= p
        p2 = p * p
        start2 = ((lo + p2 - 1) // p2) * p2
        if start2 < hi:
            mu[start2 - lo : length : p2] = 0
    leftover = residual != np.arange(lo, hi, dtype=np.int64)
    leftover &= mu != 0
    mu[leftover] = -mu[leftover]
    return mu


def reference_sieve(limit, segment_size=DEFAULT_SEGMENT_SIZE):
    values = np.zeros(limit + 1, dtype=np.int8)
    primes = sieve_module._base_primes(isqrt(limit))
    for lo in range(1, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        values[lo:hi] = reference_fill_segment(lo, hi, primes)
    return values


@pytest.fixture(scope="module")
def reference_3000():
    return reference_sieve(3000)


@pytest.fixture(scope="module")
def reference_edges():
    return reference_sieve(EDGE_LIMIT)


@pytest.fixture(scope="module")
def reference_10m():
    return reference_sieve(10**7)


# omega, the most distinct primes of any n <= limit, steps up at the primorials 210 and 2310
SMALL_SEGMENT_LIMITS = [*range(1, 257), 2309, 2310, 2311, 3000]
# Segments of 2^j - 1, 2^j and 2^j + 1 odd slots span 2^(j+1) - 2, 2^(j+1) and
# 2^(j+1) + 2 numbers, so their ends fall on, beside and across powers of two.
EDGE_LIMIT = (1 << 22) + 3
EDGE_SEGMENT_SIZES = [(1 << j) + d for j in range(9, 13) for d in (-1, 0, 1)]


class TestSieve:
    def test_mu_of_one(self):
        assert sieve_moebius(1).values[1] == 1

    def test_squareful_entry(self):
        table = sieve_moebius(50)
        assert table.values[12] == 0

    def test_factorization_fixtures(self):
        # 10 = 2*5 (two prime factors), 30 = 2*3*5 (three)
        table = sieve_moebius(50)
        assert table.values[10] == 1
        assert table.values[30] == -1

    def test_matches_factorization_oracle(self, table_10k):
        for n in range(1, 10**4 + 1):
            assert int(table_10k.values[n]) == mu_by_factorization(n)

    def test_primes_map_to_minus_one(self, table_10k):
        for p in (2, 3, 5, 7, 11, 101, 997, 7919):
            assert table_10k.values[p] == -1

    def test_values_within_range(self, table_10k):
        assert int(np.abs(table_10k.values).max()) <= 1

    def test_divisor_sum_identity_exhaustive(self, table_10k):
        # sum of mu(d) over d | n is 1 at n = 1 and 0 elsewhere
        limit = table_10k.limit
        acc = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            md = int(table_10k.values[d])
            if md:
                acc[d::d] += md
        assert acc[1] == 1
        assert not acc[2:].any()

    @given(a=st.integers(2, 316), b=st.integers(2, 316))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, table_100k, a, b):
        if math.gcd(a, b) != 1:
            return
        v = table_100k.values
        assert int(v[a * b]) == int(v[a]) * int(v[b])

    def test_segmentation_does_not_change_output(self, monkeypatch):
        limit = 10**6
        monkeypatch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", limit)
        whole = sieve_moebius(limit)
        for seg in (1 << 16, 1 << 20):
            monkeypatch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", seg)
            assert np.array_equal(sieve_moebius(limit).values, whole.values)

    def test_squarefree_density_near_limit(self, table_10m):
        freq = np.count_nonzero(table_10m.values[1:]) / table_10m.limit
        assert abs(freq - 6 / math.pi**2) < 2e-3

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            sieve_moebius(0)

    def test_memory_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 10**6)
        with pytest.raises(ResourceLimitError, match="1000000 bytes"):
            sieve_moebius(10**8)

    def test_segment_size_read_at_each_call(self, monkeypatch):
        # the table's 1001 bytes plus 2 bytes of scratch for each of 7 odd slots
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 1000)
        monkeypatch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", 7)
        with pytest.raises(ResourceLimitError, match="needs ~1015 bytes"):
            sieve_moebius(1000)


class TestLogSumKernel:
    """The uint8 log-sum kernel against the residual-product reference."""

    @pytest.mark.parametrize("segment_size", [1, 7, DEFAULT_SEGMENT_SIZE])
    def test_matches_reference_at_small_limits(self, monkeypatch, reference_3000, segment_size):
        # segment sizes 1 and 7 cost one kernel call per few entries at every
        # limit, so they run on every limit up to 256 and around omega's last step
        monkeypatch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", segment_size)
        limits = range(1, 3001) if segment_size == DEFAULT_SEGMENT_SIZE else SMALL_SEGMENT_LIMITS
        for limit in limits:
            got = sieve_moebius(limit).values
            assert np.array_equal(got, reference_3000[: limit + 1]), limit

    @pytest.mark.parametrize("segment_size", [1 << 16, 1 << 20, 1 << 22])
    def test_matches_reference_at_1e7(self, monkeypatch, reference_10m, segment_size):
        monkeypatch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", segment_size)
        got = sieve_moebius(10**7).values
        assert np.array_equal(got, reference_10m)

    @pytest.mark.parametrize("segment_size", EDGE_SEGMENT_SIZES)
    def test_matches_reference_at_segment_edges(self, monkeypatch, reference_edges, segment_size):
        monkeypatch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", segment_size)
        got = sieve_moebius(EDGE_LIMIT).values
        assert np.array_equal(got, reference_edges)

    @pytest.mark.parametrize("near", [10**9, 10**12])
    def test_window_kernel_far_from_one(self, near):
        # one window of 2^12 odd slots, with no table of [1, lo)
        lo = near + 1
        hi = lo + 2 * 4096
        bound = isqrt(hi - 1)
        omega = sieve_module._omega_max(hi)
        sieve_module._check_margins(hi, bound, omega)
        primes = sieve_module._base_primes(bound)
        odd = primes[1:]
        got = sieve_module._fill_segment(lo, hi, odd, sieve_module._weights(odd), omega)
        assert got.dtype == np.int8 and got.shape == (4096,)
        assert np.array_equal(got, reference_fill_segment(lo, hi, primes)[::2])
        rand = random.Random(near)
        for j in rand.sample(range(4096), 64):
            assert int(got[j]) == moebius_at(lo + 2 * j), lo + 2 * j

    def test_matches_reference_with_segments_below_the_prime_bound(self, monkeypatch):
        # 2^10-wide segments at 2e6: base primes up to 1414 step over whole segments
        limit = 2 * 10**6
        monkeypatch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", 1 << 10)
        got = sieve_moebius(limit).values
        assert np.array_equal(got, reference_sieve(limit))

    def test_omega_max_against_distinct_prime_counts(self):
        limit = 10**5
        counts = np.zeros(limit + 1, dtype=np.int64)
        for p in sieve_module._base_primes(limit):
            counts[p::p] += 1
        most = np.maximum.accumulate(counts)
        assert [sieve_module._omega_max(n) for n in range(1, limit + 1)] == most[1:].tolist()

    def test_margins_hold_up_to_the_budget(self):
        # the largest limit the default budget admits, and the first it refuses
        top = DEFAULT_MEMORY_BUDGET - 1 - 2 * DEFAULT_SEGMENT_SIZE
        with pytest.raises(ResourceLimitError):
            sieve_moebius(top + 1)
        for limit in [1 << j for j in range(top.bit_length())] + [top]:
            bound = max(isqrt(limit), sieve_module._PRIME_FLOOR)
            omega = sieve_module._omega_max(limit)
            assert 2 * (math.log2(bound + 1) - 1) > omega, limit
            assert 2 * (2 * math.log2(limit + 1) + omega / 2) + omega < 255, limit
            sieve_module._check_margins(limit, bound, omega)

    def test_gap_guard_raises(self, monkeypatch):
        monkeypatch.setattr(sieve_module, "_PRIME_FLOOR", 1)
        with pytest.raises(RuntimeError, match="too small"):
            sieve_moebius(6)

    def test_overflow_guard_raises(self):
        limit = 1 << 60
        with pytest.raises(RuntimeError, match="overflow"):
            sieve_module._check_margins(limit, isqrt(limit), sieve_module._omega_max(limit))


class TestMoebiusAt:
    def test_fixtures(self):
        assert moebius_at(1) == 1
        assert moebius_at(9) == 0
        assert moebius_at(105) == -1  # 3*5*7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            moebius_at(0)

    def test_agrees_with_sieve(self, table_100k):
        for n in range(1, 10**5 + 1):
            assert moebius_at(n) == int(table_100k.values[n])

    def test_large_value(self):
        # 10^12 + 39 = 3 * 1279 * 260620211 * 999... check two known points instead:
        assert moebius_at(999966000289) == 0  # 999983^2
        assert moebius_at(10**12) == 0


class TestMertens:
    def test_first_value(self, table_10k):
        assert mertens_series(table_10k).m(1) == 1

    def test_m_ten(self, table_10k):
        # 1 - 1 - 1 + 0 - 1 + 1 - 1 + 0 + 0 + 1
        assert mertens_series(table_10k).m(10) == -1

    def test_m_hundred_against_prefix_oracle(self, table_10k):
        assert mertens_series(table_10k).m(100) == sum(
            mu_by_factorization(n) for n in range(1, 101)
        )

    def test_step_property_exhaustive(self, table_10k):
        series = mertens_series(table_10k)
        steps = np.diff(series.prefix)
        assert np.array_equal(steps, table_10k.values[1:].astype(np.int64))

    def test_steps_bounded_by_one(self, table_10k):
        series = mertens_series(table_10k)
        assert int(np.abs(np.diff(series.prefix)).max()) <= 1

    def test_out_of_range_query(self, table_10k):
        series = mertens_series(table_10k)
        with pytest.raises(ValueError):
            series.m(table_10k.limit + 1)

    def test_memory_budget_enforced(self):
        # a broadcast view reports 0.5 GiB without allocating it; the prefix adds 2 GiB
        huge = np.broadcast_to(np.int8(0), (2**29 + 1,))
        with pytest.raises(ResourceLimitError, match="memory budget"):
            mertens_series(MoebiusTable(limit=2**29, values=huge))


class TestCacheFormat:
    def test_round_trip(self, tmp_path, table_10k):
        path = tmp_path / "table.mobs"
        save_table(table_10k, path)
        loaded = load_table(path)
        assert loaded.limit == table_10k.limit
        assert np.array_equal(loaded.values, table_10k.values)
        assert list(tmp_path.iterdir()) == [path]

    def test_data_reaches_disk_before_rename(self, tmp_path, monkeypatch, table_10k):
        # without the fsync a crash could persist the rename before the data
        events = []
        real_fsync, real_replace = sieve_module.os.fsync, sieve_module.os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(sieve_module.os, "fsync", fsync)
        monkeypatch.setattr(sieve_module.os, "replace", replace)
        save_table(table_10k, tmp_path / "table.mobs")
        assert events == ["fsync", "replace"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, table_10k, existing):
        path = tmp_path / "moebius_10000.mobs"
        if existing:
            save_table(table_10k, path)
        before = path.read_bytes() if existing else None
        real_open = open

        class DiskFull:
            """A file whose second write fails, after the header is out."""

            def __init__(self, *args):
                self.fh = real_open(*args)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(sieve_module, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="no space"):
            save_table(sieve_moebius(100), path)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == ([path] if existing else [])
        if existing:
            assert path.read_bytes() == before

    @given(limit=st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_small_limits(self, tmp_path_factory, limit):
        path = tmp_path_factory.mktemp("cache") / "t.mobs"
        table = sieve_moebius(limit)
        save_table(table, path)
        assert np.array_equal(load_table(path).values, table.values)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.mobs"
        save_table(sieve_moebius(3), path)
        raw = path.read_bytes()
        assert raw[:4] == b"MOBS"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 3
        assert raw[16:] == bytes([1, 255, 255])  # mu = 1, -1, -1 as int8

    def test_wrong_magic(self, tmp_path, table_10k):
        path = tmp_path / "t.mobs"
        save_table(table_10k, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XOBS"
        path.write_bytes(raw)
        with pytest.raises(CorruptCacheError, match="magic"):
            load_table(path)

    def test_wrong_version(self, tmp_path, table_10k):
        path = tmp_path / "t.mobs"
        save_table(table_10k, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(CorruptCacheError, match="version"):
            load_table(path)

    def test_truncated_payload(self, tmp_path, table_10k):
        path = tmp_path / "t.mobs"
        save_table(table_10k, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCacheError):
            load_table(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.mobs"
        path.write_bytes(b"MOB")
        with pytest.raises(CorruptCacheError):
            load_table(path)

    def test_trailing_bytes(self, tmp_path, table_10k):
        path = tmp_path / "t.mobs"
        save_table(table_10k, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptCacheError):
            load_table(path)

    def test_payload_value_out_of_range(self, tmp_path):
        path = tmp_path / "t.mobs"
        save_table(sieve_moebius(4), path)
        raw = bytearray(path.read_bytes())
        for byte in (7, 0xFE, 0x80):  # 7, -2, and -128, whose int8 abs() wraps to -128
            raw[-1] = byte
            path.write_bytes(raw)
            with pytest.raises(CorruptCacheError):
                load_table(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_table(tmp_path / "absent.mobs")


# Each charged allocation, at a size that would allocate ~100 KB to ~17 MB.
CHARGED_SITES = {
    "sieve_moebius": lambda table: sieve_moebius(10**6),
    "mertens_series": lambda table: mertens_series(table),
    "identity_blocks": lambda table: identity_blocks(2, 10**6, table.values),
    "coin_sign_sequence": lambda table: coin_sign_sequence(10**6, seed=0),
    "coin_walk_terminals": lambda table: coin_walk_terminals(64, 10**6, seed=0),
    "coin_walk_simulate": lambda table: coin_walk_simulate(64, 10**6, 0, 1.96, 0.1),
    "mustats --range": lambda table: sign_sequence_squarefree(1, 10**5 + 1, "all", table),
}


@pytest.mark.parametrize("site", list(CHARGED_SITES))
def test_charged_sites_raise_before_allocating(site, monkeypatch, table_100k):
    # the budget is read when each call is made, so one patch reaches every module
    monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 4096)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="over the memory budget of 4096 bytes$"):
            CHARGED_SITES[site](table_100k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024
