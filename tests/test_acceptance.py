"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Covers: identity equivalence and bootstrap, the exact interval
fixtures, normalization / gap / averaging identities as rational
equalities, density limits at 10^7, series tail bounds, the
de Moivre-Laplace fraction, Mertens desk-scale behaviour, squarefree
sign balance, statistical-test calibration, and the cache round trip.
"""

import math
import random
import time
from fractions import Fraction
from math import isqrt

import numpy as np

from mobiuslab import (
    CorruptCacheError,
    load_table,
    moebius_at,
    save_table,
    sieve_moebius,
)
from mobiuslab.cli import main
from mobiuslab.identity import (
    bootstrap_identity,
    moebius_via_identity,
    moebius_via_identity_odd,
)
from mobiuslab.probability import (
    delta_prob,
    harmonic_series,
    harmonic_series_many,
    prob_triple_even,
    prob_triple_general,
    prob_triple_odd,
    triple_from_series,
)
from mobiuslab.stochastic import (
    chi_square_balance,
    coin_sign_sequence,
    coin_walk_simulate,
    empirical_frequencies,
    lag_autocorrelation,
    mertens_walk_stats,
    runs_test,
)

F = Fraction


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_01_identity_equivalence(table_100k):
    start = time.perf_counter()
    mismatches = sum(
        moebius_via_identity(n, table_100k) != int(table_100k.values[n])
        for n in range(2, 10**5 + 1)
    )
    mismatches += sum(
        moebius_via_identity_odd(n, table_100k) != int(table_100k.values[n])
        for n in range(3, 10**5 + 1, 2)
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: identity equals sieve on [2, 1e5], general and odd forms",
        mismatches == 0 and elapsed <= 60.0,
        f"mismatches={mismatches}, elapsed={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_02_bootstrap_reconstruction(table_10k):
    rebuilt = bootstrap_identity(10**4)
    ok = np.array_equal(rebuilt.values, table_10k.values)
    report("criterion 2: bootstrap table of 1e4 equals the sieve element-wise", ok)


def test_criterion_03_interval_fixtures(table_10k):
    expected = {
        (2, 4): (F(1), F(0), F(0)),
        (4, 9): (F(1, 2), F(1, 4), F(1, 4)),
        (9, 25): (F(1, 3), F(11, 36), F(13, 36)),
    }
    ok = True
    for (lo, hi), want in expected.items():
        for n in range(lo, hi):
            t = prob_triple_general(n, table_10k)
            ok = ok and (t.p_minus, t.p_plus, t.p_zero) == want
    report("criterion 3: exact triples on [2,4), [4,9), [9,25)", ok)


def _triples_for(n, table, series):
    yield prob_triple_general(n, table, series=series), "general"
    if n % 2:
        yield prob_triple_odd(n, table, series=series), "odd"
    else:
        yield prob_triple_even(n, table, series=series), "even"


def test_criterion_04_normalization_and_gap(table_100k):
    ok = True
    for n in range(2, 10**4 + 1):
        series = harmonic_series(isqrt(n), table_100k)
        for triple, cls in _triples_for(n, table_100k, series):
            ok = ok and triple.p_minus + triple.p_plus + triple.p_zero == 1
            gap = delta_prob(n, cls, table_100k, series=series)
            ok = ok and triple.p_minus - triple.p_plus == gap
    rng = random.Random(20260809)
    samples = [rng.randrange(2, 10**8 + 1) for _ in range(1000)]
    bank = harmonic_series_many({isqrt(n) for n in samples}, table_100k)
    for n in samples:
        series = bank[isqrt(n)]
        for triple, cls in _triples_for(n, table_100k, series):
            ok = ok and triple.p_minus + triple.p_plus + triple.p_zero == 1
            gap = delta_prob(n, cls, table_100k, series=series)
            ok = ok and triple.p_minus - triple.p_plus == gap
    report(
        "criterion 4: normalization and gap identities hold as exact rationals",
        ok,
        "exhaustive n <= 1e4 plus 1000 random n <= 1e8",
    )


def test_criterion_05_averaging_identity(table_100k):
    ok = True
    evens = list(range(2, 10**4 + 1, 2))
    rng = random.Random(20260809)
    evens += [2 * rng.randrange(1, 5 * 10**7) for _ in range(1000)]
    bank = harmonic_series_many({isqrt(n) for n in evens}, table_100k)
    for n in evens:
        series = bank[isqrt(n)]
        even = prob_triple_even(n, table_100k, series=series)
        general = prob_triple_general(n, table_100k, series=series)
        odd_formula = triple_from_series(series, "odd")
        ok = ok and even.p_minus == 2 * general.p_minus - odd_formula[0]
        ok = ok and even.p_plus == 2 * general.p_plus - odd_formula[1]
        ok = ok and even.p_zero == 2 * general.p_zero - odd_formula[2]
    report("criterion 5: even triple = 2*general - odd, componentwise exact", ok)


def test_criterion_06_density_limits():
    start = time.perf_counter()
    table = sieve_moebius(10**7)
    reports = {
        parity: empirical_frequencies(1, 10**7 + 1, parity, table)
        for parity in ("all", "odd", "even")
    }
    elapsed = time.perf_counter() - start
    deltas = {
        parity: abs(r.freq_squarefree - r.limit_value) for parity, r in reports.items()
    }
    ok = all(d < 2e-3 for d in deltas.values()) and elapsed <= 120.0
    report(
        "criterion 6: squarefree densities over [1, 1e7] near 6/pi^2, 8/pi^2, 4/pi^2",
        ok,
        ", ".join(f"{p}: off by {d:.2e}" for p, d in deltas.items())
        + f", elapsed={elapsed:.1f}s (budget 120s)",
    )


def test_criterion_07_series_tails(table_100k):
    pi2 = math.pi**2
    ok = True
    details = []
    for k in (100, 1000, 10**4):
        s = harmonic_series(k, table_100k)
        d_all = abs(float(s.s2) - 6 / pi2)
        d_odd = abs(float(s.s2_odd) - 8 / pi2)
        details.append(f"K={k}: {d_all:.1e}/{d_odd:.1e}")
        ok = ok and d_all <= 1 / k and d_odd <= 1 / k
    report("criterion 7: series tails bounded by 1/K", ok, "; ".join(details))


def test_criterion_08_de_moivre_laplace():
    summary = coin_walk_simulate(10**4, 10**4, seed=7, c=1.96, epsilon=0.1)
    small = coin_walk_simulate(10**2, 10**4, seed=7, c=1.96, epsilon=0.1)
    ok = abs(summary.fraction_within_c_sqrt - 0.95) <= 0.02
    ok = ok and summary.fraction_within_power > small.fraction_within_power
    report(
        "criterion 8: |S| <= 1.96*sqrt(n) fraction near 0.950; power fraction grows",
        ok,
        f"observed={summary.fraction_within_c_sqrt:.4f}, "
        f"power 1e4={summary.fraction_within_power:.4f} > 1e2={small.fraction_within_power:.4f}",
    )


def test_criterion_09_mertens_desk_scale(table_10m, mertens_10m):
    stats = mertens_walk_stats(10**7, table_10m)
    max_ratio = float(stats.ratios.max())
    oracle_m10 = sum(moebius_at(k) for k in range(1, 11))
    oracle_m100 = sum(moebius_at(k) for k in range(1, 101))
    ok = (
        max_ratio < 1.0
        and 0.3 <= stats.alpha <= 0.7
        and mertens_10m.m(10) == oracle_m10 == -1
        and mertens_10m.m(100) == oracle_m100 == 1
    )
    report(
        "criterion 9: |M(n)| < sqrt(n) at checkpoints, exponent in [0.3, 0.7]",
        ok,
        f"max ratio={max_ratio:.4f}, alpha={stats.alpha:.3f}, M(10)={oracle_m10}, M(100)={oracle_m100}",
    )


def test_criterion_10_sign_balance(table_10m, mertens_10m):
    squarefree = int(np.count_nonzero(table_10m.values[1:]))
    imbalance = abs(mertens_10m.m(10**7)) / squarefree
    report(
        "criterion 10: squarefree sign imbalance over [1, 1e7] at most 1e-3",
        imbalance <= 1e-3,
        f"|M(1e7)|/Q(1e7) = {mertens_10m.m(10**7)}/{squarefree} = {imbalance:.2e}",
    )


def test_criterion_11_test_calibration():
    seeds = 1000
    length = 10**4
    fair_rejections = {"chi_square_balance": 0, "runs_test": 0, "lag_autocorrelation": 0}
    biased_battery = 0
    for s in range(seeds):
        fair = coin_sign_sequence(length, seed=12345, stream=s)
        fair_rejections["chi_square_balance"] += chi_square_balance(fair).p_value < 0.05
        fair_rejections["runs_test"] += runs_test(fair).p_value < 0.05
        fair_rejections["lag_autocorrelation"] += lag_autocorrelation(fair, 1).p_value < 0.05
        biased = coin_sign_sequence(length, seed=12345, p_plus=0.6, stream=s)
        p_values = (
            chi_square_balance(biased).p_value,
            runs_test(biased).p_value,
            lag_autocorrelation(biased, 1).p_value,
        )
        biased_battery += min(p_values) < 0.05
    fair_rates = {name: count / seeds for name, count in fair_rejections.items()}
    biased_rate = biased_battery / seeds
    ok = all(0.03 <= rate <= 0.07 for rate in fair_rates.values()) and biased_rate >= 0.99
    report(
        "criterion 11: fair-coin rejection 5% +/- 2% per test; biased coin caught",
        ok,
        ", ".join(f"{n}={r:.3f}" for n, r in fair_rates.items())
        + f"; biased battery rate={biased_rate:.3f}",
    )


def test_criterion_12_cache_round_trip(tmp_path, capsys):
    table = sieve_moebius(10**6)
    path = tmp_path / "moebius_1000000.mobs"
    save_table(table, path)
    loaded = load_table(path)
    ok = loaded.limit == table.limit and np.array_equal(loaded.values, table.values)

    pristine = path.read_bytes()
    corruptions = {
        "magic": pristine.replace(b"MOBS", b"MXBS", 1),
        "version": pristine[:4] + (9).to_bytes(4, "little") + pristine[8:],
        "truncation": pristine[:-1000],
    }
    for kind, raw in corruptions.items():
        path.write_bytes(raw)
        try:
            load_table(path)
            ok = False
        except CorruptCacheError:
            pass
        exit_code = main(["density", "--max", "999999", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        ok = ok and exit_code == 3
    report(
        "criterion 12: 1e6-entry cache round-trips bit-exact; corruption exits 3",
        ok,
    )
