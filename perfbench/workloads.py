"""The three workloads: their seeded inputs, set-up and output checks.

A workload object lives in one worker process for one pass. ``prepare``
is set-up, ``ops`` lists the timed operations in order, and ``verify``
runs after the timed phase: it sets ``record.failure`` on operations
whose output is wrong and returns problems that concern the whole pass.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

SPOT_CHECKS = 200  # trial-division positions per table


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One timed operation: one ``cli.main(argv)`` call or one library call."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None] = lambda value: None
    argv: tuple[str, ...] | None = None


@dataclass
class Record:
    op: Op
    ms: float
    value: Any = None
    failure: str | None = None
    cache_after: tuple[str, ...] = ()

    @property
    def output_bytes(self) -> int:
        return len(self.value.stdout.encode()) if isinstance(self.value, CliResult) else 0


def strata(rng: random.Random, lo: float, hi: float, k: int) -> list[int]:
    """k ascending values over [lo, hi), one log-uniform draw from each of
    k equal strata of log size. Stratifying keeps a pass's total work, and
    which sizes run twice, nearly the same from seed to seed."""
    return [int(lo * (hi / lo) ** ((i + rng.random()) / k)) for i in range(k)]


def with_parity(n: int, parity: str) -> int:
    """n moved to the class probs accepts for the parity flag."""
    return {"all": n, "odd": n | 1, "even": n & ~1}[parity]


class Workload:
    name = ""

    def __init__(self, lab, seed: int, cache_dir: Path):
        self.lab = lab
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cache_dir = cache_dir
        self.counter = None

    def cli(self, *argv: str, check=lambda result: None, cached: bool = True) -> Op:
        """An Op that runs the CLI in-process, capturing stdout and stderr.

        ``cached`` commands get this pass's own --cache-dir.
        """
        label = " ".join(argv)
        if cached:
            argv += ("--cache-dir", str(self.cache_dir))

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.lab.cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects its input
                    code = exc.code if isinstance(exc.code, int) else 2
            return CliResult(code, out.getvalue(), err.getvalue())

        return Op(label, call, check, argv)

    def squarefree_counter(self) -> oracles.SquarefreeCounter:
        if self.counter is None:
            self.counter = oracles.SquarefreeCounter(self.lab.sieve.moebius_at)
        return self.counter

    def spot_check_cache(self) -> list[str]:
        problems = []
        for path in sorted(self.cache_dir.glob("*.mobs")):
            problem = oracles.spot_check_cache_file(
                path, self.rng, SPOT_CHECKS, self.lab.sieve.moebius_at
            )
            if problem:
                problems.append(problem)
        return problems

    def probs(self, n: int, parity: str) -> Op:
        return self.cli(
            "probs", "--n", str(n), "--parity", parity,
            check=lambda r: oracles.check_probs(r.stdout, n, parity, self.lab.sieve.moebius_at),
        )

    def prepare(self) -> None:
        pass

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def verify(self, records: list[Record], cache_before: tuple[str, ...]) -> list[str]:
        return self.spot_check_cache()


class Scale1e8(Workload):
    """The paper's full-range pipeline at n = 1e8 on an empty cache."""

    name = "scale-1e8"
    LIMIT = 100_000_000

    def ops(self) -> list[Op]:
        n, limit = self.LIMIT, str(self.LIMIT)
        counter = self.squarefree_counter
        return [
            self.cli(
                "sieve", "--limit", limit,
                check=lambda r: oracles.check_sieve(r.stdout, n, counter()),
            ),
            self.cli(
                "walk", "--max", limit,
                check=lambda r: oracles.check_walk(r.stdout, n),
            ),
            self.cli(
                "density", "--max", limit, "--parity", "odd",
                check=lambda r: oracles.check_density(r.stdout, n, "odd", None, counter()),
            ),
        ]

    def verify(self, records, cache_before):
        problems = super().verify(records, cache_before)
        if cache_before:
            problems.append(f"cache was not empty before the first operation: {cache_before}")
        return problems


class WarmLab(Workload):
    """A researcher's session against an existing 1e7 table."""

    name = "warm-lab"
    TABLE = 10_000_000

    def prepare(self) -> None:
        result = self.cli("sieve", "--limit", str(self.TABLE)).call()
        if result.code != 0:
            raise RuntimeError(f"set-up sieve exited {result.code}: {result.stderr}")

    def _walk(self, limit: int) -> Op:
        return self.cli(
            "walk", "--max", str(limit),
            check=lambda r: oracles.check_walk(r.stdout, limit),
        )

    def _density(self, limit: int, parity: str, window: int | None) -> Op:
        argv = ["density", "--max", str(limit), "--parity", parity]
        if window:
            argv += ["--window", str(window)]
        return self.cli(
            *argv,
            check=lambda r: oracles.check_density(
                r.stdout, limit, parity, window, self.squarefree_counter()
            ),
        )

    def _mustats(self, a: int, b: int, parity: str, lag: int) -> Op:
        table = self.cache_dir / f"moebius_{self.TABLE}.mobs"
        argv = ["mustats", "--range", f"{a}:{b}", "--parity", parity, "--lag", str(lag)]
        return self.cli(
            *argv,
            check=lambda r: oracles.check_mustats(
                r.stdout, lag, oracles.read_cache_signs(table, a, b, parity)
            ),
        )

    def _synthetic(self, length: int, seed: int, bias: float, lag: int) -> Op:
        argv = ["mustats", "--range", f"1:{length + 1}", "--synthetic", "--seed", str(seed)]
        argv += ["--bias", str(bias), "--lag", str(lag)]
        return self.cli(
            *argv, check=lambda r: oracles.check_mustats(r.stdout, lag, None), cached=False
        )

    def _cointoss(self, steps: int, trials: int, seed: int) -> Op:
        argv = ["cointoss", "--steps", str(steps), "--trials", str(trials), "--seed", str(seed)]
        return self.cli(
            *argv,
            check=lambda r: oracles.check_cointoss(r.stdout, steps, trials, seed, 1.96),
            cached=False,
        )

    def ops(self) -> list[Op]:
        rng, top = self.rng, self.TABLE
        parities = ("all", "odd", "even")
        ops = [self._walk(top)] + [self._walk(n) for n in strata(rng, 1e5, top, 13)]
        for parity in parities:
            ops += [self._density(n, parity, None) for n in strata(rng, 1e5, top, 6)]
            for n, windows in zip(strata(rng, 1e6, top, 6), strata(rng, 10, 100, 6)):
                ops.append(self._density(n, parity, n // windows))
            for i, length in enumerate(strata(rng, 1e4, 1e6, 4)):
                a = rng.randint(1, top - length)
                ops.append(self._mustats(a, a + length, parity, 1 + i % 3))
        for i, length in enumerate(strata(rng, 1e4, 1e6, 8)):
            bias = rng.choice((0.5, 0.6))
            ops.append(self._synthetic(length, rng.randrange(1000), bias, 1 + i % 3))
        # Many steps pair with few trials: every walk is near 1e8 coin flips.
        for steps, trials in zip(strata(rng, 5e3, 2e4, 8), strata(rng, 5e3, 2e4, 8)[::-1]):
            ops.append(self._cointoss(steps, trials, rng.randrange(1000)))
        for i, n in enumerate(strata(rng, 1e3, top, 12)):
            parity = parities[i % 3]
            ops.append(self.probs(with_parity(n, parity), parity))
        ops += ops[::3]  # run twice, for the determinism check
        rng.shuffle(ops)
        # The session ends with the full-table walk again, so the memory
        # peak comes after every probs call has pinned its table.
        return ops + [self._walk(top)]

    def verify(self, records, cache_before):
        problems = super().verify(records, cache_before)
        for record in records:
            if record.cache_after != cache_before:
                problems.append(f"table lookup missed the cache: {record.op.label}")
        first: dict[tuple, Record] = {}
        for record in records:
            if record.failure is None:
                earlier = first.setdefault(record.op.argv, record)
                if earlier.value.stdout != record.value.stdout:
                    record.failure = "stdout differs from an identical earlier invocation"
        return problems


class Exact(Workload):
    """Identity and exact-probability layers on tables of at most 1e5 entries."""

    name = "exact"
    TABLE = 100_000
    IDENTITY_NS = 200
    PROB_NS = 200

    def prepare(self) -> None:
        self.table = self.lab.sieve_moebius(self.TABLE)
        self.bank = None
        self.triples = {}

    def _identity(self, n: int) -> Op:
        return Op(
            f"moebius_via_identity({n})",
            lambda: self.lab.moebius_via_identity(n, self.table),
            lambda got: None if got == self.lab.sieve.moebius_at(n) else f"gives {got}",
        )

    def _bootstrap(self) -> Op:
        def check(table):
            if not np.array_equal(table.values, self.table.values):
                return "differs from the sieve"
            return oracles.spot_check_values(
                lambda n: int(table.values[n]),
                [self.rng.randint(1, self.TABLE) for _ in range(SPOT_CHECKS)],
                self.lab.sieve.moebius_at,
            )

        def call():
            return self.lab.bootstrap_identity(self.TABLE)

        return Op(f"bootstrap_identity({self.TABLE})", call, check)

    def _harmonic(self, cutoffs: list[int]) -> Op:
        def call():
            self.bank = self.lab.harmonic_series_many(cutoffs, self.table)
            return self.bank

        def check(bank):
            if sorted(bank) != sorted(set(cutoffs)):
                return "cutoffs missing from the result"
            return next((f"series at {k}" for k, s in bank.items() if s.cutoff != k), None)

        return Op(f"harmonic_series_many({len(cutoffs)} cutoffs)", call, check)

    def _triple(self, fn: str, n: int, parity_class: str) -> Op:
        def call():
            triple = getattr(self.lab, fn)(n, self.table, series=self.bank[isqrt(n)])
            self.triples[n, parity_class] = triple
            return triple

        return Op(f"{fn}({n})", call, lambda t: oracles.check_triple(t, n, parity_class))

    def _delta(self, n: int, parity_class: str) -> Op:
        """Checked against p_minus - p_plus of the triple op at the same n."""

        def call():
            return self.lab.delta_prob(n, parity_class, self.table, series=self.bank[isqrt(n)])

        def check(gap):
            triple = self.triples.get((n, parity_class))
            if triple is None or gap == triple.p_minus - triple.p_plus:
                return None
            return "differs from p_minus - p_plus"

        return Op(f"delta_prob({n}, {parity_class})", call, check)

    def ops(self) -> list[Op]:
        rng = self.rng
        verify = [
            self.cli(
                "verify-identity", "--max", "100000",
                check=lambda r: None
                if r.stdout == "identity matches the sieve for all n in [2, 100000]\n"
                else f"printed {r.stdout!r}",
            ),
            self.cli(
                "verify-identity", "--max", "100001", "--odd-only",
                check=lambda r: None
                if r.stdout == "identity matches the sieve for all odd n in [2, 100001]\n"
                else f"printed {r.stdout!r}",
            ),
        ]
        top = 10**10
        ops = [self._identity(rng.randrange(top - 10**6, top)) for _ in range(self.IDENTITY_NS)]
        ops.append(self._bootstrap())
        # One n from each of PROB_NS equal strata of [1, 1e8], alternately
        # even and odd, so the cutoffs and parities vary little with the seed.
        width = 10**8 // self.PROB_NS
        ns = [max(2, rng.randrange(i * width, (i + 1) * width)) for i in range(self.PROB_NS)]
        ns = [with_parity(n, ("even", "odd")[i % 2]) for i, n in enumerate(ns)]
        for n in ns:
            parity = "odd" if n % 2 else "even"
            ops.append(self._triple("prob_triple_general", n, "general"))
            ops.append(self._triple(f"prob_triple_{parity}", n, parity))
            ops.append(self._delta(n, "general"))
            ops.append(self._delta(n, parity))
        # probs exits 2 from n = 25230529 (cutoff 5023) up: str() of an
        # integer over 4300 digits. The seeded calls stay below that; the
        # three fixed calls at 1e8 keep the defect counted in the failures.
        for parity in ("all", "odd", "even"):
            for n in strata(rng, 1e3, 2.5e7, 4):
                ops.append(self.probs(with_parity(n, parity), parity))
        ops += [
            self.probs(100_000_000, "all"),
            self.probs(100_000_000, "even"),
            self.probs(100_000_001, "odd"),
        ]
        # Shuffled, so that each kind of call is timed across the whole pass
        # and its latencies do not all fall in one noisy stretch. First come
        # the series bank the triples read and the verify-identity calls,
        # whose tables then serve every probs lookup.
        rng.shuffle(ops)
        return [self._harmonic([isqrt(n) for n in ns])] + verify + ops

WORKLOADS = {w.name: w for w in (Scale1e8, WarmLab, Exact)}
