"""Span tracing of the mobiuslab layers from outside the package.

Every public function of the six layer modules is wrapped at every module
attribute through which callers reach it (``mobiuslab.cli.load_table`` and
``mobiuslab.sieve.load_table`` get the same wrapper), so nested calls give
parent and child spans. Spans live in memory and are written out as JSON
lines at the end of a pass. A span's self time is its duration minus the
durations of its direct children; calls in one process are strictly nested,
so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("sieve", "identity", "probability", "stochastic", "rng", "cli")

# Calls whose peak allocation tracemalloc measures when peaks are tracked.
# It slows the Python code in those calls by half or more, so timings come
# from passes that do not track peaks.
PEAK_TRACKED = {"sieve.sieve_moebius", "sieve.mertens_series"}

RANDOMNESS_TESTS = (
    "stochastic.chi_square_balance",
    "stochastic.runs_test",
    "stochastic.lag_autocorrelation",
)
PROB_TRIPLES = (
    "probability.prob_triple_general",
    "probability.prob_triple_odd",
    "probability.prob_triple_even",
)


def _fraction_bits(f) -> int:
    return f.numerator.bit_length() + f.denominator.bit_length()


def _path_size(args, kwargs, position: int) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[position])


# Work done by one call, as a count, keyed by span name.
WORK = {
    "sieve.sieve_moebius": lambda a, k, r: r.limit,
    "sieve.save_table": lambda a, k, r: _path_size(a, k, 1),
    "sieve.load_table": lambda a, k, r: _path_size(a, k, 0),
    "probability.harmonic_series_many": lambda a, k, r: len(r),
    "probability.delta_prob": lambda a, k, r: _fraction_bits(r),
    "stochastic.coin_walk_simulate": lambda a, k, r: r.steps * r.trials,
    "rng.word_block": lambda a, k, r: r.size,
    "rng.words": lambda a, k, r: r.size,
}
for _name in PROB_TRIPLES:
    WORK[_name] = lambda a, k, r: sum(
        _fraction_bits(f) for f in (r.p_minus, r.p_plus, r.p_zero)
    )
for _name in RANDOMNESS_TESTS:
    WORK[_name] = lambda a, k, r: len(k["seq"] if "seq" in k else a[0])


class Tracer:
    """Records one span per wrapped call while ``enabled`` is true."""

    def __init__(self, track_peaks: bool):
        self.spans: list[list] = []  # [name, start, end, parent, work, peak_bytes]
        self._stack: list[int] = []
        self.enabled = True
        self.track_peaks = track_peaks

    def install(self, package) -> None:
        """Wrap the public functions of every layer module."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(module, attr, wrappers[obj])

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        work = WORK.get(name)
        track_peak = self.track_peaks and name in PEAK_TRACKED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            peak = track_peak and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
                if peak:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path, origin: float) -> None:
        """Spans as JSON lines; times in seconds from ``origin`` (a
        ``time.monotonic()`` reading)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, work, peak) in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }
                if work is not None:
                    record["work"] = work
                if peak is not None:
                    record["peak_bytes"] = peak
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by name, in the units BENCHMARK.json lists.

        Rates divide work by the inclusive time of the calls that did it.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        work = defaultdict(int)
        peak = defaultdict(int)
        for name, start, end, parent, w, p in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
            if w is not None:
                work[name] += w
            if p is not None:
                peak[name] = max(peak[name], p)

        # A table lookup missed when a sieve ran inside it.
        misses = set()
        for span in self.spans:
            if span[0] == "sieve.sieve_moebius":
                j = span[3]
                while j >= 0 and self.spans[j][0] != "cli.ensure_table":
                    j = self.spans[j][3]
                if j >= 0:
                    misses.add(j)
        lookups = calls["cli.ensure_table"]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def sum_of(table, names):
            return sum(table[n] for n in names)

        mib = float(1 << 20)
        identity_evals = ("identity.moebius_via_identity", "identity.moebius_via_identity_odd")
        return {
            "sieve.sieve_moebius.self_s": self_time["sieve.sieve_moebius"],
            "sieve.mu_per_s": rate(work["sieve.sieve_moebius"], total["sieve.sieve_moebius"]),
            "sieve.sieve_moebius.peak_mb": peak["sieve.sieve_moebius"] / mib,
            "sieve.mertens_series.self_s": self_time["sieve.mertens_series"],
            "sieve.mertens_series.peak_mb": peak["sieve.mertens_series"] / mib,
            "sieve.save_table.self_s": self_time["sieve.save_table"],
            "sieve.save_table.bytes": work["sieve.save_table"],
            "sieve.load_table.self_s": self_time["sieve.load_table"],
            "sieve.load_table.calls": calls["sieve.load_table"],
            "sieve.load_table.bytes": work["sieve.load_table"],
            "cli.main.self_s": self_time["cli.main"],
            "cli.main.calls": calls["cli.main"],
            "cli.ensure_table.self_s": self_time["cli.ensure_table"],
            "cli.ensure_table.hits": lookups - len(misses),
            "cli.ensure_table.misses": len(misses),
            "cli.ensure_table.hit_ratio": rate(lookups - len(misses), lookups),
            "identity.moebius_via_identity.self_s": self_time["identity.moebius_via_identity"],
            "identity.moebius_via_identity.calls": calls["identity.moebius_via_identity"],
            "identity.n_per_s": rate(
                sum_of(calls, identity_evals), sum_of(total, identity_evals)
            ),
            "identity.moebius_via_identity_odd.self_s": self_time[
                "identity.moebius_via_identity_odd"
            ],
            "identity.bootstrap_identity.self_s": self_time["identity.bootstrap_identity"],
            "probability.harmonic_series_many.self_s": self_time[
                "probability.harmonic_series_many"
            ],
            "probability.harmonic_series_many.cutoffs": work["probability.harmonic_series_many"],
            "probability.cutoffs_per_s": rate(
                work["probability.harmonic_series_many"],
                total["probability.harmonic_series_many"],
            ),
            "probability.harmonic_series.self_s": self_time["probability.harmonic_series"],
            "probability.harmonic_series.calls": calls["probability.harmonic_series"],
            "probability.prob_triple.self_s": sum_of(self_time, PROB_TRIPLES),
            "probability.prob_triple.calls": sum_of(calls, PROB_TRIPLES),
            "probability.delta_prob.self_s": self_time["probability.delta_prob"],
            "probability.result_bits": sum_of(work, PROB_TRIPLES + ("probability.delta_prob",)),
            "stochastic.mertens_walk_stats.self_s": self_time["stochastic.mertens_walk_stats"],
            "stochastic.empirical_frequencies.self_s": self_time[
                "stochastic.empirical_frequencies"
            ],
            "stochastic.empirical_frequencies.calls": calls["stochastic.empirical_frequencies"],
            "stochastic.randomness_tests.self_s": sum_of(self_time, RANDOMNESS_TESTS),
            "stochastic.test_entries_per_s": rate(
                sum_of(work, RANDOMNESS_TESTS), sum_of(total, RANDOMNESS_TESTS)
            ),
            "stochastic.sign_sequence_squarefree.self_s": self_time[
                "stochastic.sign_sequence_squarefree"
            ],
            "stochastic.coin_walk_simulate.self_s": self_time["stochastic.coin_walk_simulate"],
            "stochastic.coin_steps_per_s": rate(
                work["stochastic.coin_walk_simulate"], total["stochastic.coin_walk_simulate"]
            ),
            "stochastic.coin_sign_sequence.self_s": self_time["stochastic.coin_sign_sequence"],
            "rng.word_block.self_s": self_time["rng.word_block"],
            "rng.words_generated": work["rng.word_block"] + work["rng.words"],
            "rng.uniforms.self_s": self_time["rng.uniforms"],
        }
