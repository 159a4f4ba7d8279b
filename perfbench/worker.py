"""One pass of one workload, in a fresh process.

Started by run.py:
    python3 perfbench/worker.py WORKLOAD SEED SPAWN_TIME WORKDIR RESULT \
        [--spans PATH [--peaks]]
SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so set-up
time covers interpreter start, ``import mobiuslab`` and the workload's own
preparation. With --spans the pass is traced and its spans go to PATH;
--peaks adds tracemalloc peaks. The pass writes a JSON summary to RESULT.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CliResult, Record

ROOT = Path(__file__).resolve().parent.parent


def import_mobiuslab():
    """Import the package from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    lab = importlib.import_module("mobiuslab")
    importlib.import_module("mobiuslab.cli")
    if Path(lab.__file__).resolve().parent != src / "mobiuslab":
        raise ImportError(f"mobiuslab imported from {lab.__file__}, not from {src}")
    return lab


def cache_listing(cache_dir: Path) -> tuple[str, ...]:
    return tuple(sorted(os.listdir(cache_dir))) if cache_dir.is_dir() else ()


def run_pass(workload_name, seed, spawn_time, workdir, spans_path, peaks):
    lab = import_mobiuslab()
    tracer = None
    if spans_path:
        tracer = Tracer(track_peaks=peaks)
        tracer.install(lab)
    workload = WORKLOADS[workload_name](lab, seed, workdir / "cache")
    workload.prepare()
    ops = workload.ops()
    cache_before = cache_listing(workload.cache_dir)

    records = []
    start = time.monotonic()
    setup_s = start - spawn_time
    for op in ops:
        t0 = time.perf_counter()
        try:
            value, failure = op.call(), None
        except Exception as exc:  # the operation failed; count it and go on
            value, failure = None, f"raised {type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        if isinstance(value, CliResult) and value.code != 0:
            last_line = (value.stderr.strip().splitlines() or [""])[-1]
            failure = f"exit {value.code}: {last_line}"
        records.append(Record(op, ms, value, failure, cache_listing(workload.cache_dir)))
    wall_s = time.monotonic() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if tracer:
        tracer.enabled = False
    errored = [r.failure is not None for r in records]
    for record in records:
        if record.failure is None:
            try:
                record.failure = record.op.check(record.value)
            except Exception as exc:  # malformed output
                record.failure = f"check raised {type(exc).__name__}: {exc}"
    problems = workload.verify(records, cache_before)
    failures = [f"{r.op.label}: {r.failure}" for r in records if r.failure]

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "op_ms": [r.ms for r in records],
        "attempted": len(records),
        "failures": failures,
        # Failed checks: wrong output, as opposed to an error or nonzero exit.
        "wrong": [
            f"{r.op.label}: {r.failure}"
            for r, error in zip(records, errored)
            if r.failure and not error
        ],
        "problems": problems,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = sum(r.output_bytes for r in records)
        result["layers"] = layers
        tracer.write_jsonl(spans_path, origin=spawn_time)
    return result


def main(argv):
    parser = argparse.ArgumentParser()
    for name in ("workload", "seed", "spawn_time", "workdir", "result"):
        parser.add_argument(name)
    parser.add_argument("--spans")
    parser.add_argument("--peaks", action="store_true")
    args = parser.parse_args(argv)
    # The interpreter's default, whatever PYTHONINTMAXSTRDIGITS says: probs
    # output above the default limit is a known failure the pass must count.
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    result = run_pass(
        args.workload, int(args.seed), float(args.spawn_time), Path(args.workdir),
        args.spans, args.peaks,
    )
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
