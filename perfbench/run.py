"""mobiuslab benchmark driver.

    python3 perfbench/run.py --workload {scale-1e8,warm-lab,exact,all} \
        --seed N --seconds S --trace {0,1}

Runs passes of one workload, each in a fresh single-threaded process
(worker.py) with its own cache directory, until S seconds have passed;
one pass is one closed loop over the workload's operations. With
--trace 0 it prints the end-to-end metrics, as medians over passes; with
--trace 1 it alternates untraced and traced passes and prints the
per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and
units come from BENCHMARK.json; perfbench/DESIGN.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"  # per-pass cache directories, removed after each pass
SPANS_DIR = ROOT / ".perfbench_out"  # JSON-lines spans of the last traced pass
WORKLOAD_NAMES = ("scale-1e8", "warm-lab", "exact")
# A run must end within 180 s: start no pass expected to end after this.
PASS_DEADLINE_S = 150.0
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


PLAIN, TRACED, PEAKS = "plain", "traced", "peaks"


def run_pass(workload: str, seed: int, index: int, kind: str) -> dict:
    """One pass in a fresh worker process with its own cache directory."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    result_path = workdir / "result.json"
    env = {k: v for k, v in os.environ.items() if k != "MOBIUSLAB_CACHE_DIR"}
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    try:
        spawn = time.monotonic()
        argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(spawn)]
        argv += [str(workdir), str(result_path)]
        if kind != PLAIN:
            SPANS_DIR.mkdir(exist_ok=True)
            argv += ["--spans", str(SPANS_DIR / f"{workload}.jsonl")]
        if kind == PEAKS:
            argv.append("--peaks")
        proc = subprocess.run(
            argv, cwd=workdir, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise BenchError(f"{workload} pass {index} exited {proc.returncode}")
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {index} ran over {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["kind"] = kind
    result["duration_s"] = time.monotonic() - spawn
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes while the next one is expected to end within ``seconds``.

    With trace, untraced and traced passes alternate, after one traced
    pass that also tracks memory peaks (which slows the calls it measures).
    The first pass of each kind runs whatever the time.
    """
    kinds = [PLAIN, PEAKS, TRACED] if trace else [PLAIN]
    passes = []
    start = time.monotonic()
    while True:
        if len(passes) < len(kinds):
            kind = kinds[len(passes)]
        else:
            kind = TRACED if trace and passes[-1]["kind"] == PLAIN else PLAIN
            expected = statistics.mean(r["duration_s"] for r in passes if r["kind"] == kind)
            if time.monotonic() - start + expected > min(seconds, PASS_DEADLINE_S):
                return passes
        passes.append(run_pass(workload, seed, len(passes), kind))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(passes: list[dict]) -> tuple[dict, int]:
    ops = [ms for r in passes for ms in r["op_ms"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "op_p50_ms": percentile(ops, 50),
        "op_p90_ms": percentile(ops, 90),
    }
    return metrics, len(ops)


def per_layer(passes: list[dict]) -> dict:
    plain = [r for r in passes if r["kind"] == PLAIN]
    traced = [r for r in passes if r["kind"] == TRACED]
    peaks = [r for r in passes if r["kind"] == PEAKS]
    metrics = {}
    for name in traced[0]["layers"]:
        source = peaks if name.endswith(".peak_mb") else traced
        metrics[name] = statistics.median(r["layers"][name] for r in source)
    metrics["trace.overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(r["wall_s"] for r in plain)
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    return metrics


def machine() -> str:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return f"nproc={os.cpu_count()} ram={ram:.1f}GiB python={platform.python_version()}"


def report(workload: str, seed: int, args, spec: dict) -> dict:
    passes = run_passes(workload, seed, args.seconds, args.trace)
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    problems = [p for r in passes for p in r["problems"]]
    e2e, samples = end_to_end([r for r in passes if r["kind"] == PLAIN])

    kinds = " ".join(r["kind"] for r in passes)
    print(f"perfbench {workload} seed={seed} trace={args.trace}: passes {kinds}, "
          f"one fresh process each; {machine()} numpy={passes[0]['numpy']}")
    if args.trace:
        wanted = spec["per_layer"]
        metrics = per_layer(passes)
        print(f"  spans of the last traced pass: {SPANS_DIR.relative_to(ROOT)}/{workload}.jsonl")
    else:
        wanted = spec["end_to_end"]
        metrics = e2e
    for m in wanted:
        note = f"  (n={samples} samples)" if m["name"].startswith("op_p") else ""
        print(f"  {m['name']:44s} {metrics[m['name']]:>16.6g} {m['unit']}{note}")
    print(f"  {'error_rate':44s} {len(failures) / attempted:>16.6g} "
          f"({len(failures)} failed / {attempted} attempted)")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in passes)  # same order as the kinds
    print(f"  {'wall_s of each pass':44s} {walls}")
    for line in sorted(set(failures))[:20]:
        print(f"  failed: {line}")
    for line in problems[:20]:
        print(f"  PROBLEM: {line}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    wrong = [f for r in passes for f in r["wrong"]]
    return {
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "mobiuslab" / "__init__.py").is_file():
            raise BenchError(f"no mobiuslab sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = [report(w, args.seed, args, spec) for w in workloads]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
