"""Command-line surface.

Subcommands: sieve, verify-identity, probs, density, walk, cointoss,
mustats. Tables are cached as versioned binary files under --cache-dir
(default ./cache, overridable via the MOBIUSLAB_CACHE_DIR environment
variable); commands sieve on cache miss with a note to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter
error, 3 corrupt cache file.

A corrupt cache file is reported with exit 3 and left as it is, not
sieved over. save_table writes a temp file, fsyncs it and renames it into
place, so no run of this program, killed or concurrent, leaves a corrupt
file behind; one that fails to load was damaged from outside, and that
is reported rather than hidden.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

from mobiuslab.identity import identity_blocks
from mobiuslab.probability import (
    delta_prob,
    density_limits,
    harmonic_series,
    interval_of,
    prob_triple_even,
    prob_triple_general,
    prob_triple_odd,
)
from mobiuslab.sieve import (
    CorruptCacheError,
    MoebiusTable,
    ResourceLimitError,
    load_table,
    save_table,
    sieve_moebius,
)
from mobiuslab.stochastic import (
    MIN_TEST_LENGTH,
    _charge_sign_sequence,
    checkpoint_grid,
    chi_square_balance,
    coin_sign_sequence,
    coin_walk_simulate,
    lag_autocorrelation,
    mertens_walk_stats,
    normal_cdf,
    runs_test,
    sign_sequence_squarefree,
    span_counts,
)

CACHE_ENV_VAR = "MOBIUSLAB_CACHE_DIR"
DENSITY_CSV_HEADER = ["n", "freq_minus", "freq_plus", "freq_zero", "freq_squarefree", "limit"]
WALK_CSV_HEADER = ["n", "M", "sqrt_n", "ratio", "shift_term"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _range_pair(text: str) -> tuple[int, int]:
    try:
        a_text, b_text = text.split(":", 1)
        a, b = int(a_text), int(b_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    if a < 1 or b <= a:
        raise argparse.ArgumentTypeError(f"need 1 <= A < B, got {text!r}")
    return a, b


def resolve_cache_dir(flag_value: str | None) -> Path:
    """--cache-dir, then $MOBIUSLAB_CACHE_DIR, then ./cache."""
    return Path(flag_value or os.environ.get(CACHE_ENV_VAR) or "cache")


def ensure_table(limit: int, cache_dir: Path) -> MoebiusTable:
    """Load the smallest adequate cached table, sieving on a miss."""
    best: tuple[int, Path] | None = None
    if cache_dir.is_dir():
        for path in cache_dir.glob("moebius_*.mobs"):
            try:
                cached_limit = int(path.stem.split("_", 1)[1])
            except (IndexError, ValueError):
                continue
            if cached_limit >= limit and (best is None or cached_limit < best[0]):
                best = (cached_limit, path)
    if best is not None:
        table = load_table(best[1])
        if table.limit >= limit:
            return table
    print(f"sieving mu up to {limit} (no cached table found)", file=sys.stderr)
    table = sieve_moebius(limit)
    _save_cached(table, cache_dir)
    return table


def _save_cached(table: MoebiusTable, cache_dir: Path) -> Path:
    """Save the table as cache_dir/moebius_{limit}.mobs, the name ensure_table finds."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"moebius_{table.limit}.mobs"
    save_table(table, path)
    return path


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _csv_text(header: list[str], rows: list[dict], trailer: str = "") -> str:
    """CSV of the header keys of each row, floats to 12 digits, then the trailer."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(_fmt_float(row[k]) if isinstance(row[k], float) else row[k] for k in header)
    buffer.write(trailer)
    return buffer.getvalue()


@contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int/str digit limit, restoring it on exit.

    Exact probabilities outgrow the default 4300 digits from n ~ 2.5e7 on.
    Interpreters older than 3.11 (and 3.10.7) have no limit to lift.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _fraction_json(f: Fraction) -> dict:
    with _unlimited_int_digits():
        num, den = str(f.numerator), str(f.denominator)
    return {"num": num, "den": den, "decimal": float(f)}


def cmd_sieve(args: argparse.Namespace) -> int:
    table = sieve_moebius(args.limit)
    path = _save_cached(table, args.cache_dir)
    minus, plus, _ = span_counts([1, args.limit + 1], "all", table)[0].tolist()
    squarefree, m_limit = minus + plus, plus - minus
    print(f"limit={args.limit} squarefree={squarefree} M({args.limit})={m_limit} cache={path}")
    return 0


def cmd_verify_identity(args: argparse.Namespace) -> int:
    if args.limit < 2:
        raise ValueError("--max must be >= 2")
    table = ensure_table(args.limit, args.cache_dir)
    start, step = (3, 2) if args.odd_only else (2, 1)
    for lo, got in identity_blocks(start, args.limit + 1, table.values, odd=args.odd_only):
        first = (start - lo) % step  # with --odd-only, the first odd n of the block
        expected = table.values[lo + first : lo + got.size : step]
        wrong = np.flatnonzero(got[first::step] != expected)
        if wrong.size:
            k = first + step * int(wrong[0])
            print(
                f"mismatch at n={lo + k}: identity gives {int(got[k])}, "
                f"sieve gives {int(table.values[lo + k])}"
            )
            return 1
    checked = "odd n" if args.odd_only else "n"
    print(f"identity matches the sieve for all {checked} in [2, {args.limit}]")
    return 0


def cmd_probs(args: argparse.Namespace) -> int:
    n = args.n
    table = ensure_table(max(isqrt(n) + 10, 100), args.cache_dir)
    series = harmonic_series(isqrt(n), table)
    # Built per call, so that wrappers installed on these module names (a tracer,
    # say) are the functions called.
    triple_fns = {"all": prob_triple_general, "odd": prob_triple_odd, "even": prob_triple_even}
    triple = triple_fns[args.parity](n, table, series=series)
    bracket = interval_of(n, table)
    gap = delta_prob(n, triple.parity_class, table, series=series)
    payload = {
        "n": n,
        "parity": triple.parity_class,
        "interval": {"lower": bracket.lower, "upper": bracket.upper},
        "p_minus": _fraction_json(triple.p_minus),
        "p_plus": _fraction_json(triple.p_plus),
        "p_zero": _fraction_json(triple.p_zero),
        "gap": _fraction_json(gap),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    table = ensure_table(args.limit, args.cache_dir)
    if args.window:
        edges = list(range(1, args.limit + 1, args.window)) + [args.limit + 1]
        counts = span_counts(edges, args.parity, table)
    else:
        edges = [1] + [n + 1 for n in checkpoint_grid(10, args.limit - 1) + [args.limit]]
        counts = np.cumsum(span_counts(edges, args.parity, table), axis=0)
    limit_value = density_limits()[args.parity].value
    rows = []
    for b, (minus, plus, total) in zip(edges[1:], counts.tolist()):
        if total == 0:
            continue  # window holds no integers of this parity
        zero = total - minus - plus
        freqs = [minus / total, plus / total, zero / total, (minus + plus) / total]
        rows.append(dict(zip(DENSITY_CSV_HEADER, [b - 1, *freqs, limit_value])))
    if args.fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
        return 0
    _emit(_csv_text(DENSITY_CSV_HEADER, rows), args.out)
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    if args.limit < 1000:
        raise ValueError("--max must be >= 1000 to give enough checkpoints")
    table = ensure_table(args.limit, args.cache_dir)
    stats = mertens_walk_stats(args.limit, table)
    rows = [
        dict(zip(WALK_CSV_HEADER, [int(n), int(m), float(n) ** 0.5, float(ratio), float(shift)]))
        for n, m, ratio, shift in zip(
            stats.checkpoints, stats.m_values, stats.ratios, stats.shift_terms
        )
    ]
    if args.fmt == "json":
        payload = {"rows": rows, "alpha": stats.alpha, "residual": stats.fit_residual}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    trailer = f"# alpha={_fmt_float(stats.alpha)} residual={_fmt_float(stats.fit_residual)}\n"
    _emit(_csv_text(WALK_CSV_HEADER, rows, trailer), args.out)
    return 0


def cmd_cointoss(args: argparse.Namespace) -> int:
    summary = coin_walk_simulate(args.steps, args.trials, args.seed, args.c, args.epsilon)
    payload = {
        "steps": summary.steps,
        "trials": summary.trials,
        "seed": summary.seed,
        "c": summary.c,
        "epsilon": summary.epsilon,
        "fraction_within_c_sqrt": summary.fraction_within_c_sqrt,
        "fraction_within_power": summary.fraction_within_power,
        "theoretical_within_c": normal_cdf(args.c) - normal_cdf(-args.c),
        "mean_terminal": summary.mean_terminal,
        "std_terminal": summary.std_terminal,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_mustats(args: argparse.Namespace) -> int:
    a, b = args.range_
    if args.synthetic:
        seq = coin_sign_sequence(b - a, args.seed, p_plus=args.bias)
        descriptor = f"coin(p={args.bias}, seed={args.seed}, n={b - a})"
    else:
        _charge_sign_sequence(a, b, args.parity, b - 1)  # before a sieve could run
        table = ensure_table(b - 1, args.cache_dir)
        seq = sign_sequence_squarefree(a, b, args.parity, table)
        descriptor = f"mu-signs[{a}:{b}) parity={args.parity}"
    if seq.size < MIN_TEST_LENGTH:
        raise ValueError(
            f"sequence of length {seq.size} is below the test minimum {MIN_TEST_LENGTH}"
        )
    reports = [chi_square_balance(seq, descriptor), runs_test(seq, descriptor)]
    reports += [
        lag_autocorrelation(seq, k, descriptor) for k in range(1, args.lag + 1)
    ]
    payload = [dataclasses.asdict(r) for r in reports]
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiuslab",
        description="Moebius/Mertens tables, identity verification, exact value "
        "probabilities, density scans, and coin-model experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache(p):
        p.add_argument("--cache-dir", help=f"table cache directory (default ./cache, or ${CACHE_ENV_VAR})")

    def add_out(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("sieve", help="sieve mu up to a limit and cache the table")
    p.add_argument("--limit", type=_positive_int, required=True)
    add_cache(p)

    p = sub.add_parser("verify-identity", help="check the delta-sum identity against the sieve")
    p.add_argument("--max", type=_positive_int, required=True, dest="limit")
    p.add_argument("--odd-only", action="store_true", help="check the odd-restricted form on odd n")
    add_cache(p)

    p = sub.add_parser("probs", help="exact value probabilities at n")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--parity", choices=["all", "odd", "even"], default="all")
    add_cache(p)
    add_out(p)

    p = sub.add_parser("density", help="empirical outcome frequencies against the density limits")
    p.add_argument("--max", type=_positive_int, required=True, dest="limit")
    p.add_argument("--parity", choices=["all", "odd", "even"], default="all")
    p.add_argument("--window", type=_positive_int, help="emit per-window rows instead of cumulative ones")
    p.add_argument("--format", choices=["csv", "json"], default="csv", dest="fmt")
    add_cache(p)
    add_out(p)

    p = sub.add_parser("walk", help="Mertens walk checkpoints with the shift-term series")
    p.add_argument("--max", type=_positive_int, required=True, dest="limit")
    p.add_argument("--format", choices=["csv", "json"], default="csv", dest="fmt")
    add_cache(p)
    add_out(p)

    p = sub.add_parser("cointoss", help="simulate fair +/-1 walks and report |S| concentration")
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=1.96)
    p.add_argument("--epsilon", type=float, default=0.1)
    add_out(p)

    p = sub.add_parser("mustats", help="randomness tests over a squarefree sign sequence")
    p.add_argument("--range", type=_range_pair, required=True, dest="range_", metavar="A:B")
    p.add_argument("--parity", choices=["all", "odd", "even"], default="all")
    p.add_argument("--lag", type=_positive_int, default=1, help="report autocorrelation at lags 1..LAG")
    p.add_argument("--synthetic", action="store_true", help="test a seeded synthetic coin instead of mu signs")
    p.add_argument("--bias", type=float, default=0.5, help="P(+1) for the synthetic coin")
    p.add_argument("--seed", type=int, default=0)
    add_cache(p)
    add_out(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    args.cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None))
    # Looked up at each call, so that wrappers installed on the cmd_* module
    # names (a tracer, say) are the functions called.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except CorruptCacheError as exc:
        print(f"corrupt cache: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
