#!/usr/bin/env python3
"""Mertens walk experiment: the actual walk M(n) next to the systematic
shift estimate n * m^2 at cutoff floor(sqrt(n)), plus the sqrt-scaled
oscillation |M(n)|/sqrt(n) and the fitted running-max exponent.

The two series are printed side by side without any verdict on whether
the shift stays at the oscillation order; that comparison is the point
of the report. The mu table is charged, read and cached like the CLI's
walk: the prefix that stochastic.prefix_limit names, under
$MOBIUSLAB_CACHE_DIR or ./cache. A --max over the memory budget exits 2
before anything is sieved.

    python3 scripts/mertens_shift_report.py --max 10000000
"""

import argparse

from mobiuslab import cli, mertens_walk_stats
from mobiuslab.sieve import ResourceLimitError
from mobiuslab.stochastic import MIN_WALK_LIMIT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=10**7)
    args = parser.parse_args()
    if args.max < MIN_WALK_LIMIT:  # before a table could be sieved
        parser.error(f"--max must be >= {MIN_WALK_LIMIT}, the second checkpoint, to fit alpha")

    what = f"a Mertens walk to {args.max}"
    try:
        table = cli._class_table(args.max, 0, what, cli.resolve_cache_dir(None))
    except ResourceLimitError as exc:
        parser.error(str(exc))
    stats = mertens_walk_stats(args.max, table)

    header = f"{'n':>12} {'M(n)':>8} {'|M|/sqrt(n)':>12} {'shift n*m^2':>14} {'run max':>8}"
    print(header)
    print("-" * len(header))
    for n, m, ratio, shift, rm in zip(
        stats.checkpoints, stats.m_values, stats.ratios, stats.shift_terms, stats.running_max
    ):
        print(f"{n:>12} {m:>8} {ratio:>12.5f} {shift:>14.5g} {rm:>8}")
    print("-" * len(header))
    print(
        f"running-max exponent alpha = {stats.alpha:.4f} "
        f"(rms residual {stats.fit_residual:.4f}) over {len(stats.checkpoints)} checkpoints"
    )


if __name__ == "__main__":
    main()
