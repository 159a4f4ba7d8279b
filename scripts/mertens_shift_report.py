#!/usr/bin/env python3
"""Mertens walk experiment: the actual walk M(n) next to the systematic
shift estimate n * m^2 at cutoff floor(sqrt(n)), plus the sqrt-scaled
oscillation |M(n)|/sqrt(n) and the fitted running-max exponent.

The two series are printed side by side without any verdict on whether
the shift stays at the oscillation order; that comparison is the point
of the report. The rows are those of `mobiuslab walk --format json`, which
charges, reads and caches the table under $MOBIUSLAB_CACHE_DIR or ./cache;
its refusals and exit codes are the script's.

    python3 scripts/mertens_shift_report.py --max 10000000
"""

import argparse
import contextlib
import io
import json
import sys
from itertools import accumulate

from mobiuslab import cli


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=10**7)
    args = parser.parse_args()

    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        code = cli.main(["walk", "--max", str(args.max), "--format", "json"])
    if code:
        sys.exit(code)
    walk = json.loads(buffer.getvalue())
    rows = walk["rows"]
    running_max = accumulate((abs(row["M"]) for row in rows), max)

    header = f"{'n':>12} {'M(n)':>8} {'|M|/sqrt(n)':>12} {'shift n*m^2':>14} {'run max':>8}"
    print(header)
    print("-" * len(header))
    for row, rm in zip(rows, running_max):
        n, m, ratio, shift = row["n"], row["M"], row["ratio"], row["shift_term"]
        print(f"{n:>12} {m:>8} {ratio:>12.5f} {shift:>14.5g} {rm:>8}")
    print("-" * len(header))
    print(
        f"running-max exponent alpha = {walk['alpha']:.4f} "
        f"(rms residual {walk['residual']:.4f}) over {len(rows)} checkpoints"
    )


if __name__ == "__main__":
    main()
