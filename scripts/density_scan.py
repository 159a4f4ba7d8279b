#!/usr/bin/env python3
"""Density experiment: how fast the squarefree frequencies approach
6/pi^2 (all), 8/pi^2 (odd), and 4/pi^2 (even).

Writes one CSV per parity class with cumulative frequencies at
geometric checkpoints (the output of `mobiuslab density`) and prints the
final offsets from the limits, read from the last row of each CSV. The
mu table is cached like the CLI's, under $MOBIUSLAB_CACHE_DIR or ./cache.

    python3 scripts/density_scan.py --max 10000000 --out-dir results
"""

import argparse
import csv
import sys
from pathlib import Path

from mobiuslab import cli


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=10**7)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)

    for parity in ("all", "odd", "even"):
        path = args.out_dir / f"density_{parity}.csv"
        code = cli.main(
            ["density", "--max", str(args.max), "--parity", parity, "--out", str(path)]
        )
        if code:
            sys.exit(code)
        with open(path, newline="") as fh:
            *_, last = csv.DictReader(fh)  # the cumulative row at n = max
        freq, limit = float(last["freq_squarefree"]), float(last["limit"])
        print(f"{parity:>5}: freq_squarefree={freq:.8f} limit={limit:.8f} "
              f"offset={freq - limit:+.2e} -> {path}")


if __name__ == "__main__":
    main()
