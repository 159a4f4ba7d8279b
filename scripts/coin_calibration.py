#!/usr/bin/env python3
"""Calibration experiment for the randomness tests.

Runs the chi-square balance, runs, and lag-1 autocorrelation tests over
many seeded coin sequences and reports rejection rates at alpha = 0.05:
a fair coin should land near 5% per test, while a biased coin should be
caught by the balance test essentially always.

    python3 scripts/coin_calibration.py --seeds 1000 --length 10000 --bias 0.6
"""

import argparse

from mobiuslab import (
    chi_square_balance,
    coin_sign_sequence,
    lag_autocorrelation,
    runs_test,
)
from mobiuslab.stochastic import MIN_TEST_LENGTH


def rejection_rates(seeds: int, length: int, p_plus: float, master_seed: int) -> dict:
    counts = {"chi_square_balance": 0, "runs_test": 0, "lag_autocorrelation": 0, "any": 0}
    for s in range(seeds):
        seq = coin_sign_sequence(length, seed=master_seed, p_plus=p_plus, stream=s)
        p_values = {
            "chi_square_balance": chi_square_balance(seq).p_value,
            "runs_test": runs_test(seq).p_value,
            "lag_autocorrelation": lag_autocorrelation(seq, 1).p_value,
        }
        for name, p in p_values.items():
            counts[name] += p < 0.05
        counts["any"] += min(p_values.values()) < 0.05
    return {name: count / seeds for name, count in counts.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=1000)
    parser.add_argument("--length", type=int, default=10**4)
    parser.add_argument("--bias", type=float, default=0.6)
    parser.add_argument("--master-seed", type=int, default=12345)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.length < MIN_TEST_LENGTH:
        parser.error(f"--length must be >= {MIN_TEST_LENGTH}, the randomness tests' minimum")
    if not 0 < args.bias < 1:  # also refuses nan
        parser.error("--bias must be in (0, 1)")

    for label, p_plus in (("fair coin", 0.5), (f"biased coin p={args.bias}", args.bias)):
        rates = rejection_rates(args.seeds, args.length, p_plus, args.master_seed)
        print(f"{label} ({args.seeds} seeds, length {args.length}):")
        for name, rate in rates.items():
            print(f"  {name:>22}: rejection rate {rate:.3f}")


if __name__ == "__main__":
    main()
