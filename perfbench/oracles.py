"""Output checks that do not share a code path with the program.

Each check returns None when the output is right, or a one-line reason.
Squarefree counts come from the Moebius inversion
Q(x) = sum over d <= sqrt(x) of mu(d) * floor(x / d^2), with mu(d) from
trial division; Mertens values come from published tables.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np

# M(10^k), OEIS A084237.
PUBLISHED_MERTENS = {
    10**3: 2,
    10**4: -23,
    10**5: -48,
    10**6: 212,
    10**7: 1037,
    10**8: 1928,
}
DENSITY_LIMITS = {"all": 6 / math.pi**2, "odd": 8 / math.pi**2, "even": 4 / math.pi**2}
CACHE_HEADER_BYTES = 16  # magic, u32 version, u64 limit


class SquarefreeCounter:
    """Counts squarefree integers of a parity class up to x <= bound**2."""

    def __init__(self, moebius_at, bound: int = 10**4):
        self.mu = np.array([moebius_at(d) for d in range(1, bound + 1)], dtype=np.int64)
        d = np.arange(1, bound + 1, dtype=np.int64)
        self.d2 = d * d

    def upto(self, x: int, parity: str) -> int:
        r = isqrt(x)
        if r > self.mu.size:
            raise ValueError(f"x={x} is beyond the counter's range")
        mu, q = self.mu[:r], x // self.d2[:r]
        total = int(mu @ q)
        # Odd multiples of an odd d^2 up to x: ceil(floor(x / d^2) / 2).
        odd = int(mu[::2] @ ((q[::2] + 1) // 2))
        return {"all": total, "odd": odd, "even": total - odd}[parity]

    def between(self, a: int, b: int, parity: str) -> int:
        """Squarefree integers of the class in [a, b)."""
        return self.upto(b - 1, parity) - self.upto(a - 1, parity)


def parity_count(a: int, b: int, parity: str) -> int:
    """Integers of the class in [a, b)."""
    odd = b // 2 - a // 2
    return {"all": b - a, "odd": odd, "even": b - a - odd}[parity]


def spot_check_values(read_mu, positions, moebius_at) -> str | None:
    for n in positions:
        got, want = read_mu(n), moebius_at(n)
        if got != want:
            return f"mu({n}) reads {got}, trial division gives {want}"
    return None


def spot_check_cache_file(path: Path, rng, count: int, moebius_at) -> str | None:
    """Compare raw cache bytes with trial division at seeded positions."""
    limit = path.stat().st_size - CACHE_HEADER_BYTES
    if path.name != f"moebius_{limit}.mobs":
        return f"{path.name}: payload holds {limit} values"
    positions = [rng.randint(1, limit) for _ in range(count)] + [limit]
    with open(path, "rb") as fh:

        def read_mu(n):
            fh.seek(CACHE_HEADER_BYTES + n - 1)
            return int.from_bytes(fh.read(1), "little", signed=True)

        problem = spot_check_values(read_mu, positions, moebius_at)
    return problem and f"{path.name}: {problem}"


def check_sieve(stdout: str, limit: int, counter: SquarefreeCounter) -> str | None:
    fields = dict(part.split("=", 1) for part in stdout.split())
    if int(fields["limit"]) != limit:
        return f"limit field {fields['limit']}"
    squarefree = counter.upto(limit, "all")
    if int(fields["squarefree"]) != squarefree:
        return f"squarefree={fields['squarefree']}, Moebius inversion gives {squarefree}"
    if limit in PUBLISHED_MERTENS and int(fields[f"M({limit})"]) != PUBLISHED_MERTENS[limit]:
        return f"M({limit})={fields[f'M({limit})']}, published {PUBLISHED_MERTENS[limit]}"
    return None


def _csv_rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]}")
    return list(csv.reader(line for line in lines[1:] if not line.startswith("#")))


def check_walk(stdout: str, limit: int) -> str | None:
    rows = _csv_rows(stdout, "n,M,sqrt_n,ratio,shift_term")
    if not stdout.splitlines()[-1].startswith("# alpha="):
        return "missing the trailing alpha line"
    ns = [int(row[0]) for row in rows]
    if ns != sorted(set(ns)) or ns[0] != 1000 or ns[-1] > limit:
        return "checkpoints out of order or range"
    for row in rows:
        n, m = int(row[0]), int(row[1])
        if PUBLISHED_MERTENS.get(n, m) != m:
            return f"M({n})={m}, published {PUBLISHED_MERTENS[n]}"
    missing = [n for n in PUBLISHED_MERTENS if 1000 <= n <= limit and n not in ns]
    return f"no row at {missing}" if missing else None


def check_density(
    stdout: str, limit: int, parity: str, window: int | None, counter: SquarefreeCounter
) -> str | None:
    """Cumulative rows from 1, or one row per window holding the parity class."""
    rows = _csv_rows(stdout, "n,freq_minus,freq_plus,freq_zero,freq_squarefree,limit")
    ns = [int(row[0]) for row in rows]
    if window:
        spans = [(a, min(a + window, limit + 1)) for a in range(1, limit + 1, window)]
        spans = [(a, b) for a, b in spans if parity_count(a, b, parity)]
        if ns != [b - 1 for a, b in spans]:
            return "rows do not match the windows"
    else:
        if ns != sorted(set(ns)) or ns[-1] != limit:
            return "checkpoints out of order, or the last is not at --max"
        spans = [(1, n + 1) for n in ns]
    for (a, b), row in zip(spans, rows):
        minus, plus, zero, squarefree, density = map(float, row[1:])
        total, want = parity_count(a, b, parity), counter.between(a, b, parity)
        if abs(squarefree * total - want) > 0.01:
            return f"[{a}, {b}): {squarefree * total:.3f} squarefree, inversion gives {want}"
        if abs(minus + plus - squarefree) > 1e-9 or abs(zero + squarefree - 1) > 1e-9:
            return f"[{a}, {b}): frequencies do not add up"
        if abs(density - DENSITY_LIMITS[parity]) > 1e-11:
            return f"[{a}, {b}): limit column {density}"
    return None


@contextlib.contextmanager
def int_digits_limit(digits: int):
    """Raise the int/str conversion limit for a scope; restore it on exit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _squarefree_neighbours(root: int, moebius_at) -> tuple[int, int]:
    a = root
    while moebius_at(a) == 0:
        a -= 1
    b = root + 1
    while moebius_at(b) == 0:
        b += 1
    return a, b


def check_probs(stdout: str, n: int, parity: str, moebius_at) -> str | None:
    payload = json.loads(stdout)
    if payload["n"] != n or payload["parity"] != {"all": "general"}.get(parity, parity):
        return "n or parity not echoed"
    with int_digits_limit(0):
        p = {
            key: Fraction(int(payload[key]["num"]), int(payload[key]["den"]))
            for key in ("p_minus", "p_plus", "p_zero", "gap")
        }
    if p["p_minus"] + p["p_plus"] + p["p_zero"] != 1:
        return "p_minus + p_plus + p_zero != 1"
    if p["p_minus"] - p["p_plus"] != p["gap"]:
        return "p_minus - p_plus != gap"
    a, b = _squarefree_neighbours(isqrt(n), moebius_at)
    if payload["interval"] != {"lower": a * a, "upper": b * b}:
        return f"interval {payload['interval']}, trial division gives [{a * a}, {b * b})"
    return None


def check_triple(triple, n: int, parity_class: str) -> str | None:
    if (triple.n, triple.parity_class) != (n, parity_class):
        return "n or parity class not echoed"
    if triple.p_minus + triple.p_plus + triple.p_zero != 1:
        return "p_minus + p_plus + p_zero != 1"
    return None


def check_mustats(stdout: str, lag: int, signs: np.ndarray | None) -> str | None:
    """Test reports; with ``signs`` given, the balance and runs statistics too."""
    reports = json.loads(stdout)
    names = [r["test"] for r in reports]
    if names != ["chi_square_balance", "runs_test"] + ["lag_autocorrelation"] * lag:
        return f"tests {names}"
    if any(not 0.0 <= r["p_value"] <= 1.0 for r in reports):
        return "p-value outside [0, 1]"
    if signs is None:
        return None
    plus = int(np.count_nonzero(signs == 1))
    chi = (2 * plus - signs.size) ** 2 / signs.size
    if not math.isclose(reports[0]["statistic"], chi, rel_tol=1e-12, abs_tol=1e-12):
        return f"chi-square {reports[0]['statistic']}, counts give {chi}"
    runs = 1 + int(np.count_nonzero(signs[1:] != signs[:-1]))
    if reports[1]["statistic"] != runs:
        return f"runs {reports[1]['statistic']}, counts give {runs}"
    return None


def check_cointoss(stdout: str, steps: int, trials: int, seed: int, c: float) -> str | None:
    """Echoed inputs plus the de Moivre-Laplace limit, with wide margins."""
    r = json.loads(stdout)
    if (r["steps"], r["trials"], r["seed"], r["c"]) != (steps, trials, seed, c):
        return "inputs not echoed"
    theory = math.erf(c / math.sqrt(2.0))
    if abs(r["theoretical_within_c"] - theory) > 1e-12:
        return f"theoretical_within_c {r['theoretical_within_c']}, erf gives {theory}"
    # The fraction's sampling sd is below 0.004 at trials >= 5e3, and its
    # binomial-vs-normal gap below 0.01 at steps >= 5e3.
    if abs(r["fraction_within_c_sqrt"] - theory) > 0.05:
        return f"fraction_within_c_sqrt {r['fraction_within_c_sqrt']} vs {theory}"
    if abs(r["mean_terminal"]) > 10 * math.sqrt(steps / trials):
        return f"mean_terminal {r['mean_terminal']}"
    if abs(r["std_terminal"] / math.sqrt(steps) - 1) > 0.1:
        return f"std_terminal {r['std_terminal']}"
    return None


def read_cache_signs(path: Path, a: int, b: int, parity: str) -> np.ndarray:
    """Nonzero mu over [a, b) of a parity class, straight from the cache bytes."""
    raw = np.fromfile(path, dtype=np.int8, offset=CACHE_HEADER_BYTES)
    values = raw[a - 1 : b - 1]
    if parity != "all":
        values = values[(np.arange(a, b) % 2 == 1) == (parity == "odd")]
    return values[values != 0]
