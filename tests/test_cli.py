import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from mobiuslab import cli
from mobiuslab import sieve as sieve_module
from mobiuslab import stochastic as stochastic_module
from mobiuslab.cli import CACHE_ENV_VAR, build_parser, main
from mobiuslab.probability import delta_prob, prob_triple_even, prob_triple_general, prob_triple_odd
from mobiuslab.sieve import MoebiusTable, moebius_at, save_table, sieve_moebius


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(params=["default", 640])
def digit_limit(request):
    """The interpreter's int/str digit limit set to its default or to 640, the
    least it takes, where one exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    old = sys.get_int_max_str_digits()
    limit = sys.int_info.default_max_str_digits if request.param == "default" else request.param
    sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        sys.set_int_max_str_digits(old)


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} in the JSON output")

    return json.loads(text, parse_constant=refuse)


def as_fraction(field: dict) -> Fraction:
    return Fraction(int(field["num"]), int(field["den"]))


class TestSieveCommand:
    def test_summary_line(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sieve", "--limit", "100", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "M(100)=1" in out
        assert (tmp_path / "moebius_100.mobs").exists()

    def test_squarefree_count_of_ten(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sieve", "--limit", "10", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "squarefree=7" in out

    def test_zero_limit_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sieve", "--limit", "0", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_unwritable_cache_dir(self, capsys, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code, _, err = run(capsys, "sieve", "--limit", "10", "--cache-dir", str(blocker))
        assert code == 2
        assert err

    def test_failed_segment_exits_nonzero_and_writes_no_table(self, tmp_path):
        # a class-5 window, which the second sieve thread takes, raises; no
        # half-filled table is cached
        script = (
            "import sys\n"
            "from mobiuslab import sieve\n"
            "real = sieve._fill_segment\n"
            "def failing(lo, *args):\n"
            "    if lo == 5 + 3 * 6 * 1024:\n"
            "        raise RuntimeError('segment failed')\n"
            "    return real(lo, *args)\n"
            "sieve._fill_segment = failing\n"
            "sieve.DEFAULT_SEGMENT_SIZE = 1024\n"
            "from mobiuslab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "sieve", "--limit", "100000",
             "--cache-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "RuntimeError: segment failed" in proc.stderr
        assert "Exception in thread" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_exits_two_and_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        # the cache file is written on its own thread while the caller counts
        # the summary; a save that fails after its temp file is out is raised
        # in the caller, and the temp file is gone
        savers = []

        def fsync(fd):
            savers.append(threading.current_thread())
            raise OSError("fsync failed")

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        monkeypatch.setattr(sieve_module.os, "fsync", fsync)
        code, out, err = run(capsys, "sieve", "--limit", "100000", "--cache-dir", str(tmp_path))
        assert code == 2
        assert "i/o error: fsync failed" in err
        assert out == ""
        assert len(savers) == 1 and savers[0] is not threading.main_thread()
        assert not savers[0].is_alive()
        assert list(tmp_path.iterdir()) == []  # no *.mobs and no hidden temp file
        assert unhandled == []


class TestVerifyIdentityCommand:
    def test_passes_at_small_scale(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify-identity", "--max", "3000", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "matches" in out

    def test_odd_only(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify-identity", "--max", "3001", "--odd-only", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "odd" in out

    def test_full_scale_sweep(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "verify-identity", "--max", "100000", "--cache-dir", str(tmp_path)
        )
        assert code == 0

    def test_max_one_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-identity", "--max", "1", "--cache-dir", str(tmp_path))
        assert code == 2
        assert "2" in err

    @pytest.mark.parametrize("odd", [[], ["--odd-only"]])
    def test_over_budget_pass_exits_before_it_sieves(self, capsys, tmp_path, monkeypatch, odd):
        # the table and one block's scratch are charged before the table is sieved
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 10**6)
        code, out, err = run(
            capsys, "verify-identity", "--max", "300000", *odd, "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert "memory budget" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []
        code, out, _ = run(
            capsys, "verify-identity", "--max", "100000", *odd, "--cache-dir", str(tmp_path)
        )
        assert code == 0 and "matches" in out

    @staticmethod
    def _cache_with_wrong_values(tmp_path, limit, positions):
        values = sieve_moebius(limit).values.copy()
        for n in positions:
            values[n] = 1 if values[n] == 0 else 0
        save_table(MoebiusTable(limit=limit, values=values), tmp_path / f"moebius_{limit}.mobs")
        return values

    def test_mismatch_names_smallest_n(self, capsys, tmp_path):
        # both positions exceed sqrt(10^4), so the identity still gives mu there
        values = self._cache_with_wrong_values(tmp_path, 10**4, [7001, 4000])
        code, out, _ = run(capsys, "verify-identity", "--max", "10000", "--cache-dir", str(tmp_path))
        assert code == 1
        assert out == (
            f"mismatch at n=4000: identity gives {moebius_at(4000)}, sieve gives {values[4000]}\n"
        )

    def test_odd_only_mismatch_skips_even_n(self, capsys, tmp_path):
        values = self._cache_with_wrong_values(tmp_path, 10**4, [7001, 4000])
        code, out, _ = run(
            capsys, "verify-identity", "--max", "10000", "--odd-only", "--cache-dir", str(tmp_path)
        )
        assert code == 1
        assert out == (
            f"mismatch at n=7001: identity gives {moebius_at(7001)}, sieve gives {values[7001]}\n"
        )


class TestProbsCommand:
    def test_general_at_five(self, capsys, tmp_path):
        code, out, _ = run(capsys, "probs", "--n", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert as_fraction(payload["p_minus"]) == Fraction(1, 2)
        assert as_fraction(payload["p_plus"]) == Fraction(1, 4)
        assert as_fraction(payload["p_zero"]) == Fraction(1, 4)
        assert payload["interval"] == {"lower": 4, "upper": 9}

    def test_even_at_ten(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "probs", "--n", "10", "--parity", "even", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert as_fraction(payload["p_minus"]) == 0
        assert as_fraction(payload["p_plus"]) == Fraction(7, 18)
        assert as_fraction(payload["p_zero"]) == Fraction(11, 18)
        assert as_fraction(payload["gap"]) == Fraction(-7, 18)

    def test_odd_at_eleven(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "probs", "--n", "11", "--parity", "odd", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert as_fraction(payload["p_minus"]) == Fraction(2, 3)
        assert as_fraction(payload["p_plus"]) == Fraction(2, 9)
        assert as_fraction(payload["p_zero"]) == Fraction(1, 9)

    @pytest.mark.parametrize(
        "n, parity, triple_fn, parity_class",
        [
            (100_000_000, "all", prob_triple_general, "general"),
            (100_000_000, "even", prob_triple_even, "even"),
            (100_000_001, "odd", prob_triple_odd, "odd"),
        ],
    )
    def test_past_the_int_digit_limit(
        self, capsys, monkeypatch, tmp_path, digit_limit, n, parity, triple_fn, parity_class
    ):
        # cutoff 1e4: denominators near 8600 digits, over the default 4300
        with monkeypatch.context() as patch:
            if digit_limit is not None:  # a setting of the whole process, not the command's
                patch.setattr(sys, "set_int_max_str_digits", lambda _: pytest.fail("limit set"))
            code, out, err = run(
                capsys, "probs", "--n", str(n), "--parity", parity, "--cache-dir", str(tmp_path)
            )
        if digit_limit is not None:
            assert sys.get_int_max_str_digits() == digit_limit
        assert code == 0, err
        table = sieve_moebius(isqrt(n) + 10)
        triple = triple_fn(n, table)
        if digit_limit is not None:
            sys.set_int_max_str_digits(0)  # to parse; the fixture restores it
        payload = json.loads(out)
        got = {key: as_fraction(payload[key]) for key in ("p_minus", "p_plus", "p_zero", "gap")}
        assert got == {
            "p_minus": triple.p_minus,
            "p_plus": triple.p_plus,
            "p_zero": triple.p_zero,
            "gap": delta_prob(n, parity_class, table),
        }
        assert len(payload["p_zero"]["den"]) > 4300

    @pytest.mark.parametrize("digit_limit", [0], indirect=True)  # no limit, for str() here
    def test_digits_are_those_of_str(self, digit_limit):
        rng = random.Random(23)
        values = [0, 1, -1, 2**1023, 2**1024 - 1, 2**1024, -(2**1024), 2**1025 + 1]
        values += [10**308, 10**309 - 1, -(10**4300), 10**10000]
        for bits in [2, 63, 64, 1023, 1025, 2049, 9_200, 28_600, 300_000] + [
            rng.randint(1, 300_000) for _ in range(12)
        ]:
            values.append(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1)))
        for n in values:
            assert cli._digits(n) == str(n), n.bit_length()

    def test_parity_mismatch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "probs", "--n", "10", "--parity", "odd", "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert "odd class requires odd n" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []

    def test_n_below_two_exits_before_it_sieves(self, capsys, tmp_path):
        code, out, err = run(capsys, "probs", "--n", "1", "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "n must be >= 2" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []

    def test_over_budget_table_exits_before_it_sieves(self, capsys, tmp_path):
        # n = 5e18 needs mu up to isqrt(n) + 10 = 2236067987, over the 2 GiB budget
        cache = tmp_path / "cache"
        code, out, err = run(
            capsys, "probs", "--n", "5000000000000000000", "--cache-dir", str(cache)
        )
        assert code == 2
        assert out == ""
        assert "memory budget" in err and "sieving" not in err
        assert not cache.exists()

    def test_over_budget_series_exits_before_it_sieves(self, capsys, tmp_path):
        # n = 1e17 needs mu up to 316227776, within the budget, but the series to
        # K = 316227766 is charged 16 bytes per unit of K, over it
        cache = tmp_path / "cache"
        code, out, err = run(capsys, "probs", "--n", str(10**17), "--cache-dir", str(cache))
        assert code == 2
        assert out == ""
        assert "the table and exact series for n = 100000000000000000" in err
        assert "memory budget" in err and "sieving" not in err
        assert not cache.exists()


class TestDensityCommand:
    def test_header_and_small_scan(self, capsys, tmp_path):
        code, out, _ = run(capsys, "density", "--max", "10", "--cache-dir", str(tmp_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,freq_minus,freq_plus,freq_zero,freq_squarefree,limit"
        last = lines[-1].split(",")
        assert last[0] == "10"
        assert float(last[4]) == 0.7

    def test_windowed_rows(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "density", "--max", "100", "--window", "50", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + two windows

    def test_windows_without_parity_members_are_skipped(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "density", "--max", "5", "--window", "1", "--parity", "odd",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["1", "3", "5"]

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "density", "--max", "50", "--format", "json", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[-1]["n"] == 50
        assert set(rows[0]) == {"n", "freq_minus", "freq_plus", "freq_zero", "freq_squarefree", "limit"}

    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_memory_stays_near_the_table(self, capsys, tmp_path, table_10m, parity):
        save_table(table_10m, tmp_path / "moebius_10000000.mobs")
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys,
                "density", "--max", "10000000", "--parity", parity,
                "--cache-dir", str(tmp_path),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "sieving" not in err
        assert peak < table_10m.values.nbytes + 4 * 2**20

    def test_rows_are_charged_before_the_table(self, capsys, tmp_path, monkeypatch):
        # 1000 one-number windows fit a 1e6-byte budget as CSV, not as JSON
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 1_000_000)
        args = ["density", "--max", "1000", "--window", "1", "--cache-dir", str(tmp_path)]
        code, out, err = run(capsys, *args, "--format", "json")
        assert code == 2
        assert out == ""
        assert "memory budget" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert len(out.splitlines()) == 1001

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "density.csv"
        code, out, _ = run(
            capsys,
            "density", "--max", "10", "--out", str(target), "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,freq_minus")


class TestWalkCommand:
    def test_csv_shape(self, capsys, tmp_path):
        code, out, _ = run(capsys, "walk", "--max", "5000", "--cache-dir", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,M,sqrt_n,ratio,shift_term"
        assert lines[1].startswith("1000,")
        assert lines[-1].startswith("# alpha=")
        assert "residual=" in lines[-1]

    def test_too_small_max(self, capsys, tmp_path):
        code, _, err = run(capsys, "walk", "--max", "999", "--cache-dir", str(tmp_path))
        assert code == 2
        assert err

    @pytest.mark.parametrize("limit", ["1000", "1332"])
    def test_one_checkpoint_is_refused(self, capsys, tmp_path, limit):
        # alpha is a line through the checkpoints; 1333 is the grid's second
        code, out, err = run(capsys, "walk", "--max", limit, "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "--max must be >= 1333, the second checkpoint" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []

    def test_two_checkpoints_fit_without_a_warning(self, capsys, tmp_path):
        # one checkpoint made np.polyfit print a RankWarning on stderr
        assert run(capsys, "sieve", "--limit", "1333", "--cache-dir", str(tmp_path))[0] == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "mobiuslab", "walk", "--max", "1333",
             "--cache-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [line.split(",")[0] for line in proc.stdout.splitlines()[1:3]] == ["1000", "1333"]

    def test_cold_run_above_the_floor_caches_only_the_prefix(
        self, capsys, tmp_path, monkeypatch, table_10m
    ):
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        warm.mkdir()
        save_table(table_10m, warm / "moebius_10000000.mobs")
        commands = [["walk", "--max", "10000000"], ["walk", "--max", "9999991", "--format", "json"]]
        for parity in ("all", "odd", "even"):
            commands.append(["density", "--max", "9999991", "--parity", parity])
        expected = [run(capsys, *argv, "--cache-dir", str(warm)) for argv in commands]
        monkeypatch.setattr(stochastic_module, "PREFIX_FLOOR", 10**5)
        code, out, err = run(capsys, *commands[0], "--cache-dir", str(cold))
        assert (code, out) == expected[0][:2]
        assert err == "sieving mu up to 739600 (no cached table found)\n"
        assert [p.name for p in cold.iterdir()] == ["moebius_739600.mobs"]
        for argv, want in zip(commands, expected):
            for cache in (cold, warm):
                assert run(capsys, *argv, "--cache-dir", str(cache)) == want, (argv, cache)
        assert [p.name for p in cold.iterdir()] == ["moebius_739600.mobs"]

    @pytest.mark.parametrize("command", ["walk", "density"])
    def test_over_budget_prefix_exits_before_it_sieves(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # the 739601-byte table would fit; with its int32 Mertens prefix it does not
        monkeypatch.setattr(stochastic_module, "PREFIX_FLOOR", 10**5)
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 2_000_000)
        code, out, err = run(capsys, command, "--max", "10000000", "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "memory budget" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["walk", "density"])
    def test_huge_max_is_over_the_budget(self, capsys, tmp_path, command):
        # the prefix size's cube root of a 400-digit max is taken in integers, not floats
        code, out, err = run(capsys, command, "--max", "9" * 400, "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "memory budget" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "walk", "--max", "2000", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["n"] == 1000
        assert "alpha" in payload and "residual" in payload


class TestCointossCommand:
    def test_single_step(self, capsys):
        code, out, _ = run(
            capsys, "cointoss", "--steps", "1", "--trials", "200", "--seed", "4", "--c", "1.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fraction_within_c_sqrt"] == 1.0

    def test_repeat_invocations_are_byte_identical(self, capsys):
        args = ["cointoss", "--steps", "500", "--trials", "400", "--seed", "31"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_includes_theory_value(self, capsys):
        code, out, _ = run(
            capsys, "cointoss", "--steps", "100", "--trials", "100", "--c", "1.96"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theoretical_within_c"] == pytest.approx(0.9500042, abs=1e-6)

    def test_huge_epsilon_is_a_valid_request(self, capsys):
        code, out, _ = run(
            capsys, "cointoss", "--steps", "100", "--trials", "10", "--epsilon", "1000"
        )
        assert code == 0
        assert json.loads(out)["fraction_within_power"] == 1.0

    def test_over_budget_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "cointoss", "--steps", str(10**12), "--trials", "1")
        assert code == 2
        assert out == ""
        assert "memory budget" in err

    def test_bad_c_rejected(self, capsys):
        code, _, err = run(
            capsys, "cointoss", "--steps", "10", "--trials", "10", "--c", "-1.0"
        )
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "flag, value", [("--c", "nan"), ("--c", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf")]
    )
    def test_non_finite_parameters_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "cointoss", "--steps", "100", "--trials", "100", flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag[2:]} must be finite" in err


class TestMustatsCommand:
    def test_short_range_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "mustats", "--range", "1:11", "--cache-dir", str(tmp_path))
        assert code == 2
        assert "chi_square_balance needs at least 100 entries, got 7" in err

    def test_reports_over_mu_signs(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "mustats", "--range", "1:2000", "--lag", "3", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        reports = json.loads(out)
        names = [r["test"] for r in reports]
        assert names == [
            "chi_square_balance",
            "runs_test",
            "lag_autocorrelation",
            "lag_autocorrelation",
            "lag_autocorrelation",
        ]
        assert [r["lag"] for r in reports[2:]] == [1, 2, 3]
        assert all(0 <= r["p_value"] <= 1 for r in reports)

    def test_synthetic_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "mustats", "--range", "1:5001", "--synthetic", "--seed", "12", "--bias", "0.6",
        )
        assert code == 0
        reports = json.loads(out)
        chi = next(r for r in reports if r["test"] == "chi_square_balance")
        assert chi["p_value"] < 0.01
        assert "coin" in chi["sequence"]

    def test_one_sign_sequence_has_a_null_z_score(self, capsys):
        # at P(+1) = 0.99999 the 199 synthetic signs are all +1
        code, out, _ = run(
            capsys, "mustats", "--range", "1:200", "--synthetic", "--bias", "0.99999"
        )
        assert code == 0
        runs = strict_json(out)[1]
        assert runs["test"] == "runs_test"
        assert runs["z_score"] is None and runs["p_value"] == 0.0

    def test_synthetic_over_budget_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "mustats", "--range", f"1:{10**11}", "--synthetic")
        assert code == 2
        assert out == ""
        assert "memory budget" in err

    def test_bad_range_syntax(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mustats", "--range", "10"])
        assert excinfo.value.code == 2

    def test_over_budget_range_exits_before_it_sieves(self, capsys, tmp_path, monkeypatch):
        # the 1e6 table's sieve fits 3e6 bytes; the table and the sequence do not
        monkeypatch.setattr(sieve_module, "DEFAULT_MEMORY_BUDGET", 3_000_000)
        code, out, err = run(
            capsys, "mustats", "--range", "1:1000001", "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert "memory budget" in err and "sieving" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("parity", ["all", "odd", "even"])
    def test_range_past_2_63_members_exits_before_it_sieves(self, capsys, tmp_path, parity):
        # each class of [1, 1e20) has more members than a range's len() can count
        cache = tmp_path / "cache"
        code, out, err = run(
            capsys, "mustats", "--range", f"1:{10**20}", "--parity", parity,
            "--cache-dir", str(cache),
        )
        assert code == 2
        assert out == ""
        assert "memory budget" in err and "sieving" not in err
        assert not cache.exists()


class TestCaching:
    def test_cache_reused_after_first_run(self, capsys, tmp_path):
        _, _, err_first = run(capsys, "density", "--max", "500", "--cache-dir", str(tmp_path))
        assert "sieving" in err_first
        _, _, err_second = run(capsys, "density", "--max", "500", "--cache-dir", str(tmp_path))
        assert "sieving" not in err_second

    def test_larger_cache_serves_smaller_request(self, capsys, tmp_path):
        run(capsys, "sieve", "--limit", "1000", "--cache-dir", str(tmp_path))
        _, _, err = run(capsys, "density", "--max", "600", "--cache-dir", str(tmp_path))
        assert "sieving" not in err

    def test_corrupt_cache_exits_three(self, capsys, tmp_path):
        save_table(sieve_moebius(600), tmp_path / "moebius_600.mobs")
        raw = bytearray((tmp_path / "moebius_600.mobs").read_bytes())
        raw[:4] = b"JUNK"
        (tmp_path / "moebius_600.mobs").write_bytes(raw)
        code, _, err = run(capsys, "density", "--max", "600", "--cache-dir", str(tmp_path))
        assert code == 3
        assert "corrupt" in err
        # reported, not sieved over: the file is untouched and no other table is written
        assert (tmp_path / "moebius_600.mobs").read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == ["moebius_600.mobs"]

    def test_misnamed_file_exits_three(self, capsys, tmp_path):
        # a file named for 1000 entries that holds 500 is reported, not sieved over
        path = tmp_path / "moebius_1000.mobs"
        save_table(sieve_moebius(500), path)
        raw = path.read_bytes()
        code, out, err = run(capsys, "density", "--max", "1000", "--cache-dir", str(tmp_path))
        assert code == 3 and out == ""
        assert "header declares 500 values, 1000 requested" in err and "sieving" not in err
        assert path.read_bytes() == raw
        assert list(tmp_path.iterdir()) == [path]

    def test_damage_past_the_prefix_is_reported_by_its_first_reader(self, capsys, tmp_path):
        path = tmp_path / "moebius_1000.mobs"
        save_table(sieve_moebius(1000), path)
        argv = ["density", "--max", "600", "--cache-dir", str(tmp_path)]
        pristine = run(capsys, *argv)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(raw)
        assert run(capsys, *argv) == pristine
        code, out, err = run(capsys, "density", "--max", "1000", "--cache-dir", str(tmp_path))
        assert code == 3 and out == ""
        assert "corrupt" in err and "sieving" not in err
        assert path.read_bytes() == raw
        assert list(tmp_path.iterdir()) == [path]

    def test_warm_probs_reads_the_table_a_cold_call_sieves(self, capsys, tmp_path):
        argv = ["probs", "--n", "1000003", "--parity", "odd", "--cache-dir"]
        code, cold, err = run(capsys, *argv, str(tmp_path / "cold"))
        assert code == 0 and "sieving mu up to 1010" in err
        run(capsys, "sieve", "--limit", "1000000", "--cache-dir", str(tmp_path / "warm"))
        assert run(capsys, *argv, str(tmp_path / "warm")) == (0, cold, "")

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        code, _, _ = run(capsys, "sieve", "--limit", "300")
        assert code == 0
        assert (tmp_path / "moebius_300.mobs").exists()

    def test_flag_overrides_env_var(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        monkeypatch.setenv(CACHE_ENV_VAR, str(env_dir))
        code, _, _ = run(capsys, "sieve", "--limit", "300", "--cache-dir", str(flag_dir))
        assert code == 0
        assert (flag_dir / "moebius_300.mobs").exists()
        assert not (env_dir / "moebius_300.mobs").exists()


class TestParserReuse:
    CALLS = [
        ["density", "--max", "1000", "--parity", "odd"],
        ["density", "--max", "0"],  # rejected by the parser
        ["probs", "--n", "1001", "--parity", "odd"],
        ["walk", "--max", "999"],  # exits 2 from the command
        ["density", "--max", "1000", "--window", "300"],
    ]

    @staticmethod
    def session(capsys, cache):
        """(exit code, stdout, stderr) of each call, run in turn by main."""
        results = []
        for argv in TestParserReuse.CALLS:
            try:
                results.append(run(capsys, *argv, "--cache-dir", str(cache)))
            except SystemExit as exc:
                results.append((exc.code, *capsys.readouterr()))
        return results

    def test_calls_in_one_process_match_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        reused = self.session(capsys, tmp_path / "reused")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", build_parser)  # a new parser for each call
            fresh = self.session(capsys, tmp_path / "fresh")
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0]
        assert reused[0][1].startswith("n,freq_minus") and reused[2][1].startswith("{")

    def test_wrappers_installed_after_the_first_call_are_called(
        self, capsys, monkeypatch, tmp_path
    ):
        argv = ["density", "--max", "100", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        seen = []
        original = cli.cmd_density
        monkeypatch.setattr(cli, "cmd_density", lambda args: seen.append(args) or original(args))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("n,freq_minus")
        assert len(seen) == 1 and seen[0].limit == 100
