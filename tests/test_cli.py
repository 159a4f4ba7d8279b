import json
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from mobiuslab import cli
from mobiuslab import sieve as sieve_module
from mobiuslab.cli import CACHE_ENV_VAR, build_parser, main
from mobiuslab.probability import delta_prob, prob_triple_even, prob_triple_general, prob_triple_odd
from mobiuslab.sieve import MoebiusTable, moebius_at, save_table, sieve_moebius


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit in force, where one exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.int_info.default_max_str_digits
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
        self, capsys, tmp_path, default_digit_limit, n, parity, triple_fn, parity_class
    ):
        # cutoff 1e4: denominators near 8600 digits, over the default 4300
        code, out, err = run(
            capsys, "probs", "--n", str(n), "--parity", parity, "--cache-dir", str(tmp_path)
        )
        if default_digit_limit is not None:
            assert sys.get_int_max_str_digits() == default_digit_limit
        assert code == 0, err
        table = sieve_moebius(isqrt(n) + 10)
        triple = triple_fn(n, table)
        if default_digit_limit is not None:
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

    def test_parity_mismatch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "probs", "--n", "10", "--parity", "odd", "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert err


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
        assert "100" in err

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
