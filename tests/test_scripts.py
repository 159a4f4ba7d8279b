"""The experiment scripts, each run end to end at a small size in its own process."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from mobiuslab import empirical_frequencies, load_table
from mobiuslab.cli import CACHE_ENV_VAR, main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_script(name, *argv, cwd, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(CACHE_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert code == 0 or proc.stdout == ""  # a refusal prints nothing to stdout
    return proc.stdout if code == 0 else proc.stderr


def test_density_scan_writes_the_cli_output(tmp_path, capsys):
    out = run_script("density_scan.py", "--max", "5000", "--out-dir", "results", cwd=tmp_path)
    table = load_table(tmp_path / "cache" / "moebius_5000.mobs")
    lines = out.splitlines()
    for parity, line in zip(("all", "odd", "even"), lines, strict=True):
        # the summary once computed from the table, now read from the last CSV row
        final = empirical_frequencies(1, 5001, parity, table)
        assert line == (
            f"{parity:>5}: freq_squarefree={final.freq_squarefree:.8f} "
            f"limit={final.limit_value:.8f} "
            f"offset={final.freq_squarefree - final.limit_value:+.2e} -> "
            f"{Path('results') / f'density_{parity}.csv'}"
        )
        assert main(["density", "--max", "5000", "--parity", parity,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        written = (tmp_path / "results" / f"density_{parity}.csv").read_text()
        assert written == capsys.readouterr().out


def test_mertens_shift_report(tmp_path):
    out = run_script("mertens_shift_report.py", "--max", "5000", cwd=tmp_path)
    rows = [line.split() for line in out.splitlines() if line[:12].strip().isdigit()]
    assert [row[0] for row in rows] == ["1000", "1333", "1778", "2371", "3162", "4216"]
    assert rows[0][1] == "2"  # M(1000)
    assert "over 6 checkpoints" in out


def test_mertens_shift_report_is_pinned(tmp_path):
    # every byte of the report; alpha and its residual are printed to 4 places,
    # far from where a last-bit difference of np.polyfit could move them
    out = run_script("mertens_shift_report.py", "--max", "100000", cwd=tmp_path)
    assert out.endswith("alpha = 0.7095 (rms residual 0.3319) over 17 checkpoints\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "70ee1152b2479b9e640774b357e2c698f40e574608f1cd3642739c465a04ac9e"
    )


def test_mertens_shift_report_needs_two_checkpoints(tmp_path):
    err = run_script("mertens_shift_report.py", "--max", "1332", cwd=tmp_path, code=2)
    assert "--max must be >= 1333, the second checkpoint" in err
    assert list(tmp_path.iterdir()) == []  # exits before it sieves


def test_mertens_shift_report_over_the_budget(tmp_path):
    err = run_script("mertens_shift_report.py", "--max", "9" * 400, cwd=tmp_path, code=2)
    assert "memory budget" in err
    assert list(tmp_path.iterdir()) == []  # charged before it could sieve


def test_coin_calibration(tmp_path):
    out = run_script(
        "coin_calibration.py", "--seeds", "20", "--length", "400", "--bias", "0.75", cwd=tmp_path
    )
    fair, biased = out.split("biased coin p=0.75")
    assert "fair coin (20 seeds, length 400):" in fair
    assert fair.count("rejection rate") == 4
    assert "chi_square_balance: rejection rate 1.000" in biased


def test_coin_calibration_refuses_what_it_cannot_run(tmp_path):
    err = run_script("coin_calibration.py", "--length", "99", cwd=tmp_path, code=2)
    assert "--length must be >= 100, the randomness tests' minimum" in err
    assert "Traceback" not in err
    err = run_script("coin_calibration.py", "--seeds", "0", cwd=tmp_path, code=2)
    assert "--seeds must be >= 1" in err
    assert "Traceback" not in err
    for bias in ("1.5", "0", "1", "nan"):
        err = run_script("coin_calibration.py", "--bias", bias, "--seeds", "1", cwd=tmp_path, code=2)
        assert "--bias must be in (0, 1)" in err
        assert "Traceback" not in err
    out = run_script("coin_calibration.py", "--seeds", "1", "--length", "100", cwd=tmp_path)
    assert "fair coin (1 seeds, length 100):" in out
