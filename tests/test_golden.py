"""Golden CLI outputs: the stdout of a fixed command set, pinned as sha256
digests, so that a change to the code is checked against the exact bytes
the CLI printed before it.

Values that pass through BLAS or LAPACK can differ in the last bit on
another BLAS build or CPU: the walk's np.polyfit alpha and residual. They
are cut out of the text before hashing and compared to 1e-12 relative
instead. So are the lag autocorrelation fields of mustats: they were
pinned when r was an np.dot, and the exact ratio computed now differs
from those pins in the last digits. Everything else is compared byte for
byte.

After a deliberate change of output, print the new table with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import math
import re

import pytest

from mobiuslab.cli import CACHE_ENV_VAR, main

NUMBER = r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?"

# command -> (sha256 of stdout with the BLAS-derived values cut out, those values)
GOLDEN = {
    "density --max 100000 --parity all --format csv": (
        "2cff00d70bc34f2c1eb5f853a5ecf43726501e17f431d431d250e1f1686a176d",
        (),
    ),
    "density --max 100000 --parity all --format json": (
        "e984210b2935097898720411abb39b143b4d70f012a7f39a45e77897c3c5d68a",
        (),
    ),
    "density --max 100000 --parity odd --format csv": (
        "cc49077db3ce42b924dee82438d46304765f79829ab8a94704a890648c056a35",
        (),
    ),
    "density --max 100000 --parity odd --format json": (
        "d65208681c8b83e9e46a7c084806c48a850e1e0d90ba324294eaac51cb6f8b60",
        (),
    ),
    "density --max 100000 --parity even --format csv": (
        "18dd4c463c46e622f389682a478cb77d126fbed46e83e893e24161ef5e13947a",
        (),
    ),
    "density --max 100000 --parity even --format json": (
        "bb19f412193f8400479869770fc00ebf3fea331fafbc855169a2c857e22eaf5e",
        (),
    ),
    "density --max 1000 --window 7 --parity odd": (
        "c96accbd174b73650465c69e9494cbdada1b9c71a9a1ff1564ed564d04a02df5",
        (),
    ),
    "walk --max 100000": (
        "31db3e004261a541f7bf957cbfbc4a2ceb5eb76792d3f2b5192985ea94b48e6f",
        (0.709470734025, 0.331893558628),
    ),
    "walk --max 100000 --format json": (
        "9dfb91b7351965686a080656c2ba02367a4f0913367caae0c2cda332c8382f44",
        (0.7094707340246416, 0.3318935586277096),
    ),
    "probs --n 10 --parity all": (
        "6f584805b8c213a8caa874a281032dbcab495b65f27faacd70818df736e6717b",
        (),
    ),
    "probs --n 11 --parity all": (
        "c084bafc31d20213aaddc8e15edd0c32735d3c9a114dddeb7e0b25437aba8989",
        (),
    ),
    "probs --n 1000003 --parity all": (
        "f068c03597a36fa01f29055ba8b31ee5f50df1eaf4887ca0e27f4e753578f915",
        (),
    ),
    "probs --n 100000000 --parity all": (
        "5167aee31e0572e542dbaab759b223db838364c4eec2ec82e76f16a9015f8dcf",
        (),
    ),
    "probs --n 11 --parity odd": (
        "ce7eb3d492f613f848191d2ca346c700b3fb905f33c93c4053c4a256f50774e6",
        (),
    ),
    "probs --n 1000003 --parity odd": (
        "beb4afc86964e8fe82cb090b5a579d9617a28973c87f66ef7a4d3328a4e36f1f",
        (),
    ),
    "probs --n 100000001 --parity odd": (
        "a597dcfccee2003c72d2586dd66109f5cb657f2d3fc41c8154b7c67108e1baae",
        (),
    ),
    "probs --n 10 --parity even": (
        "375b992e07bb43d59254fa3574591e64d521e4868b4b9410f81cbb8a934af9ff",
        (),
    ),
    "probs --n 1000002 --parity even": (
        "5ad12f3778c22d8f7957286e38e24340da52726a826a65e401e292e8fdfdeeda",
        (),
    ),
    "probs --n 100000000 --parity even": (
        "0e33c18c5959bd2b0c1dbd62a02f379672d23da68196588771733fd5fab135e7",
        (),
    ),
    "mustats --range 1:100000 --lag 3": (
        "27d6d2b3fc654f336e16683d8fe9790e386876c9d0e250616580319a4ae92d33",
        (8.15956326107223e-05, 0.9839487803280105, 0.020118577643411736, -0.002698259729307832, 0.5058619732260008, -0.6652947728851514, -0.0036029548457659883, 0.3743469327139587, -0.8883603753165131),
    ),
    "mustats --range 1:100000 --parity odd": (
        "fb3834288f3c0337969fc279df70b9c1a1885192ff21e4291a2694ec735864b6",
        (-0.0003967775202630723, 0.9363354423125348, -0.0798765478632708),
    ),
    "mustats --range 1:20000 --synthetic": (
        "2b72463ea9f250505b12278e5bdcbb5f6b116455cca7afc86555f47a30f7ae83",
        (-0.0009212247270011768, 0.8963468069871154, -0.13027759322988056),
    ),
    "mustats --range 1:20000 --synthetic --bias 0.55 --seed 7 --lag 2": (
        "512e49399c8f106fcf46e33b485e6f86a38151f37104045b8ff2dc80201a8086",
        (0.00855507352470441, 0.22634035032843894, 1.2098398534429893, 0.005169402606039741, 0.4647512695954773, 0.7310456506561721),
    ),
    "cointoss --steps 10000 --trials 1000": (
        "867d14d4ed0fdfe1b45ebbdf964f98b0f44ad9556faf979aca8668bf38abe880",
        (),
    ),
    "cointoss --steps 1000 --trials 3000 --seed 5 --c 1.5 --epsilon 0.2": (
        "0c476d53f71bce24696ef8b1ca771985e095b0c3b8fca7f004ac5a5ae9b71fe4",
        (),
    ),
    "verify-identity --max 3000": (
        "e649975a96d92603c8d4290ec1e9f43550684475de4d7d7cde3abf8777e29e45",
        (),
    ),
    "verify-identity --max 3001 --odd-only": (
        "a7edbf40d2ea564dc80785d3fbe3b2cf9e3577b303c1120fcfb4763a83aad4ae",
        (),
    ),
}


def split_volatile(text: str) -> tuple[str, list[float]]:
    """Replace each BLAS-derived number by '~'; return the text and the numbers."""
    values = []

    def take(match):
        values.append(float(match.group(2)))
        return match.group(1) + "~"

    def take_lag_fields(entry):
        return re.sub(rf'("(?:statistic|p_value|z_score)": )({NUMBER})', take, entry.group(0))

    text = re.sub(rf'((?:alpha|residual)"?[=:] ?)({NUMBER})', take, text)
    text = re.sub(r'"test": "lag_autocorrelation",[^}]*', take_lag_fields, text)
    return text, values


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden_cache")


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_matches_golden(command, cache_dir, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
    assert main(command.split()) == 0
    text, values = split_volatile(capsys.readouterr().out)
    want_digest, want_values = GOLDEN[command]
    assert digest(text) == want_digest
    assert len(values) == len(want_values)
    for got, want in zip(values, want_values):
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.environ[CACHE_ENV_VAR] = tmp
        for command in GOLDEN:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(command.split())
            assert code == 0, command
            text, values = split_volatile(out.getvalue())
            print(f'    "{command}": (\n        "{digest(text)}",\n        {tuple(values)!r},\n    ),')
