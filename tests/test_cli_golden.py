"""Byte-level golden outputs of the CLI.

Each case runs `python -m fiblucas` as a subprocess and compares the
sha256 of its exit code and stdout bytes with a recorded literal, so
any change to what a command prints, down to one byte, fails here.
The cases cover every subcommand at small sizes, `identity` at the top
of the generator index range, `scan` at the top of the Cayley range,
and every example of the README's "Command line" section.  Inputs are
written as literal JSON text, independent of the code under test.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

INPUTS = {
    # 3/2 x0 x5^2 - x1 x2^3 + 7: in no kernel
    "p.json": '{"vars": ["x0", "x1", "x2", "x5"], "terms": ['
              '{"coeff": "3/2", "exps": {"x0": 1, "x5": 2}}, '
              '{"coeff": "-1", "exps": {"x1": 1, "x2": 3}}, '
              '{"coeff": "7", "exps": {}}]}',
    # the Fibonacci Cayley element C_3 = x1 x3 - x2^2
    "c3.json": '{"vars": ["x1", "x2", "x3"], "terms": ['
               '{"coeff": "1", "exps": {"x1": 1, "x3": 1}}, '
               '{"coeff": "-1", "exps": {"x2": 2}}]}',
    # the Lucas Cayley element C_2 = x0 x2 - x1^2, over 5
    "l2.json": '{"terms": [{"coeff": "1/5", "exps": {"x0": 1, "x2": 1}}, '
               '{"coeff": "-1/5", "exps": {"x1": 2}}]}',
    # single generators at the top of the index range
    "x1000.json": '{"terms": [{"coeff": "1", "exps": {"x1000": 1}}]}',
    "x999.json": '{"terms": [{"coeff": "1", "exps": {"x999": 1}}]}',
    # 1/3 x2 x400 - x499^2 + 7: high indices, a rational coefficient
    "mixed.json": '{"terms": [{"coeff": "1/3", "exps": {"x400": 1, "x2": 1}}, '
                  '{"coeff": "-1", "exps": {"x499": 2}}, {"coeff": "7", "exps": {}}]}',
}

# name -> (argv, stdin file or None, sha256 of b"<exit code>\n" + stdout)
CASES = {
    # the README "Command line" examples, in order
    "readme-cayley-both": (
        ["cayley", "--family", "fib", "--n", "5", "--route", "both"], None,
        "1bb7db5dea0ecbc261f2761c563d583bac94894a2cd2c9d4fe34c6c45bd72d58",
    ),
    "readme-derive-power": (
        ["derive", "--family", "fib", "--input", "p.json", "--power", "2"], None,
        "6205889bbcd6bb67e69d4091f8dc472bf794d046c408321601c1fd817289b601",
    ),
    "readme-kernel-check": (
        ["kernel-check", "--family", "lucas", "--input", "p.json"], None,
        "eafb491db11bce4644b50fd9a3a08ebc8412265c8075c2b00f6f2f19ecc190e3",
    ),
    "readme-identity-latex": (
        ["identity", "--family", "fib", "--input", "c3.json", "--format", "latex"], None,
        "81d34fcbd9e6c0138ddcd455a3d87b09cce50b0e41d22e542837e589e125f890",
    ),
    "readme-scan": (
        ["scan", "--family", "lucas", "--max", "20"], None,
        "f66a5707e09b053332cc5c107779070e94e5b67765ef06802f8f214e6975322e",
    ),
    "readme-intertwine": (
        ["intertwine", "--kind", "AF", "--max", "12", "--route", "all"], None,
        "394f7be156ebc7c4cf8e6de4e5b9803206d67090f5bb4fcbd18e80fa6c678d70",
    ),
    "readme-demo": (
        ["demo", "discriminant"], None,
        "b964401cff18d50dcfd237048f7727d5e0ebfcd229376f881e8b84210a1eaeee",
    ),
    # every subcommand at small sizes
    "cayley-lucas-closed": (
        ["cayley", "--family", "lucas", "--n", "6"], None,
        "f31bcbbb7f2bb0312cd06d030fdb0b8778dd2c68895fbdeefa6bda78cfbbd7ce",
    ),
    "cayley-fib-constructive": (
        ["cayley", "--family", "fib", "--n", "7", "--route", "constructive"], None,
        "4037c63b965f58dfe00b4f1b1b01ab766a83ddae96c20f00cf0dc52894d4f7ae",
    ),
    "derive-lucas": (
        ["derive", "--family", "lucas", "--input", "p.json"], None,
        "e62cc3e30475973d5078de5153873c688f5cf3c3372d3bba979a69fbd96ff028",
    ),
    "derive-appell-power-0": (
        ["derive", "--family", "appell", "--input", "p.json", "--power", "0"], None,
        "0233e9dd0d083574a01cc5b6ac917fa3d07fc4e930ecbeb865cc25202c088a75",
    ),
    "derive-stdin": (
        ["derive", "--family", "appell", "--input", "-", "--power", "3"], "p.json",
        "bddbd397307a6a6bbbdb83df413839bac7b4dcfa44635f4e8f3d2d826202e643",
    ),
    "kernel-check-member": (
        ["kernel-check", "--family", "fib", "--input", "c3.json"], None,
        "9f6395ad5d7df29ad22730be6eefc3c3e31aa5d0ec1ef43e59d34f00ab3fa48f",
    ),
    "identity-json": (
        ["identity", "--family", "fib", "--input", "c3.json"], None,
        "2251c9bf49cb6c5b4c9d8459635184bb7f540e999a3180d5c923450de6c8aff5",
    ),
    "identity-lucas-latex": (
        ["identity", "--family", "lucas", "--input", "l2.json", "--format", "latex"], None,
        "eed5e46da838cc2f78c30f840f378ca5dda8c1586f53a4af049fbed267ee8159",
    ),
    "identity-non-constant": (
        ["identity", "--family", "lucas", "--input", "p.json"], None,
        "cd2dc2b4d582f49141ceba2e29da7c2a9aa2f9ef24dcbdfcc73074fa618076d9",
    ),
    "identity-fib-x1000": (
        ["identity", "--family", "fib", "--input", "x1000.json"], None,
        "fd440d698048216d2d2e779613ac3e55d6f7efa8268b578f2f5ac5aef1a2f049",
    ),
    "identity-lucas-x999": (
        ["identity", "--family", "lucas", "--input", "x999.json"], None,
        "64ae77c6caa41ea34a2a447af6c16ace2926e94609d07d4ace8c3fa4eac1f5e5",
    ),
    "identity-fib-mixed": (
        ["identity", "--family", "fib", "--input", "mixed.json"], None,
        "8daf48396d04015549865049c0377835dd5f1b4b68edfa5374e8f4b6a689cf67",
    ),
    "identity-lucas-mixed": (
        ["identity", "--family", "lucas", "--input", "mixed.json"], None,
        "8835b100873d9a9e214febb1d89c4db7ec8662d2288c72768c48f16330f299cd",
    ),
    "identity-lucas-mixed-latex": (
        ["identity", "--family", "lucas", "--input", "mixed.json", "--format", "latex"], None,
        "62763e710d1836c038414a6c932ca1fc41e8fa4c82eb1045617cfbe670a79ff4",
    ),
    "scan-fib": (
        ["scan", "--family", "fib", "--max", "12"], None,
        "7fa1eb3b83bb3f9c8a35288718e94ff77497a72384586d5d49d1ee80c92dcf4d",
    ),
    # scan at the top of the Cayley range, both families
    "scan-fib-150": (
        ["scan", "--family", "fib", "--max", "150"], None,
        "6baf3d22e7be460e52ce5c14591074b925ecba220a554278e537052272bbd04d",
    ),
    "scan-lucas-150": (
        ["scan", "--family", "lucas", "--max", "150"], None,
        "3546d0070976fe616aafc08ee90012a8bbc7b4f343c480e8aa2107ddb53e299c",
    ),
    "intertwine-al-all": (
        ["intertwine", "--kind", "AL", "--max", "9", "--route", "all"], None,
        "1d270213a00944665aebef522553b77f8a409e229bc30db75db274eb09d442c0",
    ),
    "intertwine-al-recurrence": (
        ["intertwine", "--kind", "AL", "--max", "9", "--route", "recurrence"], None,
        "e20111caf19d7aaba0433d76293fc3bfa824f6e085f152455a851ada5f95bc5e",
    ),
    "intertwine-af-beta": (
        ["intertwine", "--kind", "AF", "--max", "7", "--route", "beta"], None,
        "b7ff971bc6c58000aab060896afae869a1559e75770472e073423ca41bfc1086",
    ),
    "intertwine-af-series": (
        ["intertwine", "--kind", "AF", "--max", "7", "--route", "series"], None,
        "b7ff971bc6c58000aab060896afae869a1559e75770472e073423ca41bfc1086",
    ),
    "cayley-past-limit": (
        ["cayley", "--family", "fib", "--n", "151"], None,
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    "usage-error": (
        ["scan", "--family", "appell", "--max", "5"], None,
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
}


def cli_digest(argv, stdin_name, workdir: Path, src: Path = SRC) -> str:
    """sha256 of b"<exit code>\\n" + stdout of `python -m fiblucas argv`,
    run in workdir with INPUTS written there."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    stdin = (workdir / stdin_name).read_bytes() if stdin_name else b""
    res = subprocess.run([sys.executable, "-m", "fiblucas", *argv], input=stdin, cwd=workdir,
                         env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=120)
    return hashlib.sha256(b"%d\n" % res.returncode + res.stdout).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_match_golden(name, tmp_path):
    argv, stdin_name, want = CASES[name]
    assert cli_digest(argv, stdin_name, tmp_path) == want
