"""Tests of the benchmark's own output checks and child runner.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import ROUNDTRIP_N, SCAN_MAX, expected_constant  # noqa: E402


def job_of(workload: str, cmd: str, family: str | None = None) -> workloads.Job:
    """The first job of a pass that runs `cmd` (for `family`)."""
    return next(
        job for job in workloads.make_pass(workload, random.Random(0))
        if job.cmd == cmd and (family is None or family in job.argv)
    )


def scan_output(family: str, flip: int | None = None) -> str:
    """Text in the CLI's scan format, with the constant at n = flip wrong."""
    lines = []
    n_min = 3 if family == "fib" else 1
    for n in range(n_min, SCAN_MAX + 1):
        if family == "lucas" and n == 1:
            lines.append("n=1   constant=1      boundary (not scored)")
            continue
        c = expected_constant(family, n)
        shown = c + 1 if n == flip else c
        lines.append(f"n={n:<3d} constant={str(shown):<6s} expected={str(c):<3s} ok")
    lines.append(f"conjecture ({family}, n={max(n_min, 2)}..{SCAN_MAX}): PASS")
    return "\n".join(lines) + "\n"


def identity_output(constant: Fraction) -> str:
    return json.dumps({"is_constant": True, "constant_value": str(constant)})


INTERTWINE_OK = {
    "kind": "AL", "n_max": 48, "ok": True, "first_mismatch": None,
    "lhs": None, "rhs": None, "routes_agree": True,
}


@pytest.fixture(scope="module")
def cayley_fib_output() -> str:
    from fiblucas.dixmier import cayley_closed

    return json.dumps(cayley_closed("fibonacci", ROUNDTRIP_N).to_json())


def test_clean_outputs_pass(cayley_fib_output):
    assert workloads.check(job_of("scan", "scan", "fib"), 0, scan_output("fib")) is None
    assert workloads.check(job_of("scan", "scan", "lucas"), 0, scan_output("lucas")) is None
    job = job_of("intertwine", "intertwine", "AL")
    assert workloads.check(job, 0, json.dumps(INTERTWINE_OK)) is None
    assert workloads.check(job_of("roundtrip", "cayley", "fib"), 0, cayley_fib_output) is None
    assert workloads.check(job_of("roundtrip", "kernel-check"), 0, '{"in_kernel": true}') is None
    job = job_of("roundtrip", "identity")
    assert workloads.check(job, 0, identity_output(job.constant)) is None


def test_flipped_scan_constant_fails():
    error = workloads.check(job_of("scan", "scan", "lucas"), 0, scan_output("lucas", flip=17))
    assert error is not None and "n=17" in error


def test_identity_constant_off_by_one_over_q_fails():
    jobs = workloads.make_pass("roundtrip", random.Random(3))
    for job in jobs:
        if job.cmd == "identity":
            # the cayley job of the same chain carries (q, r, input name)
            q = next(j.writes[0] for j in jobs if j.writes and j.writes[2] == job.input_name)
            assert workloads.check(job, 0, identity_output(job.constant)) is None
            assert workloads.check(job, 0, identity_output(job.constant + 1 / q)) is not None


def test_exit_code_one_fails():
    assert workloads.check(job_of("scan", "scan", "fib"), 1, scan_output("fib")) == "exit code 1"


def test_wrong_values_fail(cayley_fib_output):
    job = job_of("intertwine", "intertwine", "AL")
    assert workloads.check(job, 0, json.dumps({**INTERTWINE_OK, "routes_agree": False}))
    assert workloads.check(job, 0, "Traceback (most recent call last):")
    assert workloads.check(job_of("roundtrip", "kernel-check"), 0, '{"in_kernel": false}')
    doc = json.loads(cayley_fib_output)
    doc["terms"][0]["coeff"] = str(Fraction(doc["terms"][0]["coeff"]) + 1)
    error = workloads.check(job_of("roundtrip", "cayley", "fib"), 0, json.dumps(doc))
    assert error is not None and "seed commit" in error


def test_crashed_child_fails(tmp_path):
    res = run.run_child([sys.executable, "-c", "import os; os.abort()"], tmp_path, {})
    assert res["returncode"] < 0 and not res["timed_out"]
    error = workloads.check(job_of("scan", "scan", "fib"), res["returncode"], res["stdout"])
    assert error is not None and error.startswith("crashed")


def test_timed_out_child_fails(tmp_path):
    res = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, {}, timeout=0.3
    )
    assert res["timed_out"] and res["wall_s"] < 10
    job = job_of("scan", "scan", "fib")
    assert workloads.check(job, res["returncode"], res["stdout"], res["timed_out"]) == "timed out"


def test_seed_fixes_order_not_work():
    def labels(workload, seed):
        return [j.label for j in workloads.make_pass(workload, random.Random(seed))]

    for workload in workloads.WORKLOADS:
        assert labels(workload, 5) == labels(workload, 5)
        assert sorted(labels(workload, 5)) == sorted(labels(workload, 6))


def test_roundtrip_input_is_q_c_plus_r():
    doc = {"vars": ["x0", "x1"], "terms": [{"coeff": "1/2", "exps": {"x0": 1, "x1": 1}}]}
    out = workloads.roundtrip_input(doc, Fraction(-3, 7), Fraction(5, 11))
    assert out["terms"] == [
        {"coeff": "-3/14", "exps": {"x0": 1, "x1": 1}},
        {"coeff": "5/11", "exps": {}},
    ]
