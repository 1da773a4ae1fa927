"""Workload job lists, seeded inputs and exact output checks.

A job is one `fiblucas` CLI invocation.  Its sizes are fixed per
workload; the seed only fixes the job order within a pass and the
rational scale q and offset r of the `roundtrip` inputs, so every seed
does the same amount of work.  Every check is exact: constants are
compared as `Fraction`s, and the deterministic outputs (`scan`,
`intertwine`, `cayley`) are compared against digests recorded at the
seed commit in `golden.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SCAN_MAX = 60
INTERTWINE_MAX = 48
ROUNDTRIP_N = 120

WORKLOADS = ("scan", "intertwine", "roundtrip")

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# Two-digit primes, so q and r always have numerators and denominators
# of the same size whatever the seed: the seed changes values, not work.
_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@dataclass
class Job:
    """One CLI invocation and what its output must be."""

    argv: list[str]
    # key into golden.json, for jobs whose output is fully deterministic
    golden: str | None = None
    # identity jobs: the constant q*c_n + r the output must report
    constant: Fraction | None = None
    # roundtrip: the input file this job reads, written from the output
    # of the cayley job that comes earlier in the same pass
    input_name: str | None = None
    # roundtrip cayley jobs: (q, r, file name) of the input to write
    writes: tuple[Fraction, Fraction, str] | None = None

    @property
    def cmd(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def expected_constant(family: str, n: int) -> Fraction:
    """The Cayley constant the paper predicts: C_n collapses to 1 (odd n)
    or 0 (even n) under the Fibonacci substitution and to 2 (even n) or
    0 (odd n) under the Lucas one."""
    if family == "fib":
        return Fraction(1 if n % 2 else 0)
    return Fraction(0 if n % 2 else 2)


def _seeded_rational(rng: random.Random) -> Fraction:
    num, den = rng.sample(_PRIMES, 2)
    return Fraction(rng.choice((-1, 1)) * num, den)


def make_pass(workload: str, rng: random.Random) -> list[Job]:
    """The jobs of one pass, in the seeded order.

    A `roundtrip` pass is two chains, one per family: `cayley` first,
    then `kernel-check` and `identity` on q*C_n + r.  The chains and the
    two checks within each chain are ordered by the seed.
    """
    if workload == "scan":
        jobs = [
            Job(["scan", "--family", fam, "--max", str(SCAN_MAX)], golden=f"scan-{fam}")
            for fam in ("fib", "lucas")
        ]
        rng.shuffle(jobs)
        return jobs
    if workload == "intertwine":
        jobs = [
            Job(
                ["intertwine", "--kind", kind, "--max", str(INTERTWINE_MAX), "--route", "all"],
                golden=f"intertwine-{kind}",
            )
            for kind in ("AL", "AF")
        ]
        rng.shuffle(jobs)
        return jobs
    if workload == "roundtrip":
        families = ["fib", "lucas"]
        rng.shuffle(families)
        jobs: list[Job] = []
        for fam in families:
            q, r = _seeded_rational(rng), _seeded_rational(rng)
            name = f"roundtrip-{fam}.json"
            checks = [
                Job(["kernel-check", "--family", fam, "--input", name], input_name=name),
                Job(
                    ["identity", "--family", fam, "--input", name],
                    input_name=name,
                    constant=q * expected_constant(fam, ROUNDTRIP_N) + r,
                ),
            ]
            rng.shuffle(checks)
            cayley = Job(
                ["cayley", "--family", fam, "--n", str(ROUNDTRIP_N), "--route", "both"],
                golden=f"cayley-{fam}",
                writes=(q, r, name),
            )
            jobs += [cayley, *checks]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---- output parsing and digests ----------------------------------------


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def parse_scan(stdout: str) -> tuple[list[tuple[int, str]], str]:
    """(rows as (n, constant), final verdict) from `scan` output."""
    rows = []
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        rows.append((int(fields["n"]), fields["constant"]))
    verdict = lines[-1].rsplit(":", 1)[1].strip()
    return rows, verdict


def canonical_terms(doc: dict) -> list:
    """A polynomial JSON document's terms as sorted (exps, coeff) pairs,
    independent of term order and of how each coefficient is spelled."""
    return sorted(
        [json.dumps(t.get("exps", {}), sort_keys=True), str(Fraction(t["coeff"]))]
        for t in doc["terms"]
    )


def digest(job: Job, stdout: str) -> str:
    """Digest of the values in a deterministic job's output, not of its
    bytes, so whitespace or term order never count as a change."""
    if job.cmd == "scan":
        return _sha(parse_scan(stdout))
    if job.cmd == "intertwine":
        return _sha(json.loads(stdout))
    if job.cmd == "cayley":
        return _sha(canonical_terms(json.loads(stdout)))
    raise ValueError(f"no digest for {job.cmd}")


def roundtrip_input(cayley_doc: dict, q: Fraction, r: Fraction) -> dict:
    """The polynomial JSON document of q*C_n + r."""
    terms = [
        {"coeff": str(q * Fraction(t["coeff"])), "exps": t["exps"]}
        for t in cayley_doc["terms"]
    ]
    terms.append({"coeff": str(r), "exps": {}})
    return {"vars": cayley_doc["vars"], "terms": terms}


def check(job: Job, returncode: int, stdout: str, timed_out: bool = False) -> str | None:
    """None when the job's output is exactly right, else why it is not.

    `returncode` is negative when a signal killed the child.
    """
    if timed_out:
        return "timed out"
    if returncode < 0:
        return f"crashed (signal {-returncode})"
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return _check_output(job, stdout)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def _check_output(job: Job, stdout: str) -> str | None:
    if job.cmd == "scan":
        family = job.argv[job.argv.index("--family") + 1]
        rows, verdict = parse_scan(stdout)
        n_min = 3 if family == "fib" else 2
        scored = [(n, c) for n, c in rows if n >= n_min]
        if [n for n, _ in scored] != list(range(n_min, SCAN_MAX + 1)):
            return "scan rows missing"
        for n, c in scored:
            if Fraction(c) != expected_constant(family, n):
                return f"scan constant at n={n} is {c}"
        if verdict != "PASS":
            return f"scan verdict {verdict}"
    elif job.cmd == "intertwine":
        doc = json.loads(stdout)
        if doc["ok"] is not True or doc["routes_agree"] is not True:
            return "intertwine reported ok or routes_agree false"
    elif job.cmd == "kernel-check":
        if json.loads(stdout)["in_kernel"] is not True:
            return "in_kernel false"
    elif job.cmd == "identity":
        doc = json.loads(stdout)
        if doc["is_constant"] is not True:
            return "identity not constant"
        if Fraction(doc["constant_value"]) != job.constant:
            return f"identity constant {doc['constant_value']} != {job.constant}"
    if job.golden is not None and digest(job, stdout) != GOLDEN[job.golden]:
        return f"{job.cmd} output differs from the seed commit's"
    return None
