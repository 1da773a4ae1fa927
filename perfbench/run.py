"""Benchmark of the `fiblucas` CLI, end to end and module by module.

    python3 perfbench/run.py --workload {scan,intertwine,roundtrip} \
        --seed N --seconds S --trace {0,1}

Closed loop, one client: each job is a fresh `python -m fiblucas`
child started only after the previous one has exited.  Passes over the
workload's job list repeat while a pass of average length still ends
within S seconds.  Every output is checked exactly (see workloads.py);
a job that fails any check counts in `failed`.  The last stdout line is the JSON result;
the line before it holds the run's metadata.

The host's speed drifts by tens of percent over minutes, so the pass
time is reported as a multiple of a fixed reference loop timed in the
same run (`pass_ref`); the raw seconds stay in the metadata.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced passes with passes whose jobs run under launcher.py, and
reports the per-layer metrics from the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from workloads import Job

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launcher.py"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units

SETUP_SPAWNS = 5  # at the start and after every pass
REFERENCE_REPEATS = 2  # at the start and after every pass
JOB_TIMEOUT_S = 60.0
LAYERS = ("cli", "identity", "dixmier", "intertwine", "derivops", "families", "polyring", "exactnum")
COMMANDS = ("scan", "intertwine", "cayley", "kernel-check", "identity")


def child_env(tmp: Path) -> dict[str, str]:
    """The pinned environment of every child interpreter."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        # bytecode goes to the run's own directory, never under src/
        PYTHONPYCACHEPREFIX=str(tmp / "pycache"),
    )
    return env


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float = JOB_TIMEOUT_S) -> dict:
    """Run one child to completion; wall time, exit status, stdout and
    the child's own peak RSS, read with wait4."""
    out_path = cwd / "stdout.txt"
    with open(out_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "timed_out": not ready,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "maxrss_kib": usage.ru_maxrss,
    }


def run_pass(jobs: list[Job], tmp: Path, env: dict, trace_dir: Path | None) -> list[dict]:
    """Run one pass's jobs in order; one record per job."""
    for stale in tmp.glob("roundtrip-*.json"):
        stale.unlink()
    records = []
    for i, job in enumerate(jobs):
        if job.input_name and not (tmp / job.input_name).exists():
            records.append({"job": job, "error": "input not written: its cayley job failed"})
            continue
        if trace_dir is None:
            argv = [sys.executable, "-m", "fiblucas", *job.argv]
            spans = None
        else:
            spans = trace_dir / f"spans-{i}.json"
            argv = [sys.executable, str(LAUNCHER), str(spans), "--", *job.argv]
        res = run_child(argv, tmp, env)
        error = workloads.check(job, res["returncode"], res["stdout"], res["timed_out"])
        if error is None and job.writes is not None:
            q, r, name = job.writes
            doc = workloads.roundtrip_input(json.loads(res["stdout"]), q, r)
            (tmp / name).write_text(json.dumps(doc), encoding="utf-8")
        rec = {"job": job, "error": error, "wall_s": res["wall_s"], "maxrss_kib": res["maxrss_kib"]}
        if spans is not None and error is None:
            rec["trace"] = json.loads(spans.read_text())
        records.append(rec)
    return records


# ---- per-layer aggregation ---------------------------------------------


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer figures for one traced pass, from its jobs' span files."""
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    memos: dict[str, list[int]] = {}
    for tr in traces:
        for name, _parent, n, tot, own in tr["spans"]:
            calls[name] = calls.get(name, 0) + n
            total[name] = total.get(name, 0.0) + tot
            self_s[name] = self_s.get(name, 0.0) + own
        for key, value in tr["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, (hits, misses, _maxsize, currsize) in tr["memos"].items():
            acc = memos.setdefault(key, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] += currsize

    def hit_ratio(memo: str) -> float:
        hits, misses, _ = memos.get(memo, (0, 0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    out = {
        "polyring.mul_calls": calls.get("polyring.mul", 0),
        "polyring.mul_term_pairs": counters.get("polyring.mul_term_pairs", 0),
        "polyring.mul_self_s": self_s.get("polyring.mul", 0.0),
        "polyring.add_calls": calls.get("polyring.add", 0),
        "polyring.add_self_s": self_s.get("polyring.add", 0.0),
        "polyring.substitute_self_s": self_s.get("polyring.substitute", 0.0),
        "polyring.json_s": total.get("polyring.to_json", 0.0) + total.get("polyring.from_json", 0.0),
        "families.family_poly_s": total.get("families.family_poly", 0.0),
        "families.memo_hit_ratio": hit_ratio("families.family_poly"),
        "identity.phi_subst_s": total.get("identity.phi_subst", 0.0),
        "dixmier.closed_s": total.get("dixmier.cayley_closed", 0.0),
        "dixmier.constructive_s": total.get("dixmier.cayley_constructive", 0.0),
        "derivops.call_count": calls.get("derivops.call", 0),
        "derivops.terms_in": counters.get("derivops.terms_in", 0),
        "derivops.call_self_s": self_s.get("derivops.call", 0.0),
        "derivops.image_memo_hit_ratio": hit_ratio("derivops.builtin_image"),
        "intertwine.alpha_calls": calls.get("intertwine.alpha", 0),
        "intertwine.alpha_self_s": self_s.get("intertwine.alpha", 0.0),
        "intertwine.psi_s": total.get("intertwine.psi", 0.0),
        "intertwine.check_s": total.get("intertwine.check_intertwining", 0.0),
        "intertwine.recurrence_memo_hit_ratio": hit_ratio("intertwine.recurrence_rows"),
        "intertwine.memo_entries": sum(
            memos.get(m, (0, 0, 0))[2]
            for m in ("intertwine.recurrence_rows", "intertwine.beta_rows", "intertwine.b_coeffs")
        ),
        "exactnum.falling_factorial_calls": calls.get("exactnum.falling_factorial", 0),
        "exactnum.reciprocal_s": total.get("exactnum.reciprocal", 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    return out


# ---- the run -----------------------------------------------------------


def git_commit() -> str:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def setup_spawn(tmp: Path, env: dict) -> float:
    """Time for a fresh interpreter to import the CLI and exit."""
    res = run_child([sys.executable, "-c", "import fiblucas.cli"], tmp, env)
    if res["returncode"] != 0:
        raise RuntimeError("importing fiblucas.cli failed")
    return res["wall_s"]


# A fixed loop of `Fraction` and dict work, the kind of work the CLI
# does.  It never touches the package, so its time depends only on the
# speed the host gives the run.
REFERENCE_LOOP = """
from fractions import Fraction
acc = {}
for i in range(1, 30000):
    key = ((i * 7919) % 251, (i * 104729) % 13)
    acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, i % 7 + 1)
"""


def reference_s(tmp: Path, env: dict) -> float:
    """Wall time of the reference loop in a fresh interpreter, started
    like a job, so that it meets the host the way the jobs do."""
    res = run_child([sys.executable, "-c", REFERENCE_LOOP], tmp, env)
    if res["returncode"] != 0:
        raise RuntimeError("the reference loop failed")
    return res["wall_s"]


def bench(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[dict, dict]:
    env = child_env(tmp)
    setup_spawn(tmp, env)  # writes the bytecode cache; not counted
    # Set-up and the reference loop are sampled between passes too, so
    # that their medians cover the same stretch of host time as the passes.
    setup_times = [setup_spawn(tmp, env) for _ in range(SETUP_SPAWNS)]
    reference_times = [reference_s(tmp, env) for _ in range(REFERENCE_REPEATS)]
    rng = random.Random(seed)
    trace_dir = tmp / "spans"
    trace_dir.mkdir()

    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    started = perf_counter()
    while True:
        # Start a pass only if a pass of average length still ends within
        # the measured time, but always run one of each kind.
        done = len(plain) + len(traced)
        elapsed = perf_counter() - started
        if plain and (traced or not trace) and elapsed * (done + 1) / done > seconds:
            break
        use_trace = trace and len(plain) > len(traced)
        records = run_pass(workloads.make_pass(workload, rng), tmp, env, trace_dir if use_trace else None)
        for rec in records:
            if rec["error"] is not None:
                print(f"FAILED {rec['job'].label}: {rec['error']}", file=sys.stderr)
        (traced if use_trace else plain).append(records)
        setup_times += [setup_spawn(tmp, env) for _ in range(SETUP_SPAWNS)]
        reference_times += [reference_s(tmp, env) for _ in range(REFERENCE_REPEATS)]

    every = [rec for records in plain + traced for rec in records]
    failures = [rec for rec in every if rec["error"] is not None]

    def pass_s(records: list[dict]) -> float:
        return sum(rec.get("wall_s", 0.0) for rec in records)

    plain_pass_s = statistics.median(pass_s(r) for r in plain)
    reference = statistics.median(reference_times)
    timed = [rec for records in plain for rec in records if "wall_s" in rec]
    if trace:
        per_pass = [
            layer_metrics([rec["trace"] for rec in records if "trace" in rec]) for records in traced
        ]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        for cmd in COMMANDS:
            walls = [rec["wall_s"] for rec in timed if rec["job"].cmd == cmd]
            values[f"job_s.{cmd}"] = statistics.median(walls) if walls else 0.0
        values["pass_s"] = plain_pass_s
        values["reference_s"] = reference
        values["trace.overhead_frac"] = (
            statistics.median(pass_s(r) for r in traced) / plain_pass_s - 1.0
        )
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_ref": plain_pass_s / reference,
            "peak_rss_mib": max(rec["maxrss_kib"] for rec in timed) / 1024,
        }
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {
        "correct": not failures,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": metrics,
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {
            "scan_max": workloads.SCAN_MAX,
            "intertwine_max": workloads.INTERTWINE_MAX,
            "roundtrip_n": workloads.ROUNDTRIP_N,
        },
        "pass_s": {
            "plain": [round(pass_s(r), 3) for r in plain],
            "traced": [round(pass_s(r), 3) for r in traced],
        },
        "reference_s": reference,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "failures": [f"{rec['job'].label}: {rec['error']}" for rec in failures[:5]],
    }
    return meta, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fiblucas" / "cli.py").is_file():
        print(f"error: no fiblucas sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        meta, result = bench(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
