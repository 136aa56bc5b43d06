#!/usr/bin/env python3
"""crossnest benchmark: exhaustive verifier workloads, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload pair-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 0

`--trace 0` measures in fresh child processes with tracing off and
reports the `end_to_end` metrics of BENCHMARK.json; `--trace 1` makes a
traced in-process run and reports the `per_layer` metrics.  Every run
checks the verifiers' output.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the machine facts the numbers depend on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 12   # half before the measuring child, half after
TIME_LIMIT_S = 170   # the whole run, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
IMPORT_TIMER = ("import time; start = time.perf_counter(); import crossnest; "
                "print(time.perf_counter() - start)")


class BenchError(Exception):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run one child to completion and return its stdout."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv[:2]} ran past the time limit") from None
    if done.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited with {done.returncode}")
    return done.stdout


def import_times(deadline: float, count: int) -> list[float]:
    """Times to import crossnest, each in a fresh interpreter."""
    return [float(run_child(["-c", IMPORT_TIMER], deadline).split()[-1])
            for _ in range(count)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 deadline: float) -> tuple[dict, dict]:
    """(result object, machine facts) for one workload."""
    setup = []
    if not trace:
        # the first import writes the bytecode cache and is not counted
        run_child(["-c", "import crossnest"], deadline)
        setup += import_times(deadline, SETUP_SAMPLES // 2)
    out = run_child([str(BENCH / "measure.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)], deadline)
    child = json.loads(out.strip().splitlines()[-1])
    values = child["values"]
    if trace:
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        # import time drifts with the host's load; sampling on both sides
        # of the measurement spreads the samples over the run
        setup += import_times(deadline, SETUP_SAMPLES - len(setup))
        values["setup_s"] = statistics.median(setup)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"no measurement for {missing}")
    # a per-layer function that a workload never calls, or that a later
    # version no longer has, did no work
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    facts = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        **child["facts"],
        "thread_vars": nproc(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "call_times_s": values["call_times_s"],
    }
    return result, facts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "crossnest" / "__init__.py").is_file():
        print(f"no crossnest package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = perf_counter() + TIME_LIMIT_S   # per workload
            result, facts = run_workload(name, args.seed, args.seconds, args.trace,
                                         spec, deadline)
            results[name] = result
            print(json.dumps({"machine": facts}))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    columns = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name, result in results.items():
        print(f"{name:18} correct={result['correct']!s:5} " + " ".join(
            f"{c}={result['metrics'][c]['value']:.6g}" for c in columns))
    print(json.dumps(results))
    return 0

if __name__ == "__main__":
    sys.exit(main())
