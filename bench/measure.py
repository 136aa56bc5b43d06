"""One workload in one process: verifier calls for a fixed time, then the
output checks.

run.py starts this in a fresh interpreter with `src/` on PYTHONPATH.
With `--trace 0` it times untraced calls and reports wall time and peak
RSS; with `--trace 1` it alternates untraced and traced calls in the
same process and reports per-layer numbers and the tracing overhead.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

from crossnest import _kernels

import tracing
import workloads as W


def _arrays(obj) -> list:
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    return []


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def count_rows(counts, args, result):
    arrays = _arrays(result)
    if arrays:
        _add(counts, "rows", arrays[0].shape[0])


def count_arc_rows_and_bytes(counts, args, result):
    count_rows(counts, args, result)
    size = sum(a.nbytes for a in _arrays(result))
    counts["bytes_max"] = max(counts.get("bytes_max", 0), size)


def count_pairs(counts, args, result):
    arrays = _arrays(args)
    if arrays and arrays[0].ndim >= 2:
        rows, n = arrays[0].shape[:2]
        _add(counts, "pairs", rows * n * (n - 1) // 2)


def record_inputs(counts, args, result):
    counts.setdefault("inputs", set()).add(args[0])


HOOKS = {
    "enumeration.signed_values_batch": count_rows,
    "kernels.upper_arcs_batch": count_arc_rows_and_bytes,
    "kernels.pair_stats_batch": count_pairs,
    "fillings.max_chain_involution": record_inputs,
}

# enumeration functions that are not the verifiers' own aggregation work
ENUMERATION_SOURCES = {"enumeration.signed_values_batch", "enumeration.enumerate_bn"}


class Session:
    """Verifier calls on one workload and what their reports said.  The
    measuring loops exit before asking for results when no call completed."""

    def __init__(self, workload: W.Workload):
        self.workload = workload
        self.verdicts: list[W.Verdict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self) -> float | None:
        """One verifier call; its time, or None when it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            report = self.workload.call()
        except Exception:   # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            self.failed += 1
            self.problems.append("verifier raised")
            return None
        elapsed = perf_counter() - start
        verdict = W.read_report(self.workload, report)
        if verdict.problems:
            self.failed += 1
            self.problems.extend(verdict.problems)
        self.verdicts.append(verdict)
        return elapsed

    def passed_share(self) -> float:
        if self.workload.kind == "sweep":
            return sum(v.passed for v in self.verdicts) / len(self.verdicts)
        first = self.verdicts[0]
        return (first.units - len(first.failing)) / first.units if first.units else 0.0

    def check_outputs(self, seed: int) -> None:
        failing = self.verdicts[0].failing
        if any(v.failing != failing for v in self.verdicts):
            self.problems.append("failing permutations differ between calls")
        self.problems.extend(W.check_totals(self.workload))
        self.problems.extend(W.spot_check(self.workload.rank, seed))
        self.problems.extend(W.recheck_verdicts(self.workload, failing, seed))


def until(deadline: float, step) -> None:
    """Run step() until the deadline, at least once."""
    step()
    while perf_counter() < deadline:
        step()


def call_times(times: list[float]) -> dict:
    """The per-call distribution behind a best-of-k figure."""
    if not times:
        raise SystemExit("no verifier call completed; nothing was measured")
    return {"n": len(times), "min": min(times), "median": statistics.median(times),
            "max": max(times)}


def measure_untraced(session: Session, seconds: float) -> dict:
    session.call()   # warm-up: lazy set-up and allocator growth, untimed
    times = []

    def step():
        elapsed = session.call()
        if elapsed is not None:
            times.append(elapsed)

    until(perf_counter() + seconds, step)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    distribution = call_times(times)
    return {
        # best of k: load from other tenants of the host only adds time
        "wall_s": distribution["min"],
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "call_times_s": distribution,
    }


def measure_traced(session: Session, seconds: float) -> tuple[dict, tracing.Tracer]:
    tracer = tracing.Tracer(HOOKS)
    session.call()
    untraced, traced = [], []

    def step():
        elapsed = session.call()
        if elapsed is not None:
            untraced.append(elapsed)
        with tracer:
            elapsed = session.call()
        if elapsed is not None:
            traced.append(elapsed)

    until(perf_counter() + seconds, step)
    distribution = {"untraced": call_times(untraced), "traced": call_times(traced)}
    calls = len(traced)
    values: dict[str, float] = {}
    layers: dict[str, float] = {}
    aggregate = 0.0
    for key, stat in tracer.stats.items():
        self_s = stat.self_time / calls
        values[f"{key}.calls"] = stat.calls / calls
        values[f"{key}.self_s"] = self_s
        values[f"{key}.total_s"] = stat.total / calls
        for name in ("rows", "pairs"):
            if name in stat.counts:
                values[f"{key}.{name}"] = stat.counts[name] / calls
        layer = key.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
        if layer == "enumeration" and key not in ENUMERATION_SOURCES:
            aggregate += self_s
    for layer, self_s in layers.items():
        values[f"{layer}.self_s"] = self_s
    values["enumeration.aggregate.self_s"] = aggregate
    arcs = tracer.stats.get("kernels.upper_arcs_batch")
    values["kernels.arcs_bytes"] = arcs.counts.get("bytes_max", 0) if arcs else 0
    chain_map = tracer.stats.get("fillings.max_chain_involution")
    inputs = chain_map.counts.get("inputs", set()) if chain_map else set()
    useful = sum(not W.map_fails(p, "chain") for p in inputs)
    values["fillings.max_chain_involution.useful_ratio"] = useful / len(inputs) if inputs else 0.0
    values["trace.wall_s"] = min(traced)
    values["trace.overhead_s"] = min(traced) - min(untraced)
    # self times are per-call means, so they add up to the mean traced call
    values["trace.accounted_share"] = sum(layers.values()) / statistics.fmean(traced)
    values["call_times_s"] = distribution
    return values, tracer


def print_spans(tracer: tracing.Tracer, calls: int) -> None:
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)
    print(f"{'span':45} {'calls':>10} {'total_s':>10} {'self_s':>10}   (per verifier call)",
          file=sys.stderr)
    for key, stat in rows:
        if stat.calls:
            print(f"{key:45} {stat.calls / calls:10.0f} {stat.total / calls:10.4f} "
                  f"{stat.self_time / calls:10.4f}", file=sys.stderr)


def machine_facts() -> dict:
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    backend = getattr(_kernels, "backend", None)
    return {
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        "kernels_backend": backend() if backend else "numpy",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    session = Session(W.WORKLOADS[args.workload])
    if args.trace:
        values, tracer = measure_traced(session, args.seconds)
        print_spans(tracer, values["call_times_s"]["traced"]["n"])
    else:
        values = measure_untraced(session, args.seconds)
    values["passed_share"] = session.passed_share()
    session.check_outputs(args.seed)
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "values": values,
        "facts": machine_facts(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
