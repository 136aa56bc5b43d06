"""The four verifier workloads and the checks on their output.

Every workload is exhaustive over its ranks, so the seed only picks the
rows of the oracle spot check and the permutations whose verdict is
re-derived.  The checks run outside the timed region.

Workloads call the verifiers through `crossnest.enumeration` at call
time, so a traced run goes through the tracer's wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crossnest import _kernels, enumeration, fillings, involution, statistics
from crossnest.core import SignedPermutation, degree_sequence, neg, upper_diagram, wex
from crossnest.errors import CrossNestError

SPOT_ROWS = 256      # rows per oracle spot check
RECHECK_PERMS = 128  # permutations whose involution verdict is re-derived


@dataclass(frozen=True)
class Workload:
    name: str
    rank: int
    kind: str      # "sweep" or "involution"
    claim: str     # sweeps: verifier claim name; involutions: "pair" or "chain"

    def call(self):
        if self.kind == "involution":
            return enumeration.verify_involution_properties(self.rank, self.claim)
        if self.claim == "thm24":
            return enumeration.verify_pair_symmetry(self.rank)
        return enumeration.verify_chain_symmetry(self.rank)


WORKLOADS = {w.name: w for w in (
    # the array pipeline at its largest: 645,120 rows, sets peak memory
    Workload("pair-sweep", 7, "sweep", "thm24"),
    # same enumeration and arcs on a 14x smaller batch; python chain loop
    Workload("chain-sweep", 6, "sweep", "thm27"),
    # one object at a time: pair_kind_counts, core validation, rerouting
    Workload("pair-involution", 5, "involution", "pair"),
    # the fillings layer: the pattern-unwinding chain map
    Workload("theta-involution", 4, "involution", "chain"),
)}

SWEEP_SCHEMA = {
    "thm24": ("nes", "cro", "wex", "neg"),
    "thm27": ("cro_star", "nes_star", "neg"),
}


def perms_up_to(rank: int) -> int:
    return sum(enumeration.bn_size(n) for n in range(1, rank + 1))


@dataclass(frozen=True)
class Verdict:
    """What one verifier call reported, reduced to what the checks need."""

    passed: bool
    units: int              # permutations checked, or 1 for a sweep
    failing: frozenset      # permutations (as text) with a counterexample
    problems: tuple


def read_report(w: Workload, report) -> Verdict:
    """Check one report; a wrong verdict on a correct claim is a problem."""
    problems = []
    if w.kind == "sweep":
        if report.claim != w.claim:
            problems.append(f"report claims {report.claim!r}, expected {w.claim!r}")
        if not report.passed:
            problems.append(f"{w.claim} failed at rank {w.rank}: "
                            f"{len(report.counterexamples)} counterexamples")
        return Verdict(report.passed, 1, frozenset(), tuple(problems))
    checked = report.info.get("permutations_checked")
    if checked != perms_up_to(w.rank):
        problems.append(f"{checked} permutations checked, expected {perms_up_to(w.rank)}")
    failing = frozenset(c["permutation"] for c in report.counterexamples)
    if report.passed != (not failing):
        problems.append("report verdict disagrees with its counterexamples")
    if w.claim == "pair" and failing:
        problems.append(f"pair involution failed on {len(failing)} permutations")
    return Verdict(report.passed, checked or 0, failing, tuple(problems))


def check_totals(w: Workload) -> list[str]:
    """Sweeps: each per-rank distribution table covers all of B_n."""
    problems = []
    if w.kind != "sweep":
        return problems
    for n in range(1, w.rank + 1):
        table = enumeration.distribution(n, SWEEP_SCHEMA[w.claim])
        size = enumeration.bn_size(n)
        if table.total != size or sum(table.cells.values()) != size:
            problems.append(f"rank {n}: table total {table.total}, "
                            f"cells sum {sum(table.cells.values())}, |B_n| {size}")
    return problems


def spot_check(rank: int, seed: int) -> list[str]:
    """Kernels against the plain-python oracles on seeded rows of `rank`."""
    values = enumeration.signed_values_batch(rank)
    rng = np.random.default_rng(seed)
    rows = values[rng.choice(len(values), size=min(SPOT_ROWS, len(values)), replace=False)]
    arcs = _kernels.upper_arcs_batch(rows)
    pair = _kernels.pair_stats_batch(arcs)
    chain = _kernels.chain_stats_batch(arcs)
    problems = []
    for r, row in enumerate(rows.tolist()):
        p = SignedPermutation(tuple(row))
        got = (sorted(map(tuple, arcs[r].tolist())), tuple(pair[r].tolist()),
               tuple(chain[r].tolist()))
        want = (sorted(upper_diagram(p).arcs),
                (statistics.cro(p), statistics.nes(p), wex(p), neg(p)),
                statistics.max_chain_sizes(p))
        if got != want:
            problems.append(f"kernels disagree with the oracles on {p}: {got} != {want}")
    return problems


def map_fails(p: SignedPermutation, which: str) -> bool:
    """True unless the map swaps the statistics, keeps the preserved
    ones, and is its own inverse on p.  Chain sizes come from the
    brute-force oracles, not the DP the verifier uses."""
    if which == "pair":
        apply = involution.crossing_nesting_involution

        def stats(q):
            return statistics.cro(q), statistics.nes(q)
    else:
        apply = fillings.max_chain_involution

        def stats(q):
            return statistics.cro_star_brute(q), statistics.nes_star_brute(q)
    try:
        image = apply(p)
        back = apply(image)
    except CrossNestError:
        return True
    return (stats(image) != stats(p)[::-1]
            or (which == "pair" and wex(image) != wex(p))
            or neg(image) != neg(p)
            or degree_sequence(image) != degree_sequence(p)
            or back != p)


def recheck_verdicts(w: Workload, failing: frozenset, seed: int) -> list[str]:
    """Involutions: re-derive the verdict of seeded permutations."""
    if w.kind != "involution":
        return []
    perms = [p for n in range(1, w.rank + 1) for p in enumeration.enumerate_bn(n)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(perms), size=min(RECHECK_PERMS, len(perms)), replace=False)
    problems = []
    for i in picks.tolist():
        p = perms[i]
        if map_fails(p, w.claim) != (str(p) in failing):
            problems.append(f"verdict on {p} is wrong: reported "
                            f"{'failing' if str(p) in failing else 'passing'}")
    return problems
