"""Exhaustive generation of rank-n signed permutations, joint
distribution tables, and the symmetry verifiers.

The verifiers are counting arguments, deliberately independent of the
involutions in `involution` and `fillings`: a distribution table is
built over the full rank (or over one degree-sequence class) and checked
for symmetry key by key.  The involution property suite is a separate
claim that applies the maps and confirms their documented behaviour.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Literal

import numpy as np

from . import _kernels
from .core import (
    SignedPermutation,
    degree_sequence,
    neg,
    upper_diagram,
    wex,
)
from .errors import RankTooLarge
from .fillings import max_chain_involution
from .involution import crossing_nesting_involution
from .statistics import cro, max_chain_sizes, nes

MAX_ENUM_RANK = 8

STAT_NAMES = ("nes", "cro", "wex", "neg", "cro_star", "nes_star")


def _check_rank(n: int) -> None:
    if not 1 <= n <= MAX_ENUM_RANK:
        raise RankTooLarge(
            f"rank {n} outside the enumeration guard 1..{MAX_ENUM_RANK}"
        )


def signed_values_batch(n: int) -> np.ndarray:
    """All 2^n * n! one-line arrays, magnitude permutations in
    lexicographic order outermost, sign masks in binary order inner;
    bit j of the mask flips position j+1."""
    _check_rank(n)
    mags = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    masks = np.arange(2 ** n, dtype=np.int64)
    signs = 1 - 2 * ((masks[:, None] >> np.arange(n)) & 1)
    values = mags[:, None, :] * signs[None, :, :]
    return values.reshape(-1, n)


def enumerate_bn(n: int) -> Iterator[SignedPermutation]:
    """Each rank-n signed permutation exactly once, deterministic order."""
    for row in signed_values_batch(n):
        yield SignedPermutation(tuple(int(v) for v in row))


def bn_size(n: int) -> int:
    size = 2 ** n
    for i in range(2, n + 1):
        size *= i
    return size


def _stat_columns(n: int, names: tuple[str, ...]) -> np.ndarray:
    values = signed_values_batch(n)
    arcs = _kernels.upper_arcs_batch(values)
    columns = {}
    if {"nes", "cro", "wex", "neg"} & set(names):
        table = _kernels.pair_stats_batch(arcs)
        columns["cro"] = table[:, 0]
        columns["nes"] = table[:, 1]
        columns["wex"] = table[:, 2]
        columns["neg"] = table[:, 3]
    if {"cro_star", "nes_star"} & set(names):
        table = _kernels.chain_stats_batch(arcs)
        columns["cro_star"] = table[:, 0]
        columns["nes_star"] = table[:, 1]
    return np.stack([columns[name] for name in names], axis=1)


@dataclass(frozen=True)
class DistributionTable:
    schema: tuple[str, ...]
    cells: dict[tuple[int, ...], int]
    total: int

    def count(self, key: tuple[int, ...]) -> int:
        return self.cells.get(tuple(key), 0)

    def sorted_rows(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.cells.items())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(self.schema) + ["count"])
        for key, count in self.sorted_rows():
            writer.writerow(list(key) + [count])
        return buf.getvalue()

    def to_json_obj(self) -> list[dict]:
        rows = []
        for key, count in self.sorted_rows():
            row = {name: int(v) for name, v in zip(self.schema, key)}
            row["count"] = int(count)
            rows.append(row)
        return rows


def distribution(n: int, schema: tuple[str, ...] = ("nes", "cro", "wex", "neg")) -> DistributionTable:
    """Exact joint distribution of the chosen statistics over rank n."""
    schema = tuple(schema)
    unknown = set(schema) - set(STAT_NAMES)
    if unknown:
        raise ValueError(f"unknown statistics {sorted(unknown)}; pick from {STAT_NAMES}")
    stats = _stat_columns(n, schema)
    counter = Counter(map(tuple, stats.tolist()))
    return DistributionTable(schema, dict(counter), int(stats.shape[0]))


@dataclass
class VerificationReport:
    claim: str
    parameters: dict
    passed: bool
    counterexamples: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json_obj(self) -> dict:
        # elapsed stays out so identical runs serialise identically
        return {
            "claim": self.claim,
            "parameters": self.parameters,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "info": self.info,
        }


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def verify_pair_symmetry(n_max: int = 5) -> VerificationReport:
    """The (nes, cro, wex, neg) table is symmetric under swapping the
    first two coordinates, rank by rank."""
    def run():
        bad = []
        for n in range(1, n_max + 1):
            table = distribution(n, ("nes", "cro", "wex", "neg"))
            for key, count in table.sorted_rows():
                swapped = (key[1], key[0], key[2], key[3])
                other = table.count(swapped)
                # keys with count 0 are absent, so report those from the
                # side that exists; equal-count pairs report nothing
                if other != count and (key < swapped or other == 0):
                    bad.append({
                        "n": n,
                        "key": list(key),
                        "count": count,
                        "swapped_key": list(swapped),
                        "swapped_count": other,
                    })
        return bad

    bad, elapsed = _timed(run)
    return VerificationReport(
        claim="thm24",
        parameters={"n_max": n_max, "schema": ["nes", "cro", "wex", "neg"]},
        passed=not bad,
        counterexamples=bad,
        elapsed=elapsed,
    )


def _degree_groups(n: int) -> dict[bytes, np.ndarray]:
    values = signed_values_batch(n)
    arcs = _kernels.upper_arcs_batch(values)
    table = _kernels.degree_table_batch(arcs)
    flat = table.reshape(table.shape[0], -1)
    keys = [row.tobytes() for row in flat]
    groups: dict[bytes, list[int]] = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    return {key: np.array(idxs) for key, idxs in groups.items()}


def _degree_bytes_to_string(key: bytes, n: int) -> str:
    pairs = np.frombuffer(key, dtype=np.int8).reshape(2 * n, 2)
    return "".join(f"({a},{b})" for a, b in pairs)


def verify_chain_symmetry(n_max: int = 4) -> VerificationReport:
    """Within each degree-sequence class, the (cro_star, nes_star, neg)
    table is symmetric under swapping the chain statistics."""
    def run():
        bad = []
        for n in range(1, n_max + 1):
            values = signed_values_batch(n)
            arcs = _kernels.upper_arcs_batch(values)
            chain = _kernels.chain_stats_batch(arcs)
            negs = ((arcs[:, :, 0] < 0) & (arcs[:, :, 1] > 0)).sum(axis=1)
            for key, idxs in _degree_groups(n).items():
                counter = Counter(
                    (int(chain[i, 0]), int(chain[i, 1]), int(negs[i])) for i in idxs
                )
                for stat_key, count in sorted(counter.items()):
                    swapped = (stat_key[1], stat_key[0], stat_key[2])
                    other = counter.get(swapped, 0)
                    if other != count and (stat_key < swapped or other == 0):
                        bad.append({
                            "n": n,
                            "degree_sequence": _degree_bytes_to_string(key, n),
                            "key": list(stat_key),
                            "count": count,
                            "swapped_key": list(swapped),
                            "swapped_count": other,
                        })
        return bad

    bad, elapsed = _timed(run)
    return VerificationReport(
        claim="thm27",
        parameters={"n_max": n_max, "schema": ["cro_star", "nes_star", "neg"]},
        passed=not bad,
        counterexamples=bad,
        elapsed=elapsed,
    )


def max_crossing_witness(n: int) -> SignedPermutation:
    """The permutation s(i) = i - (n+1); its upper arcs form one full
    crossing chain of size n."""
    return SignedPermutation(tuple(i - (n + 1) for i in range(1, n + 1)))


def max_crossing_count(n: int) -> int:
    """Number of rank-n permutations whose largest crossing chain uses
    every arc, by enumeration; ranks outside the guard raise RankTooLarge
    because no count beyond it is backed by enumeration or proof."""
    _check_rank(n)
    arcs = _kernels.upper_arcs_batch(signed_values_batch(n))
    chain = _kernels.chain_stats_batch(arcs)
    return int((chain[:, 0] == n).sum())


def verify_max_crossing_counts(n_max: int = 6) -> VerificationReport:
    """Full-chain counts match 2, 2, 1, 1, ... by enumeration."""
    def run():
        bad = []
        values = []
        for n in range(1, n_max + 1):
            expected = 2 if n <= 2 else 1
            actual = max_crossing_count(n)
            values.append(actual)
            if actual != expected:
                bad.append({"n": n, "expected": expected, "actual": actual})
        return bad, values

    (bad, values), elapsed = _timed(run)
    return VerificationReport(
        claim="corollary",
        parameters={"n_max": n_max},
        passed=not bad,
        counterexamples=bad,
        info={"counts": values},
        elapsed=elapsed,
    )


def _desk_shapes(max_rows: int, max_cols: int) -> Iterator[tuple[int, ...]]:
    def grow(prefix, limit):
        yield tuple(prefix)
        if len(prefix) == max_rows:
            return
        for w in range(1, limit + 1):
            prefix.append(w)
            yield from grow(prefix, w)
            prefix.pop()

    for first in range(1, max_cols + 1):
        yield from grow([first], first)


def verify_avoider_symmetry(max_rows: int = 4, max_cols: int = 4,
                            ks: tuple[int, ...] = (2, 3)) -> VerificationReport:
    """Identity- and anti-identity-avoider counts agree on every desk
    shape, over all 0/1 row and column sum prescriptions."""
    from .fillings import PatternKind, count_avoiders
    from .errors import InfeasibleSums

    def run():
        bad = []
        checked = 0
        for shape in _desk_shapes(max_rows, max_cols):
            rows = len(shape)
            cols = shape[0]
            for rmask in range(2 ** rows):
                row_sums = tuple((rmask >> i) & 1 for i in range(rows))
                for cmask in range(2 ** cols):
                    col_sums = tuple((cmask >> i) & 1 for i in range(cols))
                    if sum(row_sums) != sum(col_sums):
                        continue
                    for k in ks:
                        try:
                            ident = count_avoiders(shape, row_sums, col_sums, k, PatternKind.IDENTITY)
                            anti = count_avoiders(shape, row_sums, col_sums, k, PatternKind.ANTI_IDENTITY)
                        except InfeasibleSums:
                            continue
                        checked += 1
                        if ident != anti:
                            bad.append({
                                "shape": list(shape),
                                "row_sums": list(row_sums),
                                "col_sums": list(col_sums),
                                "k": k,
                                "identity_avoiders": ident,
                                "anti_identity_avoiders": anti,
                            })
        return bad, checked

    (bad, checked), elapsed = _timed(run)
    return VerificationReport(
        claim="lemma41",
        parameters={"max_rows": max_rows, "max_cols": max_cols, "ks": list(ks)},
        passed=not bad,
        counterexamples=bad,
        info={"cases_checked": checked},
        elapsed=elapsed,
    )


def _involution_failures_for(p: SignedPermutation, which: Literal["pair", "chain"]) -> list[dict]:
    failures = []
    apply = crossing_nesting_involution if which == "pair" else max_chain_involution
    stats = (
        (lambda q: (cro(q), nes(q)))
        if which == "pair"
        else (lambda q: max_chain_sizes(q))
    )
    image = apply(p)
    before, after = stats(p), stats(image)
    if (after[0], after[1]) != (before[1], before[0]):
        failures.append({
            "permutation": str(p),
            "failure": "statistic_swap",
            "before": list(before),
            "after": list(after),
        })
    if which == "pair" and wex(image) != wex(p):
        failures.append({
            "permutation": str(p),
            "failure": "wex_preservation",
            "before": wex(p),
            "after": wex(image),
        })
    if neg(image) != neg(p):
        failures.append({
            "permutation": str(p),
            "failure": "neg_preservation",
            "before": neg(p),
            "after": neg(image),
        })
    if str(degree_sequence(image)) != str(degree_sequence(p)):
        failures.append({
            "permutation": str(p),
            "failure": "degree_preservation",
            "before": str(degree_sequence(p)),
            "after": str(degree_sequence(image)),
        })
    back = apply(image)
    if back != p:
        failures.append({
            "permutation": str(p),
            "failure": "involution",
            "image": str(image),
            "twice": str(back),
        })
    return failures


def verify_involution_properties(
    n_max: int, which: Literal["pair", "chain"]
) -> VerificationReport:
    """Apply the chosen map to every permutation of every rank up to
    n_max and confirm swap, preservation and involutivity; failures are
    reported, never raised."""
    def run():
        bad = []
        count = 0
        for n in range(1, n_max + 1):
            for p in enumerate_bn(n):
                count += 1
                bad.extend(_involution_failures_for(p, which))
        return bad, count

    (bad, count), elapsed = _timed(run)
    return VerificationReport(
        claim="involutions",
        parameters={"n_max": n_max, "map": which},
        passed=not bad,
        counterexamples=bad,
        info={"permutations_checked": count},
        elapsed=elapsed,
    )


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.to_json_obj(), indent=2)
