"""Exhaustive generation of rank-n signed permutations, joint
distribution tables, and the symmetry verifiers.

The verifiers are counting arguments, deliberately independent of the
involutions in `involution` and `fillings`: a distribution table is
built over the full rank (or over one degree-sequence class) and checked
for symmetry key by key.  The involution property suite is a separate
claim that applies the maps and confirms their documented behaviour.

Every counting verifier goes through `_sweep`, which streams the rank in
blocks of about `BLOCK_ROWS` one-line arrays (whole magnitude
permutations, each with all 2^n sign masks), so memory stays bounded up
to `MAX_ENUM_RANK`.  A block's columns, which may include the private
2n-bit `degree` class code, are folded into one mixed-radix integer key
per row and counted with `np.bincount`; keys are decoded once, at the end.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Literal

import numpy as np

from . import _kernels
from .core import (
    DegreeSequence,
    SignedPermutation,
    degree_sequence,
    neg,
    upper_diagram,
    wex,
)
from .errors import RankTooLarge, UnknownStatistic
from .fillings import max_chain_involution
from .involution import crossing_nesting_involution
from .statistics import _cro_nes, max_chain_sizes

MAX_ENUM_RANK = 8

# rows per streamed block; a block holds max(1, BLOCK_ROWS >> n) whole
# magnitude permutations
BLOCK_ROWS = 2 ** 14

STAT_NAMES = ("nes", "cro", "wex", "neg", "cro_star", "nes_star")
PAIR_STATS = ("cro", "nes", "wex", "neg")      # pair_stats_batch columns
CHAIN_STATS = ("cro_star", "nes_star")         # chain_stats_batch columns


def _check_rank(n: int) -> None:
    if not 1 <= n <= MAX_ENUM_RANK:
        raise RankTooLarge(
            f"rank {n} outside the enumeration guard 1..{MAX_ENUM_RANK}"
        )


def _signed_rows(mags: np.ndarray, n: int) -> np.ndarray:
    """One-line arrays of the given magnitude permutations, each followed
    by its 2^n sign masks in binary order; bit j of the mask flips
    position j+1."""
    masks = np.arange(2 ** n, dtype=np.int64)
    signs = 1 - 2 * ((masks[:, None] >> np.arange(n)) & 1)
    return (mags[:, None, :] * signs[None, :, :]).reshape(-1, n)


def _magnitudes(n: int) -> np.ndarray:
    _check_rank(n)
    return np.array(list(permutations(range(1, n + 1))), dtype=np.int64)


def signed_values_batch(n: int) -> np.ndarray:
    """All 2^n * n! one-line arrays, magnitude permutations in
    lexicographic order outermost, sign masks in binary order inner."""
    return _signed_rows(_magnitudes(n), n)


def _signed_value_blocks(n: int) -> Iterator[np.ndarray]:
    """The rows of `signed_values_batch(n)`, in order, in blocks of
    about BLOCK_ROWS."""
    mags = _magnitudes(n)
    step = max(1, BLOCK_ROWS >> n)
    for lo in range(0, len(mags), step):
        yield _signed_rows(mags[lo:lo + step], n)


def enumerate_bn(n: int) -> Iterator[SignedPermutation]:
    """Each rank-n signed permutation exactly once, deterministic order."""
    for values in _signed_value_blocks(n):
        for row in values.tolist():
            yield SignedPermutation(tuple(row))


def bn_size(n: int) -> int:
    size = 2 ** n
    for i in range(2, n + 1):
        size *= i
    return size


def _stat_radix(n: int, name: str) -> int:
    """One more than the largest value the statistic takes at rank n:
    cro and nes count arc pairs, the degree code has 2n bits, the others
    count arcs."""
    if name == "degree":
        return 4 ** n
    return n * (n - 1) // 2 + 1 if name in ("cro", "nes") else n + 1


def _degree_codes(arcs: np.ndarray) -> np.ndarray:
    """Degree-sequence class code per row: bit m-1 when the arc of magnitude
    m starts at -m, bit n+m-1 when an arc ends at -m; each magnitude starts
    one arc and ends one, so the bits fix all 2n (in, out) degrees."""
    n = arcs.shape[1]
    return ((arcs < 0) << (np.abs(arcs) - 1 + np.array([0, n]))).sum(axis=(1, 2))


def _degree_class(code: int, n: int) -> tuple[str, int]:
    """The degree sequence text of a class code, and the class's neg."""
    bits = [(code >> i) & 1 for i in range(2 * n)]
    neg_out, neg_in = bits[:n], bits[n:]
    entries = [(neg_in[m], neg_out[m]) for m in reversed(range(n))]
    entries += [(1 - a, 1 - b) for a, b in zip(neg_in, neg_out)]
    # an arc that ends at a negative vertex also starts at one, so neg
    # (negative start, positive end) is the difference of the two counts
    return str(DegreeSequence(n, tuple(entries))), sum(neg_out) - sum(neg_in)


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


def _sweep(n: int, schema: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """Count the rank-n rows by their values of the schema's columns,
    which are statistics from STAT_NAMES or the `degree` class code."""
    radices = np.array([_stat_radix(n, name) for name in schema], dtype=np.int64)
    # place values with the first column most significant, so that key
    # order is the lexicographic order of the tuples
    places = np.array([radices[i + 1:].prod() for i in range(len(schema))], dtype=np.int64)
    want_pair = not set(schema).isdisjoint(PAIR_STATS)
    want_chain = not set(schema).isdisjoint(CHAIN_STATS)
    counts = np.zeros(radices.prod(), dtype=np.int64)
    for values in _signed_value_blocks(n):
        arcs = _kernels.upper_arcs_batch(values)
        columns = {}
        if want_pair:
            columns.update(zip(PAIR_STATS, _kernels.pair_stats_batch(arcs).T))
        if want_chain:
            columns.update(zip(CHAIN_STATS, _kernels.chain_stats_batch(arcs).T))
        if "degree" in schema:
            columns["degree"] = _degree_codes(arcs)
        keys = np.zeros(len(values), dtype=np.int64)
        for name, place in zip(schema, places.tolist()):
            keys += columns[name] * place
        block = np.bincount(keys)
        counts[:len(block)] += block
    present = np.flatnonzero(counts)
    digits = present[:, None] // places % radices
    return dict(zip(map(tuple, digits.tolist()), counts[present].tolist()))


def distribution(n: int, schema: tuple[str, ...] = ("nes", "cro", "wex", "neg")) -> DistributionTable:
    """Exact joint distribution of the chosen statistics over rank n."""
    schema = tuple(schema)
    unknown = set(schema) - set(STAT_NAMES)
    if unknown:
        raise UnknownStatistic(
            f"unknown statistics {sorted(unknown)}; pick from {','.join(STAT_NAMES)}")
    _check_rank(n)
    cells = _sweep(n, schema)
    return DistributionTable(schema, cells, sum(cells.values()))


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


def _unbalanced(cells: dict[tuple[int, ...], int], i: int, j: int):
    """(key, count, swapped key, its count) for each key whose count differs
    from the key with coordinates i and j swapped; keys with count 0 are
    absent, so each unequal pair is reported once, from the side that exists."""
    for key, count in sorted(cells.items()):
        swapped = list(key)
        swapped[i], swapped[j] = key[j], key[i]
        swapped = tuple(swapped)
        other = cells.get(swapped, 0)
        if other != count and (key < swapped or other == 0):
            yield key, count, swapped, other


def verify_pair_symmetry(n_max: int = 5) -> VerificationReport:
    """The (nes, cro, wex, neg) table is symmetric under swapping the
    first two coordinates, rank by rank."""
    _check_rank(n_max)

    def run():
        bad = []
        for n in range(1, n_max + 1):
            table = distribution(n, ("nes", "cro", "wex", "neg"))
            bad.extend({
                "n": n,
                "key": list(key),
                "count": count,
                "swapped_key": list(swapped),
                "swapped_count": other,
            } for key, count, swapped, other in _unbalanced(table.cells, 0, 1))
        return bad

    bad, elapsed = _timed(run)
    return VerificationReport(
        claim="thm24",
        parameters={"n_max": n_max, "schema": ["nes", "cro", "wex", "neg"]},
        passed=not bad,
        counterexamples=bad,
        elapsed=elapsed,
    )


def verify_chain_symmetry(n_max: int = 4) -> VerificationReport:
    """Within each degree-sequence class, the (cro_star, nes_star, neg)
    table is symmetric under swapping the chain statistics."""
    _check_rank(n_max)

    def run():
        bad = []
        for n in range(1, n_max + 1):
            cells = _sweep(n, ("degree", "cro_star", "nes_star"))
            for key, count, swapped, other in _unbalanced(cells, 1, 2):
                degree, negs = _degree_class(key[0], n)
                bad.append({
                    "n": n,
                    "degree_sequence": degree,
                    "key": [key[1], key[2], negs],
                    "count": count,
                    "swapped_key": [swapped[1], swapped[2], negs],
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
    return distribution(n, ("cro_star",)).count((n,))


def verify_max_crossing_counts(n_max: int = 6) -> VerificationReport:
    """Full-chain counts match 2, 2, 1, 1, ... by enumeration."""
    _check_rank(n_max)

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

    if min(max_rows, max_cols) < 1:
        raise RankTooLarge(
            f"desk shape bounds {max_rows}x{max_cols} select no shape; both must be >= 1"
        )

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
    stats = _cro_nes if which == "pair" else max_chain_sizes
    image = apply(p)
    diagram, image_diagram = upper_diagram(p), upper_diagram(image)
    before, after = stats(diagram), stats(image_diagram)
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
    degrees = degree_sequence(diagram), degree_sequence(image_diagram)
    if degrees[0] != degrees[1]:
        failures.append({
            "permutation": str(p),
            "failure": "degree_preservation",
            "before": str(degrees[0]),
            "after": str(degrees[1]),
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
    _check_rank(n_max)

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
