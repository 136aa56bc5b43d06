"""Exhaustive generation of rank-n signed permutations, joint
distribution tables, and the symmetry verifiers.

The verifiers are counting arguments, deliberately independent of the
involutions in `involution` and `fillings`: a distribution table is
built over the full rank (or over one degree-sequence class) and checked
for symmetry key by key.  The involution property suite is a separate
claim that applies the maps and confirms their documented behaviour.
Both maps take one arc table per block of the same stream as `_sweep`
and return the images' tables, with the statistics compared column by
column.  The maps, `_kernels.pair_involution_batch` and `theta_batch`,
are checked in the tests against their scalar references,
`crossing_nesting_involution` and `max_chain_involution`.

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
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations_with_replacement, permutations, product
from typing import Iterator, Literal

import numpy as np

from . import _kernels
from .core import DegreeSequence, SignedPermutation
from .errors import RankTooLarge, RepeatedStatistic, UnknownMap, UnknownStatistic
from .fillings import border_walks

MAX_ENUM_RANK = 8

# rows per streamed block; a block holds max(1, BLOCK_ROWS >> n) whole
# magnitude permutations.  The rank-7 pair sweep took 0.34, 0.13 and 0.11 s
# at 2^10, 2^12 and 2^14 rows (best of 5, fresh process, 2 cores)
BLOCK_ROWS = 2 ** 14

STAT_NAMES = ("nes", "cro", "wex", "neg", "cro_star", "nes_star")
PAIR_STATS = ("cro", "nes", "wex", "neg")      # pair_stats_batch columns
CHAIN_STATS = ("cro_star", "nes_star")         # chain_stats_batch columns


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_rank(n: int) -> None:
    if not _is_int(n) or not 1 <= n <= MAX_ENUM_RANK:
        raise RankTooLarge(
            f"rank {n!r} outside the enumeration guard 1..{MAX_ENUM_RANK}"
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
    about `BLOCK_ROWS`."""
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
    """2^n * n!, the number of rank-n signed permutations."""
    if not _is_int(n) or n < 0:
        raise RankTooLarge(f"rank {n!r} must be an integer >= 0")
    return 2 ** n * math.factorial(n)


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
    repeated = sorted({name for name in schema if schema.count(name) > 1})
    if repeated:
        # a JSON row would keep one column per name and drop the repeats
        raise RepeatedStatistic(f"statistics named more than once: {repeated}")
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

    def to_json_obj(self) -> dict:
        return asdict(self)


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
    return VerificationReport(
        claim="thm24",
        parameters={"n_max": n_max, "schema": ["nes", "cro", "wex", "neg"]},
        passed=not bad,
        counterexamples=bad,
    )


def verify_chain_symmetry(n_max: int = 4) -> VerificationReport:
    """Within each degree-sequence class, the (cro_star, nes_star, neg)
    table is symmetric under swapping the chain statistics."""
    _check_rank(n_max)
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
    return VerificationReport(
        claim="thm27",
        parameters={"n_max": n_max, "schema": ["cro_star", "nes_star", "neg"]},
        passed=not bad,
        counterexamples=bad,
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
    bad = []
    values = []
    for n in range(1, n_max + 1):
        expected = 2 if n <= 2 else 1
        actual = max_crossing_count(n)
        values.append(actual)
        if actual != expected:
            bad.append({"n": n, "expected": expected, "actual": actual})
    return VerificationReport(
        claim="corollary",
        parameters={"n_max": n_max},
        passed=not bad,
        counterexamples=bad,
        info={"counts": values},
    )


def _desk_shapes(max_rows: int, max_cols: int) -> Iterator[tuple[int, ...]]:
    for rows in range(1, max_rows + 1):
        yield from combinations_with_replacement(range(max_cols, 0, -1), rows)


def verify_avoider_symmetry(max_rows: int = 4, max_cols: int = 4,
                            ks: tuple[int, ...] = (2, 3)) -> VerificationReport:
    """Identity- and anti-identity-avoider counts agree on every desk
    shape, over all 0/1 row and column sum prescriptions.

    Each (shape, sums) case is walked once: border_walks counts its
    fillings by both pattern sizes, and every k reads both counts from
    that table.  Conjugating the walk's labels swaps the two sizes, so
    their agreement is close to a tautology.  The evidence for Lemma 4.1
    is that the walk count equals a row-by-row backtracking search on
    every desk case up to 4x4, which the tests check.
    """
    if not (_is_int(max_rows) and _is_int(max_cols)) or min(max_rows, max_cols) < 1:
        raise RankTooLarge(f"desk shape bounds {max_rows!r}x{max_cols!r} select no shape; "
                           "both must be integers >= 1")
    if (not isinstance(ks, (tuple, list)) or not ks or not all(map(_is_int, ks))
            or min(ks) < 1 or len(set(ks)) < len(ks)):
        raise RankTooLarge(f"pattern sizes {ks!r} must be a nonempty tuple or list "
                           "of distinct ints >= 1")
    bad = []
    checked = 0
    for shape in _desk_shapes(max_rows, max_cols):
        for row_sums in product((0, 1), repeat=len(shape)):
            for col_sums in product((0, 1), repeat=shape[0]):
                if sum(row_sums) != sum(col_sums):
                    continue
                table = border_walks(shape, row_sums, col_sums)
                for k in ks:
                    anti = sum(count for (parts, _), count in table.items() if parts < k)
                    ident = sum(count for (_, first), count in table.items() if first < k)
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
    return VerificationReport(
        claim="lemma41",
        parameters={"max_rows": max_rows, "max_cols": max_cols, "ks": list(ks)},
        passed=not bad,
        counterexamples=bad,
        info={"cases_checked": checked},
    )


def _one_line(row: np.ndarray) -> str:
    """The text of `SignedPermutation(row)`."""
    return ",".join(map(str, row.tolist()))


def _map_failures(values: np.ndarray, which: str) -> list[dict]:
    """Counterexamples of the chosen map on one block of one-line arrays,
    row by row, each row's in the order swap, wex, neg, degree, involution."""
    # looked up per call, so that patched or wrapped maps apply
    apply = _kernels.pair_involution_batch if which == "pair" else _kernels.theta_batch
    n = values.shape[1]
    arcs = _kernels.upper_arcs_batch(values)
    image = apply(arcs)
    back = apply(image)
    kept, image_kept = _kernels.pair_stats_batch(arcs), _kernels.pair_stats_batch(image)
    if which == "pair":
        before, after = kept, image_kept
    else:
        before, after = _kernels.chain_stats_batch(arcs), _kernels.chain_stats_batch(image)
    degrees, image_degrees = _degree_codes(arcs), _degree_codes(image)
    failed = np.stack([
        (after[:, 0] != before[:, 1]) | (after[:, 1] != before[:, 0]),
        image_kept[:, 2] != kept[:, 2],
        image_kept[:, 3] != kept[:, 3],
        degrees != image_degrees,
        (back != arcs).any(axis=(1, 2)),
    ], axis=1)
    rows = np.flatnonzero(failed.any(axis=1))
    if not len(rows):
        return []
    images, twice = _kernels.one_line_batch(image[rows]), _kernels.one_line_batch(back[rows])
    failures = []
    for i, row in enumerate(rows.tolist()):
        k, ik = kept[row].tolist(), image_kept[row].tolist()
        fields = (
            ("statistic_swap", {"before": before[row, :2].tolist(),
                                "after": after[row, :2].tolist()}),
            ("wex_preservation", {"before": k[2], "after": ik[2]}),
            ("neg_preservation", {"before": k[3], "after": ik[3]}),
            ("degree_preservation", {"before": _degree_class(int(degrees[row]), n)[0],
                                     "after": _degree_class(int(image_degrees[row]), n)[0]}),
            ("involution", {"image": _one_line(images[i]), "twice": _one_line(twice[i])}),
        )
        perm = _one_line(values[row])
        failures.extend({"permutation": perm, "failure": kind, **rest}
                        for (kind, rest), hit in zip(fields, failed[row].tolist()) if hit)
    return failures


def verify_involution_properties(
    n_max: int, which: Literal["pair", "chain"]
) -> VerificationReport:
    """Apply the chosen map to every permutation of every rank up to
    n_max and confirm swap, preservation and involutivity.  Failures are
    reported; a map that loses its own bookkeeping raises (Desynchronized,
    InconsistentGrowth); any map but "pair" or "chain" raises UnknownMap."""
    if which not in ("pair", "chain"):
        raise UnknownMap(f"unknown map {which!r}; pick pair or chain")
    _check_rank(n_max)
    bad = []
    count = 0
    for n in range(1, n_max + 1):
        for values in _signed_value_blocks(n):
            count += len(values)
            bad.extend(_map_failures(values, which))
    return VerificationReport(
        claim="involutions",
        parameters={"n_max": n_max, "map": which},
        passed=not bad,
        counterexamples=bad,
        info={"permutations_checked": count},
    )


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.to_json_obj(), indent=2)
