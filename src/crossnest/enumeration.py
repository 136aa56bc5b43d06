"""Exhaustive generation of rank-n signed permutations, joint
distribution tables, and the symmetry verifiers.

The verifiers are counting arguments, deliberately independent of the
involutions in `involution` and `fillings`: a distribution table is
built over the full rank (or over one degree-sequence class) and checked
for symmetry key by key.  The involution property suite is a separate
claim that applies the maps and confirms their documented behaviour.
Both maps take one arc table per block of the same stream as `_sweep`
and return the images' tables, whose `_columns` (the sweep's) must equal
the source's with the pair swapped.  Each map runs once per row: every
image is a row of the same rank, so `_stream_index`, the inverse of the
stream's order, records each image's position, and the map is an
involution on the rank exactly when every row is its image's image.
The maps, `_kernels.pair_involution_batch` and `theta_batch`, are
checked in the tests against their scalar references,
`crossing_nesting_involution` and `max_chain_involution`.

Every counting verifier goes through `_sweep`, which streams the rank in
blocks of about `BLOCK_ROWS` one-line arrays (whole magnitude
permutations, each with all 2^n sign masks), so memory stays bounded up
to `MAX_ENUM_RANK` (the stream checks the rank as it opens, so `_sweep`
does not), and counts them into one int64 array with an axis per
column (one may be the private 2n-bit `degree` class code); the
symmetry checks compare it with two axes swapped, and only
`distribution` makes a dict.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations_with_replacement, product
from typing import Iterator, Literal

import numpy as np

from . import _kernels
from .core import DegreeSequence, SignedPermutation, _is_int
from .errors import RankTooLarge, RepeatedStatistic, UnknownMap, UnknownStatistic
from .fillings import _avoiders, border_walks

MAX_ENUM_RANK = 8

# rows per streamed block; a block holds max(1, BLOCK_ROWS >> n) whole
# magnitude permutations.  On the int8 stream, the rank-7 pair and rank-6
# chain sweeps took 47 / 6.9, 49 / 7.8 and 48 / 8.5 ms at 2^13, 2^14 and
# 2^15 rows (best of 22 fresh processes), but 46 / 8.4, 41 / 8.1 and
# 54 / 9.9 ms interleaved in one process (best of 30); no size won both
# sweeps both ways, so 2^14 stays (2 cores, shared host)
BLOCK_ROWS = 2 ** 14

STAT_NAMES = ("nes", "cro", "wex", "neg", "cro_star", "nes_star")
PAIR_STATS = ("cro", "nes", "wex", "neg")      # pair_stats_batch columns
CHAIN_STATS = ("cro_star", "nes_star")         # chain_stats_batch columns


def _check_rank(n: int) -> None:
    if not _is_int(n) or not 1 <= n <= MAX_ENUM_RANK:
        raise RankTooLarge(
            f"rank {n!r} outside the enumeration guard 1..{MAX_ENUM_RANK}"
        )


def _signs(masks: np.ndarray, n: int) -> np.ndarray:
    """The +-1 factor of each position for each sign mask; bit j of the
    mask flips position j+1."""
    return 1 - 2 * ((masks[..., None] >> np.arange(n)) & 1)


def _signed_rows(mags: np.ndarray, n: int) -> np.ndarray:
    """One-line arrays of the given int8 magnitude permutations, each
    followed by its 2^n sign masks in binary order: an int8 (P, n) view
    of contiguous (n, P) rows, the layout `upper_arcs_batch` reads."""
    signs = _signs(np.arange(2 ** n), n).astype(np.int8)
    # a plain product would be laid out (M, 2^n, n), as its inputs' strides say
    rows = np.empty((n, len(mags), 2 ** n), dtype=np.int8)
    np.multiply(mags.T[:, :, None], signs.T[:, None, :], out=rows)
    return rows.reshape(n, -1).T


def _stream_index(arcs: np.ndarray) -> np.ndarray:
    """The position in `signed_values_batch(n)` of each row of an arc table,
    the inverse of `_signed_rows`' order: lexrank(|s|) * 2^n + mask.

    The arc of position |S| has value |E|, negative when S and E differ in
    sign; its Lehmer digit counts the later positions with smaller values.
    Positions fit int32 up to `MAX_ENUM_RANK`."""
    S, E = arcs.T
    n = len(S)
    pos, val = np.abs(S), np.abs(E)
    digits = np.stack([((pos > pos[a]) & (val < val[a])).sum(axis=0, dtype=np.int8)
                       for a in range(n)])
    weights = np.array([math.factorial(n - m) << n for m in range(n + 1)], dtype=np.int32)
    signs = ((S < 0) != (E < 0)).astype(np.int32) << (pos - 1)
    return (digits * weights[pos] + signs).sum(axis=0)


def _magnitudes(n: int) -> np.ndarray:
    """The n! permutations of 1..n in lexicographic order, int8 (n!, n):
    those of k symbols put each first symbol f before those of k - 1,
    whose symbols from f up move one higher."""
    _check_rank(n)
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k, dtype=np.int8), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack([first, rest + (rest >= first)])
    return perms + 1


def _stream_rows(n: int, positions: np.ndarray) -> np.ndarray:
    """The rows at the given positions of `signed_values_batch(n)`."""
    return _magnitudes(n)[positions >> n] * _signs(positions & (2 ** n - 1), n)


def signed_values_batch(n: int) -> np.ndarray:
    """All 2^n * n! one-line arrays, magnitude permutations in
    lexicographic order outermost, sign masks in binary order inner; an
    int8 (P, n) view of contiguous (n, P) rows, as `_signed_rows` lays out."""
    return _signed_rows(_magnitudes(n), n)


def _signed_value_blocks(n: int) -> Iterator[np.ndarray]:
    """The rows of `signed_values_batch(n)`, in order, in blocks of
    about `BLOCK_ROWS`; a rank outside the guard raises RankTooLarge
    on the call, before any block is taken."""
    mags = _magnitudes(n)
    step = max(1, BLOCK_ROWS >> n)
    return (_signed_rows(mags[lo:lo + step], n) for lo in range(0, len(mags), step))


def enumerate_bn(n: int) -> Iterator[SignedPermutation]:
    """Each rank-n signed permutation exactly once, deterministic order;
    a rank outside the guard raises RankTooLarge on the call."""
    return (SignedPermutation(tuple(row))
            for values in _signed_value_blocks(n) for row in values.tolist())


def bn_size(n: int) -> int:
    """2^n * n!, the number of rank-n signed permutations."""
    if not _is_int(n) or n < 0:
        raise RankTooLarge(f"rank {n!r} must be an integer >= 0")
    return 2 ** n * math.factorial(n)


def _stat_radix(n: int, name: str) -> int:
    """One more than the largest value the statistic takes at rank n:
    cro and nes count arc pairs, the others count arcs; the degree code's
    top bit (an arc ending at -n, a loop at a negative vertex) is never set."""
    if name == "degree":
        return 2 ** (2 * n - 1)
    return n * (n - 1) // 2 + 1 if name in ("cro", "nes") else n + 1


def _degree_codes(arcs: np.ndarray) -> np.ndarray:
    """Degree-sequence class code per row: bit m-1 when the arc of magnitude
    m starts at -m, bit n+m-1 when an arc ends at -m; each magnitude starts
    one arc and ends one, so the bits fix all 2n (in, out) degrees."""
    S, E = arcs.T
    n = len(S)
    # int32 holds the 2n - 1 bits up to rank 16
    return (((S < 0).astype(np.int32) << (np.abs(S) - 1))
            + ((E < 0).astype(np.int32) << (np.abs(E) + (n - 1)))).sum(axis=0)


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


def _columns(arcs: np.ndarray, names: tuple[str, ...]) -> list[np.ndarray]:
    """The named columns (from STAT_NAMES, or the `degree` class code) of an
    arc table, one value per row; each kernel runs at most once."""
    columns = {}
    if not set(names).isdisjoint(PAIR_STATS):
        columns.update(zip(PAIR_STATS, _kernels.pair_stats_batch(arcs).T))
    if not set(names).isdisjoint(CHAIN_STATS):
        columns.update(zip(CHAIN_STATS, _kernels.chain_stats_batch(arcs).T))
    if "degree" in names:
        columns["degree"] = _degree_codes(arcs)
    return [columns[name] for name in names]


def _sweep(n: int, schema: tuple[str, ...]) -> np.ndarray:
    """Count the rank-n rows by their `_columns` values into an int64 array
    with an axis of length `_stat_radix(n, name)` per column; other values
    raise ValueError.  The stream is opened first, so a rank outside the
    guard raises RankTooLarge before the array is allocated."""
    blocks = _signed_value_blocks(n)
    shape = tuple(_stat_radix(n, name) for name in schema)
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    for values in blocks:
        keys = np.ravel_multi_index(_columns(_kernels.upper_arcs_batch(values), schema), shape)
        # an empty schema gives one scalar key for every row
        np.add.at(counts, np.broadcast_to(keys, len(values)), 1)
    return counts.reshape(shape)


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
    counts = _sweep(n, schema)
    present = counts != 0
    cells = dict(zip(map(tuple, np.argwhere(present).tolist()), counts[present].tolist()))
    return DistributionTable(schema, cells, sum(cells.values()))


@dataclass
class VerificationReport:
    claim: str
    parameters: dict
    passed: bool = field(init=False)    # exactly when there is no counterexample
    counterexamples: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.passed = not self.counterexamples

    def to_json_obj(self) -> dict:
        return asdict(self)


def _unbalanced(counts: np.ndarray, i: int, j: int):
    """(key, count, swapped key, its count) for each nonzero cell, in key order,
    whose count differs from the cell with coordinates i < j swapped; each
    unequal pair is reported once, from its smaller key or its nonzero side."""
    mirror = counts.swapaxes(i, j)
    index = np.ogrid[tuple(slice(size) for size in counts.shape)]
    hits = (counts != 0) & (counts != mirror) & ((index[i] < index[j]) | (mirror == 0))
    keys = np.argwhere(hits)
    swapped = keys.copy()
    swapped[:, [i, j]] = keys[:, [j, i]]
    return zip(keys.tolist(), counts[hits].tolist(), swapped.tolist(), mirror[hits].tolist())


def verify_pair_symmetry(n_max: int = 5) -> VerificationReport:
    """The (nes, cro, wex, neg) table is symmetric under swapping the
    first two coordinates, rank by rank."""
    _check_rank(n_max)
    bad = []
    for n in range(1, n_max + 1):
        bad.extend({
            "n": n,
            "key": key,
            "count": count,
            "swapped_key": swapped,
            "swapped_count": other,
        } for key, count, swapped, other in _unbalanced(
            _sweep(n, ("nes", "cro", "wex", "neg")), 0, 1))
    return VerificationReport(
        claim="thm24",
        parameters={"n_max": n_max, "schema": ["nes", "cro", "wex", "neg"]},
        counterexamples=bad,
    )


def verify_chain_symmetry(n_max: int = 4) -> VerificationReport:
    """Within each degree-sequence class, the (cro_star, nes_star, neg)
    table is symmetric under swapping the chain statistics."""
    _check_rank(n_max)
    bad = []
    for n in range(1, n_max + 1):
        for key, count, swapped, other in _unbalanced(
                _sweep(n, ("degree", "cro_star", "nes_star")), 1, 2):
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
    return int(_sweep(n, ("cro_star",))[n])


def verify_max_crossing_counts(n_max: int = 6) -> VerificationReport:
    """Enumerated full-chain counts compared with the closed form 2, 2, 1, 1, ..."""
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
    fillings by both pattern sizes, and `_avoiders` reads both counts
    for every k from that table.  Conjugating the walk's labels swaps
    the two sizes, so their agreement is close to a tautology.  The evidence for Lemma 4.1
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
                    ident, anti = _avoiders(table, k)
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
        counterexamples=bad,
        info={"cases_checked": checked},
    )


def _one_line(row: np.ndarray) -> str:
    """The text of `SignedPermutation(row)`."""
    return ",".join(map(str, row.tolist()))


def _statistic_failures(values: np.ndarray, arcs: np.ndarray, image: np.ndarray,
                        which: str) -> dict[int, list[dict]]:
    """Counterexamples of the chosen map on one block of one-line arrays, by
    row: the image's `_columns` must be the source's with the pair swapped
    (swap, wex, neg, degree, in that order)."""
    n = values.shape[1]
    names = (PAIR_STATS if which == "pair" else CHAIN_STATS)[:2] + ("wex", "neg", "degree")
    # one row per column, like the arc tables, so each check is a contiguous row
    was, now = (np.array(_columns(table, names)) for table in (arcs, image))
    differs = now != was[[1, 0, 2, 3, 4]]
    failed = np.vstack([differs[0] | differs[1], differs[2:]])
    failures = {}
    for row in np.flatnonzero(failed.any(axis=0)).tolist():
        before, after = was[:, row].tolist(), now[:, row].tolist()
        fields = (
            ("statistic_swap", {"before": before[:2], "after": after[:2]}),
            ("wex_preservation", {"before": before[2], "after": after[2]}),
            ("neg_preservation", {"before": before[3], "after": after[3]}),
            ("degree_preservation", {"before": _degree_class(before[4], n)[0],
                                     "after": _degree_class(after[4], n)[0]}),
        )
        perm = _one_line(values[row])
        failures[row] = [{"permutation": perm, "failure": kind, **rest}
                         for (kind, rest), hit in zip(fields, failed[:, row].tolist()) if hit]
    return failures


def _rank_failures(n: int, image_at: np.ndarray, failures: dict[int, list[dict]]) -> list[dict]:
    """The rank's counterexamples in stream order, given each row's image as
    its stream position and the statistic failures by position: a row i
    whose image's image is not i also fails involution, with the rows at
    image_at[i] and image_at[image_at[i]] as its image and its image's image."""
    # slices of 2^16 rows, so the check holds no temporary as long as the rank
    for lo in range(0, len(image_at), 2 ** 16):
        images = image_at[lo:lo + 2 ** 16]
        lost = np.flatnonzero(image_at[images] != np.arange(lo, lo + len(images))) + lo
        if len(lost):
            rows = (lost, image_at[lost], image_at[image_at[lost]])
            texts = [list(map(_one_line, _stream_rows(n, at))) for at in rows]
            for i, perm, image, twice in zip(lost.tolist(), *texts):
                failures.setdefault(i, []).append({"permutation": perm, "failure": "involution",
                                                   "image": image, "twice": twice})
    return [record for i in sorted(failures) for record in failures[i]]


def verify_involution_properties(
    n_max: int, which: Literal["pair", "chain"]
) -> VerificationReport:
    """Apply the chosen map to every permutation of every rank up to
    n_max and confirm swap, preservation and involutivity.  Failures are
    reported; a map that loses its own bookkeeping raises (Desynchronized,
    InconsistentGrowth); any map but "pair" or "chain" raises UnknownMap.

    The map runs once per row.  Every image is a row of the same rank, so
    the map is an involution on the rank exactly when each row's image's
    image is the row; each rank keeps its images' stream positions for
    that, one int32 per row (41 MB at rank 8)."""
    if which not in ("pair", "chain"):
        raise UnknownMap(f"unknown map {which!r}; pick pair or chain")
    _check_rank(n_max)
    # looked up per call, so that patched or wrapped maps apply
    apply = _kernels.pair_involution_batch if which == "pair" else _kernels.theta_batch
    bad = []
    count = 0
    for n in range(1, n_max + 1):
        image_at = np.empty(bn_size(n), dtype=np.int32)
        failures = {}
        lo = 0
        for values in _signed_value_blocks(n):
            arcs = _kernels.upper_arcs_batch(values)
            image = apply(arcs)
            image_at[lo:lo + len(values)] = _stream_index(image)
            failures.update((lo + row, records) for row, records
                            in _statistic_failures(values, arcs, image, which).items())
            lo += len(values)
        count += lo
        bad.extend(_rank_failures(n, image_at, failures))
    return VerificationReport(
        claim="involutions",
        parameters={"n_max": n_max, "map": which},
        counterexamples=bad,
        info={"permutations_checked": count},
    )


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.to_json_obj(), indent=2)
