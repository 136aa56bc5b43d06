"""Crossing/nesting pair counts and maximal chain statistics.

Two upper arcs fall into exactly one of five patterns: proper crossing,
skew crossing (they share a vertex, end of one = start of the other),
proper nesting, skew nesting (an arc over a loop), or alignment.  The
type-B twist is in the signs: a shared vertex only counts as a crossing
when it is positive, and only positive fixed vertices carry the loop
that makes coverage a nesting.  With those conventions the crossing and
nesting numbers are plain pattern counts over arc pairs.

Chains generalise pairs: a k-crossing is k arcs with both endpoints
strictly increasing and every start at most every end; a k-nesting is k
arcs nested strictly inside one another, innermost possibly a loop.
Maximal chain sizes are computed three ways, so each can check the
others: by patience sorting over one diagram here (`max_chain_sizes`),
by brute force over arc subsets here, and by a DP over the arc columns
of a whole batch in `_kernels.chain_stats_batch`, which the sweeps use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from .core import Arc, SignedPermutation, UpperDiagram, _as_diagram
from .errors import SameArc


class PairKind(Enum):
    PROPER_CROSSING = "proper_crossing"
    SKEW_CROSSING = "skew_crossing"
    PROPER_NESTING = "proper_nesting"
    SKEW_NESTING = "skew_nesting"
    ALIGNMENT = "alignment"


@dataclass(frozen=True)
class PairPattern:
    kind: PairKind
    arcs: frozenset[Arc]


def classify_pair(a: Arc, b: Arc) -> PairPattern:
    """Classify two distinct arcs of one diagram.

    Arcs are compared after ordering by start.  A pair sharing a vertex
    is a skew crossing when that vertex is positive and an alignment
    when it is negative; loops under an arc are skew nestings.
    """
    if a == b:
        raise SameArc(f"cannot classify arc {a} against itself")
    first, second = sorted((Arc(*a), Arc(*b)))
    u1, v1 = first
    u2, v2 = second
    if v1 == u2:
        kind = PairKind.SKEW_CROSSING if u2 > 0 else PairKind.ALIGNMENT
    elif u2 > v1:
        kind = PairKind.ALIGNMENT
    elif v2 < v1:
        kind = PairKind.SKEW_NESTING if second.is_loop else PairKind.PROPER_NESTING
    elif v2 > v1:
        kind = PairKind.PROPER_CROSSING
    else:
        # v1 == v2 cannot happen inside one diagram (indegree <= 1)
        kind = PairKind.ALIGNMENT
    return PairPattern(kind, frozenset({first, second}))


def pair_kind_counts(x: SignedPermutation | UpperDiagram) -> dict[PairKind, int]:
    d = _as_diagram(x)
    counts = {kind: 0 for kind in PairKind}
    for a, b in combinations(d.sorted_arcs, 2):
        counts[classify_pair(a, b).kind] += 1
    return counts


def _cro_nes(x: SignedPermutation | UpperDiagram) -> tuple[int, int]:
    """(crossing number, nesting number) from one pass over the pairs."""
    counts = pair_kind_counts(x)
    return (counts[PairKind.PROPER_CROSSING] + counts[PairKind.SKEW_CROSSING],
            counts[PairKind.PROPER_NESTING] + counts[PairKind.SKEW_NESTING])


def cro(x: SignedPermutation | UpperDiagram) -> int:
    """Crossing number: arc pairs in proper or skew crossing position."""
    return _cro_nes(x)[0]


def nes(x: SignedPermutation | UpperDiagram) -> int:
    """Nesting number: arc pairs in proper or skew nesting position."""
    return _cro_nes(x)[1]


class ChainKind(Enum):
    CROSSING = "crossing"
    NESTING = "nesting"


@dataclass(frozen=True)
class ChainWitness:
    kind: ChainKind
    arcs: tuple[Arc, ...]   # sorted by start

    @property
    def k(self) -> int:
        return len(self.arcs)


def is_crossing_chain(arcs: Iterable[Arc]) -> bool:
    """True when the arcs form a crossing chain: starts strictly
    increasing, ends strictly increasing, max start <= min end, and a
    start meeting an end only at a positive vertex."""
    chain = sorted(Arc(*a) for a in arcs)
    if not chain:
        return False
    if len(chain) == 1:
        return True
    starts = [a.start for a in chain]
    ends = [a.end for a in chain]
    if any(s2 <= s1 for s1, s2 in zip(starts, starts[1:])):
        return False
    if any(e2 <= e1 for e1, e2 in zip(ends, ends[1:])):
        return False
    if starts[-1] > ends[0]:
        return False
    if starts[-1] == ends[0] and starts[-1] < 0:
        return False
    return True


def is_nesting_chain(arcs: Iterable[Arc]) -> bool:
    """True when the arcs nest strictly inside one another; only the
    innermost may degenerate to a loop."""
    chain = sorted(Arc(*a) for a in arcs)
    if not chain:
        return False
    if len(chain) == 1:
        return True
    starts = [a.start for a in chain]
    ends = [a.end for a in chain]
    if any(s2 <= s1 for s1, s2 in zip(starts, starts[1:])):
        return False
    if any(e2 >= e1 for e1, e2 in zip(ends, ends[1:])):
        return False
    return starts[-1] <= ends[-1]


def _chain_sizes(starts: list[int], ends: list[int]) -> tuple[int, int]:
    """(largest crossing chain, largest nesting chain) of arcs sorted by
    start, given as plain lists: the scalar reference for the batch
    kernel `_kernels.chain_stats_batch`, which shares no code with it.

    Ends are distinct, and each run below is patience sorting: `tops[i]`
    is the smallest last key of a strictly increasing run of length i + 1.
    Crossing: the first arc f of a chain has the smallest end, so the
    chain condition says every later arc starts no later than e_f (on a
    shared vertex only when it is positive) and ends beyond it; those
    arcs carry the longest rising run of ends.
    Nesting: starts rise with the index and a loop can only be innermost,
    so a nesting chain is a falling run of ends.
    """
    m = len(starts)
    best_cross = 0
    for f in range(m):
        ef = ends[f]
        tops: list[int] = []
        for g in range(f + 1, m):
            sg = starts[g]
            if sg > ef or (sg == ef and sg < 0):
                break
            eg = ends[g]
            if eg > ef:
                i = bisect_left(tops, eg)
                if i == len(tops):
                    tops.append(eg)
                else:
                    tops[i] = eg
        best_cross = max(best_cross, len(tops) + 1)
    tops = []
    for e in ends:
        i = bisect_left(tops, -e)
        if i == len(tops):
            tops.append(-e)
        else:
            tops[i] = -e
    return best_cross, len(tops)


def max_chain_sizes(x: SignedPermutation | UpperDiagram) -> tuple[int, int]:
    """(largest crossing chain, largest nesting chain)."""
    arcs = _as_diagram(x).sorted_arcs
    return _chain_sizes([a.start for a in arcs], [a.end for a in arcs])


def cro_star(x: SignedPermutation | UpperDiagram) -> int:
    return max_chain_sizes(x)[0]


def nes_star(x: SignedPermutation | UpperDiagram) -> int:
    return max_chain_sizes(x)[1]


def largest_crossing_chain(x: SignedPermutation | UpperDiagram) -> ChainWitness:
    """A maximal crossing chain, found by trying every arc subset,
    largest first; the first hit in subset order makes it deterministic."""
    arcs = _as_diagram(x).sorted_arcs
    for k in range(len(arcs), 0, -1):
        for subset in combinations(arcs, k):
            if is_crossing_chain(subset):
                return ChainWitness(ChainKind.CROSSING, subset)
    raise AssertionError("a diagram always has a single-arc chain")


def largest_nesting_chain(x: SignedPermutation | UpperDiagram) -> ChainWitness:
    """A maximal nesting chain, by the same exhaustive scan."""
    arcs = _as_diagram(x).sorted_arcs
    for k in range(len(arcs), 0, -1):
        for subset in combinations(arcs, k):
            if is_nesting_chain(subset):
                return ChainWitness(ChainKind.NESTING, subset)
    raise AssertionError("a diagram always has a single-arc chain")


def cro_star_brute(x: SignedPermutation | UpperDiagram) -> int:
    """Oracle for cro_star, independent of the DP."""
    return largest_crossing_chain(x).k


def nes_star_brute(x: SignedPermutation | UpperDiagram) -> int:
    """Oracle for nes_star, independent of the DP."""
    return largest_nesting_chain(x).k
