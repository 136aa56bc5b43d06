"""Crossing/nesting pair counts and maximal chain statistics.

Two upper arcs fall into exactly one of five patterns: proper crossing,
skew crossing (they share a vertex, end of one = start of the other),
proper nesting, skew nesting (an arc over a loop), or alignment.  The
type-B twist is in the signs, and all of it is the join rule
`core._joined`: a later arc crosses an earlier one only if it has joined
by the earlier arc's end, so a shared vertex counts as a crossing only
when it is positive.  Only positive fixed vertices carry the loop that
makes coverage a nesting.  With those conventions the crossing and
nesting numbers are plain pattern counts over arc pairs.

Chains generalise pairs: a k-crossing is k arcs with both endpoints
strictly increasing and every arc joined by every end; a k-nesting is k
arcs nested strictly inside one another, innermost possibly a loop.
Maximal chain sizes are computed three ways, so each can check the
others: by patience sorting over one diagram here (`max_chain_sizes`),
by brute force over arc subsets here (`largest_crossing_chain` and
`largest_nesting_chain` return the first maximal chain found, as a
start-sorted tuple of arcs), and by a DP over the arc columns of a
whole batch in `_kernels.chain_stats_batch`, which the sweeps use.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import combinations
from typing import Callable, Iterable

from .core import Arc, SignedPermutation, UpperDiagram, _arc, _as_diagram, _joined
from .errors import InconsistentDiagram, SameArc


class PairKind(Enum):
    PROPER_CROSSING = "proper_crossing"
    SKEW_CROSSING = "skew_crossing"
    PROPER_NESTING = "proper_nesting"
    SKEW_NESTING = "skew_nesting"
    ALIGNMENT = "alignment"


def classify_pair(a: Arc, b: Arc) -> PairKind:
    """Classify two distinct arcs of one diagram; arcs that share a start
    or an end belong to no diagram and raise InconsistentDiagram, as does
    an argument that is not a (start, end) pair of ints.

    Arcs are compared after ordering by start.  The later arc lines up
    with the earlier one unless it has joined by the earlier one's end;
    then it nests when it ends first (skew over a loop) and crosses when
    it ends beyond (skew on a shared vertex, necessarily positive).
    """
    a, b = _arc(a), _arc(b)
    if a == b:
        raise SameArc(f"cannot classify arc {a} against itself")
    first, second = sorted((a, b))
    u1, v1 = first
    u2, v2 = second
    if u1 == u2 or v1 == v2:
        raise InconsistentDiagram(f"arcs {first} and {second} share a start or an end")
    if not _joined(u2, v1):
        return PairKind.ALIGNMENT
    if v2 < v1:
        return PairKind.SKEW_NESTING if second.is_loop else PairKind.PROPER_NESTING
    return PairKind.SKEW_CROSSING if u2 == v1 else PairKind.PROPER_CROSSING


def pair_kind_counts(x: SignedPermutation | UpperDiagram) -> dict[PairKind, int]:
    d = _as_diagram(x)
    counts = {kind: 0 for kind in PairKind}
    for a, b in combinations(d.sorted_arcs, 2):
        counts[classify_pair(a, b)] += 1
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


def is_crossing_chain(arcs: Iterable[Arc]) -> bool:
    """True when the arcs form a crossing chain: starts strictly
    increasing, ends strictly increasing, and the last arc joined by the
    first end, so that every arc has joined by every end."""
    chain = sorted(map(_arc, arcs))
    if len(chain) < 2:
        return bool(chain)
    return (all(s1 < s2 and e1 < e2 for (s1, e1), (s2, e2) in zip(chain, chain[1:]))
            and _joined(chain[-1].start, chain[0].end))


def is_nesting_chain(arcs: Iterable[Arc]) -> bool:
    """True when the arcs nest strictly inside one another; only the
    innermost may degenerate to a loop."""
    chain = sorted(map(_arc, arcs))
    if len(chain) < 2:
        return bool(chain)
    return (all(s1 < s2 and e1 > e2 for (s1, e1), (s2, e2) in zip(chain, chain[1:]))
            and chain[-1].start <= chain[-1].end)


def _chain_sizes(starts: list[int], ends: list[int]) -> tuple[int, int]:
    """(largest crossing chain, largest nesting chain) of arcs sorted by
    start, given as plain lists: the scalar reference for the batch
    kernel `_kernels.chain_stats_batch`, which shares no code with it.

    Ends are distinct, and each run below is patience sorting: `tops[i]`
    is the smallest last key of a strictly increasing run of length i + 1.
    Crossing: the first arc f of a chain has the smallest end, so the
    chain condition says every later arc has joined by e_f and ends
    beyond it; those arcs carry the longest rising run of ends.
    Nesting: starts rise with the index and a loop can only be innermost,
    so a nesting chain is a falling run of ends.
    """
    m = len(starts)
    best_cross = 0
    for f in range(m):
        ef = ends[f]
        tops: list[int] = []
        for g in range(f + 1, m):
            if not _joined(starts[g], ef):
                break
            eg = ends[g]
            if eg > ef:
                i = bisect_left(tops, eg)
                tops[i:i + 1] = [eg]    # replace tops[i], or append when i == len(tops)
        best_cross = max(best_cross, len(tops) + 1)
    tops = []
    for e in ends:
        i = bisect_left(tops, -e)
        tops[i:i + 1] = [-e]
    return best_cross, len(tops)


def max_chain_sizes(x: SignedPermutation | UpperDiagram) -> tuple[int, int]:
    """(largest crossing chain, largest nesting chain)."""
    arcs = _as_diagram(x).sorted_arcs
    return _chain_sizes([a.start for a in arcs], [a.end for a in arcs])


def cro_star(x: SignedPermutation | UpperDiagram) -> int:
    return max_chain_sizes(x)[0]


def nes_star(x: SignedPermutation | UpperDiagram) -> int:
    return max_chain_sizes(x)[1]


def _largest_chain(x: SignedPermutation | UpperDiagram,
                   is_chain: Callable[[Iterable[Arc]], bool]) -> tuple[Arc, ...]:
    """The first arc subset that `is_chain` accepts, trying every subset,
    largest first; subset order makes it deterministic and start-sorted."""
    arcs = _as_diagram(x).sorted_arcs
    for k in range(len(arcs), 0, -1):
        for subset in combinations(arcs, k):
            if is_chain(subset):
                return subset
    raise AssertionError("a diagram always has a single-arc chain")


def largest_crossing_chain(x: SignedPermutation | UpperDiagram) -> tuple[Arc, ...]:
    """A maximal crossing chain, by exhaustive search over arc subsets."""
    return _largest_chain(x, is_crossing_chain)


def largest_nesting_chain(x: SignedPermutation | UpperDiagram) -> tuple[Arc, ...]:
    """A maximal nesting chain, by the same exhaustive search."""
    return _largest_chain(x, is_nesting_chain)


def cro_star_brute(x: SignedPermutation | UpperDiagram) -> int:
    """Oracle for cro_star, independent of the DP."""
    return len(largest_crossing_chain(x))


def nes_star_brute(x: SignedPermutation | UpperDiagram) -> int:
    """Oracle for nes_star, independent of the DP."""
    return len(largest_nesting_chain(x))
