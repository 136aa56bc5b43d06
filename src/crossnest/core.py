"""Signed permutations and their symmetric arc diagrams.

A signed permutation of rank n is a sequence (s(1), ..., s(n)) whose
magnitudes are a permutation of 1..n; it extends to negative arguments
by s(-i) = -s(i).  Place the vertices -n, ..., -1, 1, ..., n on a line
in natural integer order and draw the arc i -> s(i) above the line
whenever i <= s(i).  The resulting set of upper arcs determines the
permutation, so it is the canonical combinatorial model here: exactly
one arc per magnitude, loops only at positive fixed vertices (a fixed
negative vertex stays bare and counts as isolated).

Scanning the vertices left to right, an arc joins the open arcs at its
start: a positive vertex joins before it closes, a negative one after.
`_joined` states that type-B join rule once for the scalar layer, and
`statistics` and `fillings` read every shared vertex through it; the
array kernels keep their own copy, `_kernels._joined`, so each layer
checks the other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import (
    InconsistentDiagram,
    IndexOutOfRange,
    MalformedToken,
    RankViolation,
    ZeroEntry,
)


def _is_int(v) -> bool:
    """An int that is not a bool: the one integer test of every input guard."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_token(token: str) -> int:
    """One text token as an int, the one token rule of every text input:
    surrounding spaces, an optional sign and ASCII digits, else MalformedToken."""
    token = token.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise MalformedToken(f"token {token!r} is not an integer")
    return int(token)


def _check_vertex(v, n: int) -> None:
    if not _is_int(v) or v == 0 or abs(v) > n:
        raise IndexOutOfRange(f"vertex {v} not in [-{n}, {n}] \\ {{0}}")


class Arc(NamedTuple):
    """One upper arc.  start <= end always; start == end is a loop."""

    start: int
    end: int

    @property
    def is_loop(self) -> bool:
        return self.start == self.end

    def __str__(self) -> str:
        return f"({self.start},{self.end})"


def _arc(a) -> Arc:
    """`a` as an Arc: the one shape and vertex type check of every arc
    input; anything but a (start, end) pair of ints raises
    InconsistentDiagram."""
    try:
        start, end = a
    except (TypeError, ValueError):
        raise InconsistentDiagram(f"arc {a!r} is not a (start, end) pair") from None
    for v in (start, end):
        if not _is_int(v):
            raise InconsistentDiagram(f"vertex {v!r} is not an integer")
    return Arc(start, end)


@dataclass(frozen=True)
class SignedPermutation:
    """One-line form (s(1), ..., s(n)); the mirror half is never stored."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise RankViolation("a signed permutation has rank at least 1")
        for v in self.values:
            if not _is_int(v):
                raise MalformedToken(f"entry {v!r} is not an integer")
            if v == 0:
                raise ZeroEntry("0 is not a vertex")
        n = len(self.values)
        if sorted(abs(v) for v in self.values) != list(range(1, n + 1)):
            raise RankViolation(
                f"magnitudes must be 1..{n} exactly once, got {self.values}"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    def __iter__(self):
        return iter(self.values)


def identity(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)))


def parse_permutation(text: str) -> SignedPermutation:
    """Parse comma-separated one-line notation, e.g. "4,-6,3,5,1,-2".

    Surrounding parentheses and whitespace are tolerated.
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    if not stripped:
        raise MalformedToken("empty permutation text")
    return SignedPermutation(tuple(map(_int_token, stripped.split(","))))


def vertices(n: int) -> tuple[int, ...]:
    """All 2n vertices in natural order: -n, ..., -1, 1, ..., n."""
    return tuple(range(-n, 0)) + tuple(range(1, n + 1))


def sigma_at(p: SignedPermutation, i: int) -> int:
    """Value of the extended permutation at any vertex of [-n, n]."""
    _check_vertex(i, p.n)
    if i > 0:
        return p.values[i - 1]
    return -p.values[-i - 1]


@dataclass(frozen=True)
class UpperDiagram:
    """The set of arcs above the line, one per magnitude."""

    n: int
    arcs: frozenset[Arc]

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise InconsistentDiagram(f"rank {self.n!r} is not an integer >= 1")
        object.__setattr__(self, "arcs", frozenset(map(_arc, self.arcs)))
        starts: set[int] = set()
        ends: set[int] = set()
        for a in self.arcs:
            for v in a:
                if v == 0 or abs(v) > self.n:
                    raise InconsistentDiagram(f"vertex {v} out of range for n={self.n}")
            if a.start > a.end:
                raise InconsistentDiagram(f"arc {a} runs right to left")
            if a.is_loop and a.start < 0:
                raise InconsistentDiagram(f"loop {a} at a negative vertex")
            if a.start in starts:
                raise InconsistentDiagram(f"two arcs start at {a.start}")
            if a.end in ends:
                raise InconsistentDiagram(f"two arcs end at {a.end}")
            starts.add(a.start)
            ends.add(a.end)
        if len(self.arcs) != self.n:
            raise InconsistentDiagram(
                f"expected {self.n} arcs, got {len(self.arcs)}"
            )

    @property
    def sorted_arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(self.arcs))


def upper_diagram(p: SignedPermutation) -> UpperDiagram:
    """Upper arcs of p: for each i in 1..n the arc from i if s(i) >= i,
    otherwise the mirrored arc from -i.  Loops at negative vertices never
    arise because a fixed point contributes its loop on the positive side.
    """
    arcs = []
    for i, v in enumerate(p.values, start=1):
        if v >= i:
            arcs.append(Arc(i, v))
        else:
            arcs.append(Arc(-i, -v))
    return UpperDiagram(p.n, frozenset(arcs))


def permutation_from_upper(d: UpperDiagram) -> SignedPermutation:
    """Invert upper_diagram.  For each i, exactly one of i, -i must start
    an arc; anything else cannot come from a signed permutation.
    """
    out = {a.start: a for a in d.arcs}
    values = []
    for i in range(1, d.n + 1):
        pos, neg = out.get(i), out.get(-i)
        if pos is not None and neg is not None:
            raise InconsistentDiagram(f"arcs start at both {i} and {-i}")
        if pos is not None:
            values.append(pos.end)
        elif neg is not None:
            values.append(-neg.end)
        else:
            raise InconsistentDiagram(f"no arc starts at {i} or {-i}")
    try:
        return SignedPermutation(tuple(values))
    except (RankViolation, ZeroEntry) as exc:
        raise InconsistentDiagram(str(exc)) from exc


def _joined(start: int, vertex: int) -> bool:
    """Whether an arc starting at `start` has joined the open arcs when
    `vertex` closes: a positive vertex joins before it closes, a negative
    one after."""
    return start < vertex or start == vertex > 0


class VertexKind(Enum):
    ISOLATED = "isolated"      # degree (0,0)
    OPENER = "opener"          # degree (0,1)
    CLOSER = "closer"          # degree (1,0)
    TRANSIENT = "transient"    # degree (1,1) through two arcs
    FIXED = "fixed"            # degree (1,1) through a loop


@dataclass(frozen=True)
class DegreeSequence:
    """Per-vertex (indegree, outdegree) pairs in vertex order.

    A loop contributes (1,1) to its vertex, so fixed and transient
    vertices are indistinguishable at this level; that coarseness is
    deliberate, it is the grouping key for the per-class symmetry check.
    """

    n: int
    entries: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.entries)


def _as_diagram(x: SignedPermutation | UpperDiagram) -> UpperDiagram:
    if isinstance(x, UpperDiagram):
        return x
    return upper_diagram(x)


def degree_sequence(x: SignedPermutation | UpperDiagram) -> DegreeSequence:
    d = _as_diagram(x)
    indeg = {v: 0 for v in vertices(d.n)}
    outdeg = {v: 0 for v in vertices(d.n)}
    for a in d.arcs:
        outdeg[a.start] += 1
        indeg[a.end] += 1
    entries = tuple((indeg[v], outdeg[v]) for v in vertices(d.n))
    return DegreeSequence(d.n, entries)


def vertex_kind(d: UpperDiagram, v: int) -> VertexKind:
    _check_vertex(v, d.n)
    has_out = any(a.start == v for a in d.arcs)
    has_in = any(a.end == v for a in d.arcs)
    if has_out and has_in:
        return VertexKind.FIXED if Arc(v, v) in d.arcs else VertexKind.TRANSIENT
    if has_out:
        return VertexKind.OPENER
    if has_in:
        return VertexKind.CLOSER
    return VertexKind.ISOLATED


def neg(p: SignedPermutation) -> int:
    """Number of negative entries in one-line form.  Diagram reading:
    the arcs running from a negative vertex to a positive one."""
    return sum(1 for v in p.values if v < 0)


def wex(p: SignedPermutation) -> int:
    """Number of weak exceedances, positions j with s(j) >= j.  Diagram
    reading: the arcs whose start is positive."""
    return sum(1 for j, v in enumerate(p.values, start=1) if v >= j)
