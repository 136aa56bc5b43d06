"""Upper diagrams as 0/1 fillings of Young shapes, and the growth-diagram
involution that swaps the maximal chain statistics.

Write the closers of a diagram as i_1 < ... < i_c and the openers as
j_1 < ... < j_c (a transient or fixed vertex appears in both lists).
Give each closer i the width p(i) = number of openers joined by i under
`core._joined`: those left of i, plus i itself when it is a positive
vertex that is also an opener.  Stacking the
widths from the largest closer down yields a weakly decreasing shape;
the arc from opener j_s to closer i_r marks the cell in column s and
row c - r + 1.  Under this encoding a crossing chain of size k appears
as an anti-identity pattern of k cells whose spanning rectangle fits in
the shape, and a nesting chain as an identity pattern, so the maximal
chain statistics become pattern sizes in the filling.

The interchange map is Krattenthaler's growth-diagram bijection.  Corner
(r, c) is the bottom-right corner of cell (r, c); row 0 and column 0 are
the top and left edges.  Its label is the RSK shape of the 1s in rows
<= r and columns <= c, and Fomin's local rules compute the labels cell
by cell.  By Greene's theorem the first part of a label is the longest
identity pattern in its rectangle and the number of parts the longest
anti-identity.  A pattern obeys the rectangle condition exactly when it
lies in the rectangle of a corner on the outer border of the shape, so
the border labels carry both maximal sizes.  Transposing every border
label and rebuilding the filling with the backward rules trades the two
sizes.  The map keeps the shape and the row and column sums, and it is
an involution by construction.

Exact pattern-avoidance counting (Lemma 4.1) reads the same border
labels.  On fillings whose row and column sums are each 0 or 1, the
labels form a walk in Young's lattice from () to (): a step along a
column of sum 1 adds a box, a step along a row of sum 1 removes one,
and a step along an empty row or column stays put.  The walk determines
the filling, so one walk that carries each label with its running most
parts (anti-identity) and largest first part (identity) counts the
fillings by both pattern sizes at once; the avoiders of a size-k
pattern are the fillings whose size of that kind stays below k, which
`_avoiders` reads off that table for both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import NamedTuple, Sequence

from .core import (
    Arc,
    SignedPermutation,
    UpperDiagram,
    _int_token,
    _is_int,
    _joined,
    permutation_from_upper,
    upper_diagram,
)
from .errors import (
    CellOutsideShape,
    InconsistentGrowth,
    InfeasibleSums,
    MalformedToken,
    MissingDiagramLists,
    RowColumnSumViolation,
)

Cell = tuple[int, int]        # (row, column), 1-indexed, row 1 on top
Corner = tuple[int, int]      # bottom-right corner of cell (row, column)
Partition = tuple[int, ...]   # weakly decreasing positive parts


class ShapeData(NamedTuple):
    shape: tuple[int, ...]
    openers: tuple[int, ...]
    closers: tuple[int, ...]


def _is_shape(shape: tuple) -> bool:
    """A Young shape: a nonempty, weakly decreasing tuple of positive ints."""
    return (bool(shape) and all(_is_int(w) and w > 0 for w in shape)
            and all(a >= b for a, b in zip(shape, shape[1:])))


@dataclass(frozen=True)
class YoungFilling:
    """A 0/1 filling with one 1 per row and at most one per column.

    openers/closers record which diagram vertices the columns and rows
    stand for; fillings parsed from text lack them and support only the
    pattern operations, not the way back to a diagram.
    """

    shape: tuple[int, ...]
    ones: frozenset[Cell]
    openers: tuple[int, ...] | None = None
    closers: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        object.__setattr__(self, "ones", frozenset(self.ones))
        if not _is_shape(self.shape):
            raise CellOutsideShape(f"bad shape {self.shape}")
        rows_seen: set[int] = set()
        cols_seen: set[int] = set()
        for r, c in self.ones:
            if not (_is_int(r) and _is_int(c) and 1 <= r <= len(self.shape)
                    and 1 <= c <= self.shape[r - 1]):
                raise CellOutsideShape(f"cell ({r},{c}) outside shape {self.shape}")
            if r in rows_seen:
                raise RowColumnSumViolation(f"two 1s in row {r}")
            if c in cols_seen:
                raise RowColumnSumViolation(f"two 1s in column {c}")
            rows_seen.add(r)
            cols_seen.add(c)
        if len(rows_seen) != len(self.shape):
            raise RowColumnSumViolation("every row needs exactly one 1")
        if (self.openers is None) != (self.closers is None):
            raise MissingDiagramLists("openers and closers come together")
        if self.openers is not None:
            if len(self.openers) != len(self.shape) or len(self.closers) != len(self.shape):
                raise MissingDiagramLists("opener/closer lists must match the row count")


def young_shape(d: UpperDiagram) -> ShapeData:
    """Shape and vertex lists of the filling encoding of d."""
    openers = tuple(sorted(a.start for a in d.arcs))
    closers = tuple(sorted(a.end for a in d.arcs))
    shape = tuple(sum(_joined(j, i) for j in openers) for i in reversed(closers))
    return ShapeData(shape, openers, closers)


def xi(d: UpperDiagram) -> YoungFilling:
    """Encode a diagram as a filling: the arc j_s -> i_r fills the cell
    in column s and row c - r + 1."""
    shape, openers, closers = young_shape(d)
    col_of = {v: s for s, v in enumerate(openers, start=1)}
    row_of = {v: len(closers) - r + 1 for r, v in enumerate(closers, start=1)}
    ones = {(row_of[a.end], col_of[a.start]) for a in d.arcs}
    return YoungFilling(shape, frozenset(ones), openers, closers)


def xi_inverse(f: YoungFilling) -> UpperDiagram:
    """Rebuild the diagram from a filling that carries its vertex lists."""
    if f.openers is None or f.closers is None:
        raise MissingDiagramLists("this filling has no opener/closer lists")
    c = len(f.shape)
    arcs = set()
    for r, col in f.ones:
        arcs.add(Arc(f.openers[col - 1], f.closers[c - r]))
    n = max(abs(v) for v in f.openers)
    return UpperDiagram(n, frozenset(arcs))


class PatternKind(Enum):
    IDENTITY = "identity"            # rows grow with columns; nesting side
    ANTI_IDENTITY = "anti_identity"  # rows shrink as columns grow; crossing side


# --- growth diagrams --------------------------------------------------------

def _add_box(lam: Partition, row: int) -> Partition:
    if row == len(lam):
        return lam + (1,)
    return lam[:row] + (lam[row] + 1,) + lam[row + 1:]


def _remove_box(lam: Partition, row: int) -> Partition:
    rest = (lam[row] - 1,) if lam[row] > 1 else ()
    return lam[:row] + rest + lam[row + 1:]


def _grown_row(small: Partition, big: Partition) -> int:
    """Row of the box that big has over small."""
    for row, part in enumerate(small):
        if big[row] != part:
            return row
    return len(small)


def _covers(big: Partition, big_size: int, small: Partition) -> bool:
    """True when small is big or big minus one box; big_size is sum(big)."""
    return (
        len(small) <= len(big)
        and all(s <= b for s, b in zip(small, big))
        and big_size - sum(small) <= 1
    )


def _conjugate(lam: Partition) -> Partition:
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0])) if lam else ()


def forward_rule(lam: Partition, mu: Partition, nu: Partition, filled: bool) -> Partition:
    """Fomin's forward rule: the label of a cell's bottom-right corner from
    its top-left (lam), top-right (mu) and bottom-left (nu) labels and its
    entry.  A 1 adds a box to the first row; two equal growths bump the
    box one row down."""
    if filled:
        return _add_box(lam, 0)
    if mu != nu:
        return tuple(max(a, b) for a, b in zip_longest(mu, nu, fillvalue=0))
    if mu == lam:
        return lam
    return _add_box(mu, _grown_row(lam, mu) + 1)


def backward_rule(rho: Partition, mu: Partition, nu: Partition) -> tuple[Partition, bool]:
    """Inverse of forward_rule: the top-left label and the cell's entry
    from the bottom-right (rho), top-right (mu) and bottom-left (nu)
    labels.  Raises InconsistentGrowth when mu or nu is not rho or rho
    minus one box, which no filling produces."""
    size = sum(rho)
    if not (_covers(rho, size, mu) and _covers(rho, size, nu)):
        raise InconsistentGrowth(f"corner {rho} cannot sit below {mu} and right of {nu}")
    if mu != nu:
        return tuple(map(min, mu, nu)), False
    if mu == rho:
        return rho, False
    row = _grown_row(mu, rho)
    if row == 0:
        return mu, True
    return _remove_box(mu, row - 1), False


def growth_diagram(f: YoungFilling) -> dict[Corner, Partition]:
    """Label of every corner of the shape, edges included."""
    labels = {(0, c): () for c in range(f.shape[0] + 1)}
    for r, width in enumerate(f.shape, start=1):
        labels[r, 0] = ()
        for c in range(1, width + 1):
            labels[r, c] = forward_rule(
                labels[r - 1, c - 1], labels[r - 1, c], labels[r, c - 1], (r, c) in f.ones
            )
    return labels


def border_corners(shape: Sequence[int]) -> tuple[Corner, ...]:
    """Corners whose south-east cell lies outside the shape, from the
    bottom-left corner (len(shape), 0) to the top-right (0, shape[0])."""
    widths = (shape[0], *shape, 0)
    return tuple(
        (r, c)
        for r in range(len(shape), -1, -1)
        for c in range(widths[r + 1], widths[r] + 1)
    )


def growth_involution(f: YoungFilling) -> YoungFilling:
    """Transpose the border labels of f's growth diagram and rebuild the
    filling from them with the backward rules, bottom row first."""
    grown = growth_diagram(f)
    labels = {corner: _conjugate(grown[corner]) for corner in border_corners(f.shape)}
    ones = set()
    for r in range(len(f.shape), 0, -1):
        for c in range(f.shape[r - 1], 0, -1):
            labels[r - 1, c - 1], filled = backward_rule(
                labels[r, c], labels[r - 1, c], labels[r, c - 1]
            )
            if filled:
                ones.add((r, c))
    edges = [labels[r, 0] for r in range(len(f.shape) + 1)]
    edges += [labels[0, c] for c in range(f.shape[0] + 1)]
    if any(edges):
        raise InconsistentGrowth(f"rebuilding left a box on the top or left edge: {edges}")
    return YoungFilling(f.shape, frozenset(ones), f.openers, f.closers)


def max_chain_involution(p: SignedPermutation) -> SignedPermutation:
    """Swap the maximal crossing/nesting chain sizes through the filling
    encoding; degree sequence and negative-entry count ride along
    untouched because the shape and its vertex lists never change."""
    return permutation_from_upper(xi_inverse(growth_involution(xi(upper_diagram(p)))))


def filling_to_text(f: YoungFilling) -> str:
    """Shape line, then one "row,col" line per filled cell."""
    lines = [",".join(str(w) for w in f.shape)]
    lines.extend(f"{r},{c}" for r, c in sorted(f.ones))
    return "\n".join(lines) + "\n"


def parse_filling_text(text: str) -> YoungFilling:
    """Inverse of filling_to_text; the result has no vertex lists."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise CellOutsideShape("empty filling text")
    shape = tuple(map(_int_token, lines[0].split(",")))
    ones = set()
    for ln in lines[1:]:
        cell = tuple(map(_int_token, ln.split(",")))
        if len(cell) != 2:
            raise MalformedToken(f"cell line {ln!r} is not row,column")
        ones.add(cell)
    return YoungFilling(shape, frozenset(ones))


# --- exact pattern-avoidance counting ------------------------------------

def border_walks(
    shape: Sequence[int],
    row_sums: Sequence[int],
    col_sums: Sequence[int],
) -> dict[tuple[int, int], int]:
    """Number of 0/1 fillings of the shape with the prescribed row and
    column sums, each 0 or 1, by their (longest anti-identity, longest
    identity) pattern sizes.

    A walk along the border from the bottom-left corner to the top-right
    one adds a box at each column of sum 1 and removes a box at each row
    of sum 1.  These walks from () to () correspond one to one to the
    fillings; the labels are the filling's border labels, so by Greene's
    theorem the most parts along the walk is its longest anti-identity
    pattern and the largest first part its longest identity.  The count
    runs over (label, most parts, largest first part) states.
    """
    shape, row_sums, col_sums = tuple(shape), tuple(row_sums), tuple(col_sums)
    if not _is_shape(shape):
        raise InfeasibleSums(f"bad shape {shape}")
    if len(row_sums) != len(shape):
        raise InfeasibleSums("one row sum per row")
    if len(col_sums) != shape[0]:
        raise InfeasibleSums("one column sum per column")
    if not all(_is_int(s) and s in (0, 1) for s in row_sums + col_sums):
        raise InfeasibleSums("each row and column sum is an integer 0 or 1")
    if sum(row_sums) != sum(col_sums):
        raise InfeasibleSums("row and column totals differ")

    walks: dict[tuple[Partition, int, int], int] = {((), 0, 0): 1}
    corners = border_corners(shape)
    for (r, c), (next_r, _) in zip(corners, corners[1:]):
        grow = next_r == r    # a right step over column c+1, else up over row r
        if not (col_sums[c] if grow else row_sums[r - 1]):
            continue
        stepped: dict[tuple[Partition, int, int], int] = {}
        for (lam, parts, first), count in walks.items():
            padded = lam + (0,)
            if grow:
                moves = [_add_box(lam, i) for i in range(len(lam) + 1)
                         if i == 0 or padded[i - 1] > padded[i]]
                moves = [(mu, max(parts, len(mu)), max(first, mu[0])) for mu in moves]
            else:
                # removing a box never raises either maximum
                moves = [(_remove_box(lam, i), parts, first) for i in range(len(lam))
                         if padded[i] > padded[i + 1]]
            for state in moves:
                stepped[state] = stepped.get(state, 0) + count
        walks = stepped
    # the totals agree, so every walk left ends at ()
    return {(parts, first): count for (_, parts, first), count in walks.items()}


def _avoiders(table: dict[tuple[int, int], int], k: int) -> tuple[int, int]:
    """(identity, anti-identity) avoiders of size k in a `border_walks`
    table: the fillings whose largest first part, or most parts, is below k."""
    identity = sum(count for (_, first), count in table.items() if first < k)
    anti_identity = sum(count for (parts, _), count in table.items() if parts < k)
    return identity, anti_identity
