"""Array kernels for the exhaustive sweeps.

Enumerating all 2^n * n! signed permutations of a rank and computing
statistics for each one is the only hot loop in this package.  All four
kernels read one layout, the int8 arc table of `upper_arcs_batch`, shape
(P, n, 2), arcs sorted by start within each row; `enumeration` feeds
them blocks of about `BLOCK_ROWS` rows, so P stays small whatever the
rank.  A table is stored column-major: `arcs.T` is a contiguous
(2, n, P) array, whose row [k, a] holds the start (k = 0) or end of arc
a in every row; the maps' images keep that layout.  The stream's blocks
and the statistic tables are int8 (P, n) and (P, k) views of contiguous
(n, P) and (k, P) rows too.  `_sort_columns`, a
sorting network over such rows, is the kernels' one sort.  The pair
statistics take one step per arc, comparing it with every later arc at
once: a reduction over a (later arcs, P) slice of the table.  The chain
statistics take one step per arc too, as the last arc of a chain: each
step is one reduction over the steps before it, on int8 counters.  For
crossings it fills one row of an (n, n, P) table, the longest chain
from every earlier first arc to this last one; for nestings, one (n, P)
row.  Nestings read the ends alone, as starts rise along the table;
crossings also need the type-B join rule, `_joined`.  The two
involutions map arc tables to arc tables that keep every start, and so
the start order.
Both read the arcs in closing order, with each closer's row width (the
arcs joined by then), as `_closing_order`'s int8 (n, P) rows.  The pair
involution is the rank-mirror scan of `involution`, one closer per row
at each of n steps; each step is a few int8 reductions over the (n, P)
rows of the table.  The chain involution is the growth-diagram map of
`fillings`: Fomin's local rules, one cell of the n x n grid at a time,
on the labels of that cell's corners for every row.

The patience sorting and the subset brute-force oracles in `statistics`,
and the scalar `involution.crossing_nesting_involution` and
`fillings.max_chain_involution`, are the references these kernels are
tested against; they are deliberately not accelerated.
"""

from __future__ import annotations

import numpy as np

from .errors import Desynchronized, InconsistentGrowth, RankTooLarge


def _sort_columns(keys: np.ndarray) -> np.ndarray:
    """Sort an (n, ...) array along axis 0 in place and return it: an odd-even
    transposition network, whose n rounds each compare-exchange the pairs
    (0,1), (2,3), ... or (1,2), (3,4), ... of every column at once."""
    n = len(keys)
    for r in range(n):
        lo, hi = keys[r % 2:n - 1:2], keys[r % 2 + 1:n:2]
        lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)
    return keys


def _check_rank(n: int) -> None:
    """Raise RankTooLarge past rank 127, whose vertices int8 cannot hold."""
    if n > 127:
        raise RankTooLarge(f"rank {n} does not fit int8 arc tables (at most 127)")


def upper_arcs_batch(values: np.ndarray) -> np.ndarray:
    """int8 arc tables for a batch of one-line arrays, sorted by start.

    Magnitude i opens its arc at i when s(i) >= i and at -i otherwise, so
    its arc is sign * (i, s(i)).  Each arc is packed into the int16 key
    start << 8 | end and the keys are sorted column by column; starts are
    distinct, so the keys sort by start.  The stream's int8 (n, P) rows
    are read in place.  A rank above 127, whose vertices int8 cannot hold,
    raises RankTooLarge.
    """
    p, n = np.shape(values)
    _check_rank(n)
    V = np.ascontiguousarray(np.transpose(values), dtype=np.int8)
    idx = np.arange(1, n + 1, dtype=np.int8)[:, None]
    sign = (V >= idx).view(np.int8) * 2 - 1
    keys = _sort_columns((sign * idx).astype(np.int16) << 8 | (sign * V).view(np.uint8))
    table = np.stack([(keys >> 8).astype(np.int8), keys.astype(np.int8)])
    return table.transpose(2, 1, 0)


def one_line_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, n) int64 one-line arrays of arc tables, the inverse of
    `upper_arcs_batch`: the arc of magnitude i ends at s(i) when it starts
    at i, at -s(i) when it starts at -i."""
    starts, ends = np.moveaxis(arcs.astype(np.int64), 2, 0)
    values = np.zeros_like(starts)
    np.put_along_axis(values, np.abs(starts) - 1, np.sign(starts) * ends, axis=1)
    return values


def _joined(starts: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Whether arcs starting at `starts` have joined the open arcs when
    `vertex` closes: a positive vertex joins before it closes, a negative
    one after.  The kernels' one copy of the type-B join rule."""
    return (starts < vertex) | (starts == vertex) & (vertex > 0)

# --- pair statistics: cro, nes, wex, neg ---------------------------------

def pair_stats_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, 4) int8 table of (cro, nes, wex, neg), one arc at a time, a
    view of contiguous (4, P) rows, one per statistic.

    For arcs a < b in start order, b nests in a exactly when it ends
    first, and crosses a when it has joined by a's end and ends beyond it;
    each arc a counts both against all later arcs b in one reduction.
    All four count in int8, which holds the n(n-1)/2 pairs of cro and nes
    up to rank 16; a larger rank raises RankTooLarge.
    """
    # S[a] is the start of arc a in every row; no copy of a column-major table
    S, E = np.ascontiguousarray(arcs.T)
    n, p = S.shape
    if n > 16:
        raise RankTooLarge(f"rank {n} overflows the int8 cro/nes counters (at most 16)")
    cro = np.zeros(p, dtype=np.int8)
    nes = np.zeros(p, dtype=np.int8)
    for a in range(n):
        ea, later_s, later_e = E[a], S[a + 1:], E[a + 1:]
        nes += (later_e < ea).sum(axis=0, dtype=np.int8)
        cro += (_joined(later_s, ea) & (later_e > ea)).sum(axis=0, dtype=np.int8)
    wex = (S > 0).sum(axis=0, dtype=np.int8)
    neg = ((S < 0) & (E > 0)).sum(axis=0, dtype=np.int8)
    return np.stack([cro, nes, wex, neg]).T


# --- chain statistics: cro_star, nes_star --------------------------------

def chain_stats_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, 2) int8 table of (cro_star, nes_star), a view of contiguous
    (2, P) rows, by one pass over the arcs as the last arc of a chain.

    Crossing: the first arc f of a chain has the smallest end, so every
    later arc g of it has joined by e_f and ends beyond it.  run[g, f] is
    the longest such chain from f that ends at g, or 0 when g cannot
    follow f; its last step comes from the best earlier last arc h with a
    smaller end, so step g sets run[g, f] for every f < g at once from one
    maximum over the (h, f) slice run[:g, :g].
    Nesting: starts rise with the index and a loop can only be innermost,
    so a nesting chain is a falling run of ends; fall[g], the longest one
    that ends at g, is one more than the longest fall[h], h < g, with a
    larger end, or 1.
    Both count in int8, which holds a chain of all n arcs up to rank 127;
    a larger rank raises RankTooLarge.
    """
    S, E = np.ascontiguousarray(arcs.T)
    n, p = S.shape
    _check_rank(n)
    run = np.zeros((n, n, p), dtype=np.int8)
    fall = np.ones((n, p), dtype=np.int8)
    for g in range(1, n):
        best = (run[:g, :g] * (E[:g] < E[g])[:, None]).max(axis=0, initial=1)
        run[g, :g] = (_joined(S[g], E[:g]) & (E[g] > E[:g])) * (best + 1)
        fall[g] += (fall[:g] * (E[:g] > E[g])).max(axis=0)
    return np.stack([run.max(axis=(0, 1), initial=1), fall.max(axis=0)]).T


# --- the involutions: arcs in closing order ------------------------------

def _closing_order(arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs of each row of a (P, n, 2) table in the order they close.

    Three int8 (n, P) arrays laid out as the rows of `arcs.T`: order[t] is
    the index of the arc with the t-th smallest end, ends[t] is that end,
    and width[t] counts the arcs joined by then, the table's first width[t]
    as starts rise; read from the largest end down, the widths are
    `young_shape`'s rows.  All fit int8 up to rank 127, the maps' cap.
    """
    S, E = np.ascontiguousarray(arcs.T)
    # end << 8 | arc index: equal ends keep their arcs' order
    keys = _sort_columns(E.astype(np.int16) << 8 | np.arange(len(E), dtype=np.int16)[:, None])
    ends = (keys >> 8).astype(np.int8)
    # one (n, P) comparison per arc, no (n, n, P) array; counts add up in int8
    width = sum(_joined(S[a], ends).view(np.int8) for a in range(len(S)))
    return (keys & 0xFF).astype(np.int8), ends, width


def _arc_list(arcs: np.ndarray, row: int) -> str:
    """Row `row` of an arc table as its (start,end) pairs, for error
    messages: a broken row need not be a signed permutation, so its
    one-line form could hide the fault."""
    return "[" + ", ".join(f"({s},{e})" for s, e in arcs[row].tolist()) + "]"


def _check_joined(arcs: np.ndarray, error: type[Exception]) -> None:
    """Raise `error` on the first row with an arc not joined by its own end."""
    lost = ~_joined(*arcs.T)
    if lost.any():
        row = lost.any(axis=0).argmax()
        a = lost[:, row].argmax()
        raise error(f"row {_arc_list(arcs, row)}: closer {arcs[row, a, 1]}: "
                    f"partner {arcs[row, a, 0]} is not open")


def _check_image(arcs: np.ndarray, out: np.ndarray, error: type[Exception]) -> None:
    """Raise `error` on the first row whose image's starts or ends are not
    1..n in magnitude; an arc that never closes ends at 0."""
    magnitudes = np.arange(1, arcs.shape[1] + 1)[:, None, None]
    broken = (_sort_columns(np.abs(out).transpose(1, 2, 0)) != magnitudes).any(axis=(0, 1))
    if broken.any():
        row = broken.argmax()
        raise error(f"row {_arc_list(arcs, row)}: image {_arc_list(out, row)} "
                    "is not a signed permutation")


def pair_involution_batch(arcs: np.ndarray) -> np.ndarray:
    """The image under the pair map of a (P, n, 2) arc table, whose scalar
    reference is `involution.crossing_nesting_involution`.

    The same rank-mirror scan, one closer per row at each of n steps, in
    closing order; each step is a few int8 reductions over the contiguous
    (n, P) rows of the column-major table.  The image's open list is an
    (n, P) mask over the arcs, oldest first: the first width arcs of the
    table that still end at 0.  Closing arc b, the source's open arcs older
    than b are those a < b that end beyond it; with r of them, the image
    closes the (k-r)-th oldest of its k open arcs.  A rank above 127 raises
    RankTooLarge; a row with an arc that has not joined at its own end, or
    whose image's starts or ends are not 1..n in magnitude, raises
    Desynchronized.  A broken row may hold no open arc of rank k-r; then
    none closes, and the arc left open keeps image end 0 for that check.
    """
    n = arcs.shape[1]
    _check_rank(n)
    _check_joined(arcs, Desynchronized)
    order, ends, width = _closing_order(arcs)
    E = arcs.T[1]
    out = arcs.copy(order="K")
    image = out.T[1]
    image[...] = 0                    # an image arc ends at 0 until it closes
    idx = np.arange(n, dtype=np.int8)[:, None]
    for t in range(n):
        b, end = order[t], ends[t]
        r = ((E > end) & (idx < b)).sum(axis=0, dtype=np.int8)
        held = (idx < width[t]) & (image == 0)
        hit = held & (held.cumsum(axis=0, dtype=np.int8) == held.sum(axis=0, dtype=np.int8) - r)
        np.copyto(image, end, where=hit)
    _check_image(arcs, out, Desynchronized)
    return out


# --- the chain involution: growth diagrams on blocks ----------------------
#
# A label is a padded partition stored column-major, parts along axis -2
# and rows along the last axis, so that tests over a label's parts reduce
# over the short outer axis.  Parts are int8: at rank n no part exceeds
# n + 1, the number of parts kept.

def _conjugate(labels: np.ndarray) -> np.ndarray:
    """Conjugates of the (..., K, P) padded partitions."""
    k = labels.shape[-2]
    return np.stack([(labels > j).sum(axis=-2, dtype=labels.dtype) for j in range(k)], axis=-2)


def _forward_rule(lam: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                  filled: np.ndarray) -> np.ndarray:
    """`fillings.forward_rule` on (K, P) labels: unequal growths meet in
    their union, equal growths bump the box one row down (which keeps lam
    when nothing grew), and a 1 adds a box to row 0.  A 1 has no other 1
    in its row or column, so where it sits mu = nu = lam."""
    out = np.maximum(mu, nu)
    out[1:] += (mu == nu).all(axis=0) * (mu[:-1] - lam[:-1])
    out[0] += filled
    return out


def _backward_rule(rho: np.ndarray, mu: np.ndarray, nu: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`fillings.backward_rule` on (K, P) labels: (lam, filled, covered).
    Only where covered holds, that is where mu and nu are each rho or rho
    minus one box, are lam and filled meaningful."""
    size = rho.sum(axis=0, dtype=np.int16)
    covered = ((mu <= rho).all(axis=0) & (nu <= rho).all(axis=0)
               & (size - mu.sum(axis=0, dtype=np.int16) <= 1)
               & (size - nu.sum(axis=0, dtype=np.int16) <= 1))
    same = (mu == nu).all(axis=0)
    # equal growths: rho's box moves one row up out of mu, and from row 0
    # it leaves as the cell's 1
    lam = np.minimum(mu, nu)
    lam[:-1] -= same * (rho[1:] - mu[1:])
    return lam, same & (rho[0] != mu[0]), covered


def _partition(label: np.ndarray) -> tuple[int, ...]:
    return tuple(part for part in label.tolist() if part)


def theta_batch(arcs: np.ndarray) -> np.ndarray:
    """The image under the chain map of a (P, n, 2) arc table, whose
    scalar reference is `fillings.max_chain_involution`.

    Each row is encoded as the filling of `fillings.xi`: row r (1 on top)
    stands for the r-th largest closer, column c for arc c of the table,
    and each arc fills its closer's row in its own column.  Read from the
    last closer back, `_closing_order`'s (n, P) rows give each row's closer,
    the column of its 1 and its `young_shape` width, the arcs joined by then.
    The labels of all (n+1)^2 corners of the n x n grid, with n+1 parts
    each, grow by Fomin's forward rules; cells outside a row's shape hold
    no 1, so the labels on and inside the shape are the filling's own.
    Each corner row is conjugated as the backward rules reach it, bottom
    row first; a corner (r, c) keeps its conjugated label when
    c >= width(r+1), on or beyond the shape's outer border, and the rules
    rebuild the others right to left, each 1 ending its column's arc at
    its row's closer.  A rank above 127 raises RankTooLarge; an arc not
    joined at its own end, a corner that breaks the backward rules, a box
    left on the top or left edge, or an image that is not a signed
    permutation raises InconsistentGrowth.
    """
    p, n = arcs.shape[:2]
    _check_rank(n)
    _check_joined(arcs, InconsistentGrowth)
    order, ends, width = _closing_order(arcs)
    # row r + 1 closes at closers[r], has width[r] and its 1 in column[r]
    closers, width, column = ends[::-1], width[::-1], order[::-1] + 1
    labels = np.zeros((n + 1, n + 1, n + 1, p), dtype=np.int8)
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            labels[r, c] = _forward_rule(labels[r - 1, c - 1], labels[r - 1, c],
                                         labels[r, c - 1], column[r - 1] == c)
    labels[n] = _conjugate(labels[n])
    out = arcs.copy(order="K")
    out.T[1] = 0                      # an image arc ends at 0 until it closes
    for r in range(n - 1, -1, -1):
        labels[r] = _conjugate(labels[r])
        for c in range(n - 1, -1, -1):
            border = c >= width[r]
            rho, mu, nu = labels[r + 1, c + 1], labels[r, c + 1], labels[r + 1, c]
            lam, filled, covered = _backward_rule(rho, mu, nu)
            broken = ~border & ~covered
            if broken.any():
                row = broken.argmax()
                raise InconsistentGrowth(
                    f"row {_arc_list(arcs, row)}: corner ({r + 1},{c + 1}) "
                    f"{_partition(rho[:, row])} cannot sit below {_partition(mu[:, row])} "
                    f"and right of {_partition(nu[:, row])}")
            np.copyto(labels[r, c], lam, where=~border)
            np.copyto(out.T[1, c], closers[r], where=~border & filled)
    edges = labels[0].any(axis=(0, 1)) | labels[:, 0].any(axis=(0, 1))
    if edges.any():
        row = edges.argmax()
        raise InconsistentGrowth(f"row {_arc_list(arcs, row)}: "
                                 "rebuilding left a box on the top or left edge")
    _check_image(arcs, out, InconsistentGrowth)
    return out
