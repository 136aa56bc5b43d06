"""Array kernels for the exhaustive sweeps.

Enumerating all 2^n * n! signed permutations of a rank and computing
statistics for each one is the only hot loop in this package.  All four
kernels read one layout, the int8 arc table of `upper_arcs_batch`, shape
(P, n, 2), arcs sorted by start within each row; `enumeration` feeds
them blocks of about `BLOCK_ROWS` rows, so P stays small whatever the
rank.  The pair statistics loop over the n(n-1)/2 column pairs of the
table, each step a few operations on 1-D columns of length P; the chain
statistics are DPs over the same column pairs (and, for crossings, the
column triples between a chain's first arc and its last).  Nestings
read the ends alone, as starts rise along the table; crossings also need
the type-B join rule, `_joined`.  The two involutions map arc tables to
arc tables that keep every start, and so the start order.  Both read the
arcs in closing order from `_closing_order`, with each closer's row
width, the arcs joined by then.  The pair involution is the rank-mirror
scan of `involution`, one closer per row at each of n steps.  The chain
involution is the growth-diagram map of `fillings`: Fomin's local rules,
one cell of the n x n grid at a time, on the labels of that cell's
corners for every row.

The patience sorting and the subset brute-force oracles in `statistics`,
and the scalar `involution.crossing_nesting_involution` and
`fillings.max_chain_involution`, are the references these kernels are
tested against; they are deliberately not accelerated.
"""

from __future__ import annotations

import numpy as np

from .errors import Desynchronized, InconsistentGrowth, RankTooLarge


def upper_arcs_batch(values: np.ndarray) -> np.ndarray:
    """int8 arc tables for a batch of one-line arrays, sorted by start.

    Magnitude i opens its arc at -i or at i, so each row opens exactly n
    of the 2n vertex columns, and reading a row's open columns left to
    right lists its arcs in start order, with no sort.  A rank above 127,
    whose vertices int8 cannot hold, raises RankTooLarge.
    """
    p, n = np.shape(values)
    if n > 127:
        raise RankTooLarge(f"rank {n} does not fit int8 arc tables (at most 127)")
    values = np.asarray(values, dtype=np.int8)
    idx = np.arange(1, n + 1, dtype=np.int8)
    keep = values >= idx
    vertices = np.concatenate([-idx, idx])
    # column n - i for -i and n + i - 1 for i, up to 2n - 1, past int8
    cols = vertices.astype(np.int64) + n - (vertices > 0)
    opens = np.empty((p, 2 * n), dtype=bool)
    opens[:, cols] = np.concatenate([~keep, keep], axis=1)
    line = np.empty((p, 2 * n, 2), dtype=np.int8)   # the arc opening each column
    line[:, cols, 0] = vertices
    line[:, cols, 1] = np.concatenate([-values, values], axis=1)
    return line.reshape(-1, 2).take(np.flatnonzero(opens), axis=0).reshape(p, n, 2)


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
    """(P, 4) int64 table of (cro, nes, wex, neg), one column pair at a time.

    For arcs a < b in start order, b nests in a exactly when it ends
    first, and crosses a when it has joined by a's end and ends beyond it.
    cro and nes are counted in int8, which holds the n(n-1)/2 pairs up to
    rank 16; a larger rank raises RankTooLarge.
    """
    # column-major copies: S[a] is the start of arc a in every row
    S = np.ascontiguousarray(arcs[:, :, 0].T)
    E = np.ascontiguousarray(arcs[:, :, 1].T)
    n, p = S.shape
    if n > 16:
        raise RankTooLarge(f"rank {n} overflows the int8 cro/nes counters (at most 16)")
    cro = np.zeros(p, dtype=np.int8)
    nes = np.zeros(p, dtype=np.int8)
    for a in range(n):
        ea = E[a]
        for b in range(a + 1, n):
            nes += E[b] < ea
            cro += _joined(S[b], ea) & (E[b] > ea)
    wex = (S > 0).sum(axis=0, dtype=np.int64)
    neg = ((S < 0) & (E > 0)).sum(axis=0, dtype=np.int64)
    return np.stack([cro, nes, wex, neg], axis=1, dtype=np.int64)


# --- chain statistics: cro_star, nes_star --------------------------------

def chain_stats_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, 2) table of (cro_star, nes_star), by DPs over column pairs.

    Crossing: the first arc f of a chain has the smallest end, so every
    later arc g of it has joined by e_f and ends beyond it.  For each f,
    run[g] is the longest such chain from f that ends at g, or 0 when g
    cannot follow f; its last step comes from an h between them with a
    smaller end.
    Nesting: starts rise with the index and a loop can only be innermost,
    so a nesting chain is a falling run of ends; fall[g] is the longest
    one that ends at g.
    """
    S = np.ascontiguousarray(arcs[:, :, 0].T)
    E = np.ascontiguousarray(arcs[:, :, 1].T)
    n, p = S.shape
    cro_star = np.ones(p, dtype=np.int64)
    run = np.zeros((n, p), dtype=np.int64)
    for f in range(n):
        ef = E[f]
        for g in range(f + 1, n):
            sg, eg = S[g], E[g]
            best = np.ones(p, dtype=np.int64)
            for h in range(f + 1, g):
                np.maximum(best, run[h] * (E[h] < eg), out=best)
            allowed = _joined(sg, ef) & (eg > ef)
            run[g] = allowed * (best + 1)
            np.maximum(cro_star, run[g], out=cro_star)
    fall = np.ones((n, p), dtype=np.int64)
    for g in range(n):
        eg = E[g]
        for h in range(g):
            np.maximum(fall[g], (fall[h] + 1) * (E[h] > eg), out=fall[g])
    return np.stack([cro_star, fall.max(axis=0)], axis=1)


# --- the involutions: arcs in closing order ------------------------------

def _closing_order(arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs of each row of a (P, n, 2) table in the order they close.

    order[:, t] is the index of the arc with the t-th smallest end, ends[:, t]
    is that end, and width[:, t] counts the arcs that have joined by then.
    Starts rise along the table, so those are its first width[:, t] arcs;
    read from the largest end down, the widths are `young_shape`'s rows.
    """
    order = np.argsort(arcs[:, :, 1], axis=1, kind="stable")
    ends = np.take_along_axis(arcs[:, :, 1], order, axis=1)
    # one (P, n) comparison per arc, so no (P, n, n) array is built
    width = sum(_joined(arcs[:, a, None, 0], ends) for a in range(arcs.shape[1]))
    return order, ends, width


def _arc_list(arcs: np.ndarray, row: int) -> str:
    """Row `row` of an arc table as its (start,end) pairs, for error
    messages: a broken row need not be a signed permutation, so its
    one-line form could hide the fault."""
    return "[" + ", ".join(f"({s},{e})" for s, e in arcs[row].tolist()) + "]"


def _check_joined(arcs: np.ndarray, error: type[Exception]) -> None:
    """Raise `error` on the first row with an arc not joined by its own end."""
    lost = ~_joined(arcs[:, :, 0], arcs[:, :, 1])
    if lost.any():
        row, a = np.unravel_index(lost.argmax(), lost.shape)
        raise error(f"row {_arc_list(arcs, row)}: closer {arcs[row, a, 1]}: "
                    f"partner {arcs[row, a, 0]} is not open")


def _check_image(arcs: np.ndarray, out: np.ndarray, error: type[Exception]) -> None:
    """Raise `error` on the first row whose image's starts or ends are not
    1..n in magnitude; an arc that never closes ends at 0."""
    magnitudes = np.arange(1, arcs.shape[1] + 1)[:, None]
    broken = (np.sort(np.abs(out), axis=1) != magnitudes).any(axis=(1, 2))
    if broken.any():
        row = broken.argmax()
        raise error(f"row {_arc_list(arcs, row)}: image {_arc_list(out, row)} "
                    "is not a signed permutation")


def pair_involution_batch(arcs: np.ndarray) -> np.ndarray:
    """The image under the pair map of a (P, n, 2) arc table, whose scalar
    reference is `involution.crossing_nesting_involution`.

    The same rank-mirror scan, one closer per row at each of n steps, in
    closing order.  The image's open list is a (P, n) mask over the arcs,
    oldest first: the first width arcs of the table that still end at 0.
    Closing arc b, the source's open arcs older than b are those a < b
    that end beyond it; with r of them, the image closes the (k-r)-th
    oldest of its k open arcs.  A row with an arc that has not joined at
    its own end, or whose image's starts or ends are not 1..n in
    magnitude, raises Desynchronized.
    """
    _check_joined(arcs, Desynchronized)
    p, n = arcs.shape[:2]
    order, ends, width = _closing_order(arcs)
    rows, idx = np.arange(p), np.arange(n)
    out = arcs.copy()
    out[:, :, 1] = 0                  # an image arc ends at 0 until it closes
    for t in range(n):
        b, end = order[:, t], ends[:, t]
        r = ((arcs[:, :, 1] > end[:, None]) & (idx < b[:, None])).sum(axis=1)
        held = (idx < width[:, t, None]) & (out[:, :, 1] == 0)
        k = held.sum(axis=1)
        mirror = (held & (held.cumsum(axis=1) == (k - r)[:, None])).argmax(axis=1)
        out[rows, mirror, 1] = end
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
    last closer back, `_closing_order` gives the rows, the column of each
    row's 1, and each row's `young_shape` width: the arcs joined by then.
    The labels of all (n+1)^2 corners of the n x n grid, with n+1 parts
    each, grow by Fomin's forward rules; cells outside a row's shape hold
    no 1, so the labels on and inside the shape are the filling's own.
    Each corner row is conjugated as the backward rules reach it, bottom
    row first; a corner (r, c) keeps its conjugated label when
    c >= width(r+1), on or beyond the shape's outer border, and the rules
    rebuild the others right to left, each 1 ending its column's arc at
    its row's closer.  An arc not joined at its own end, a corner that
    breaks the backward rules, a box left on the top or left edge, or an
    image that is not a signed permutation raises InconsistentGrowth.
    """
    p, n = arcs.shape[:2]
    _check_joined(arcs, InconsistentGrowth)
    order, ends, width = _closing_order(arcs)
    # row r + 1 closes at closers[:, r], its width is width[:, r], and its
    # 1 sits in column[:, r]
    closers, width, column = ends[:, ::-1], width[:, ::-1], order[:, ::-1] + 1
    labels = np.zeros((n + 1, n + 1, n + 1, p), dtype=np.int8)
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            labels[r, c] = _forward_rule(labels[r - 1, c - 1], labels[r - 1, c],
                                         labels[r, c - 1], column[:, r - 1] == c)
    labels[n] = _conjugate(labels[n])
    out = arcs.copy()
    out[:, :, 1] = 0                  # an image arc ends at 0 until it closes
    for r in range(n - 1, -1, -1):
        labels[r] = _conjugate(labels[r])
        for c in range(n - 1, -1, -1):
            border = c >= width[:, r]
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
            np.copyto(out[:, c, 1], closers[:, r], where=~border & filled)
    edges = labels[0].any(axis=(0, 1)) | labels[:, 0].any(axis=(0, 1))
    if edges.any():
        row = edges.argmax()
        raise InconsistentGrowth(f"row {_arc_list(arcs, row)}: "
                                 "rebuilding left a box on the top or left edge")
    _check_image(arcs, out, InconsistentGrowth)
    return out
