"""Plain-search oracles.

`stat_table` holds every statistic of every permutation of a rank, from
the object-level functions and the brute-force chain searches; the tests
check the array kernels and the sweep against it.  `argsort_arcs` builds
the arc tables by an argsort of each row's starts, the order that the
sorting network of `_kernels.upper_arcs_batch` must reproduce.  The
filling oracles share no code with the growth diagrams: a longest-chain
DP over the filled cells, and a row-by-row backtracking count of the
fillings that avoid a pattern.  The tests check the border labels and
the border-walk count of `crossnest.fillings` against them.
"""

import functools
from itertools import combinations

import numpy as np

from crossnest import (
    PatternKind,
    cro,
    cro_star_brute,
    enumerate_bn,
    neg,
    nes,
    nes_star_brute,
    wex,
)

STAT_COLUMNS = ("cro", "nes", "wex", "neg", "cro_star", "nes_star")


@functools.cache
def stat_table(n):
    """One row of STAT_COLUMNS per rank-n permutation, in enumerate_bn
    order; built once per rank and shared by the tests, so it is read-only."""
    table = np.array([
        (cro(p), nes(p), wex(p), neg(p), cro_star_brute(p), nes_star_brute(p))
        for p in enumerate_bn(n)
    ], dtype=np.int64)
    table.flags.writeable = False
    return table


def argsort_arcs(values):
    """int64 (P, n, 2) arc tables of one-line arrays: the arc of magnitude
    i is (i, s(i)) when s(i) >= i and (-i, -s(i)) otherwise, and each
    row's arcs are reordered by an argsort of their starts."""
    values = np.asarray(values, dtype=np.int64)
    idx = np.arange(1, values.shape[1] + 1)
    keep = values >= idx
    arcs = np.stack([np.where(keep, idx, -idx), np.where(keep, values, -values)], axis=-1)
    order = np.argsort(arcs[:, :, 0], axis=1)
    return np.take_along_axis(arcs, order[:, :, None], axis=1)


def max_pattern_size(cells, shape, kind):
    """Size of the largest pattern among arbitrary cells, by a longest-chain
    DP that knows nothing of growth diagrams."""
    cs = sorted(cells, key=lambda rc: (rc[1], rc[0]))
    m = len(cs)
    if m == 0:
        return 0
    if kind is PatternKind.IDENTITY:
        top = [1] * m
        for j in range(m):
            rj, cj = cs[j]
            for i in range(j):
                ri, ci = cs[i]
                if ci < cj and ri < rj:
                    top[j] = max(top[j], top[i] + 1)
        return max(top)
    best = 1
    for first in range(m):
        r0, c0 = cs[first]
        limit = shape[r0 - 1]
        top = [0] * m
        top[first] = 1
        for j in range(first + 1, m):
            rj, cj = cs[j]
            if cj > limit or cj <= c0 or rj >= r0:
                continue
            top[j] = 2
            for i in range(first + 1, j):
                ri, ci = cs[i]
                if top[i] and ci < cj and ri > rj:
                    top[j] = max(top[j], top[i] + 1)
        best = max(best, max(top))
    return best


def backtracking_avoiders(shape, row_sums, col_sums, k, kind):
    """Number of 0/1 fillings with the prescribed row and column sums
    containing no pattern of size k, by backtracking over rows."""
    remaining = list(col_sums)
    cells = []
    total = 0

    def place(r):
        nonlocal total
        # occurrences only grow as cells are added, so prune early
        if max_pattern_size(cells, shape, kind) >= k:
            return
        if r > len(shape):
            if all(v == 0 for v in remaining):
                total += 1
            return
        open_cols = [c for c in range(1, shape[r - 1] + 1) if remaining[c - 1] > 0]
        for chosen in combinations(open_cols, row_sums[r - 1]):
            for c in chosen:
                remaining[c - 1] -= 1
                cells.append((r, c))
            place(r + 1)
            for c in chosen:
                remaining[c - 1] += 1
                cells.pop()

    place(1)
    return total
