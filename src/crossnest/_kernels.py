"""Array kernels for the exhaustive sweeps.

Enumerating all 2^n * n! signed permutations of a rank and computing
statistics for each one is the only hot loop in this package.  The
kernels here work on int64 arc tables of shape (P, n, 2), arcs sorted
by start within each row; `enumeration` feeds them blocks of about
`BLOCK_ROWS` rows, so P stays small whatever the rank.  The pair
statistics loop over the n(n-1)/2 column pairs of the table, each step
a few operations on 1-D columns of length P; the chain statistics run
the DP of `statistics` row by row, on plain lists.

The subset brute-force oracles in `statistics` are deliberately not
accelerated; they exist to check these kernels, not to race them.
"""

from __future__ import annotations

import numpy as np

from .statistics import _chain_sizes


def upper_arcs_batch(values: np.ndarray) -> np.ndarray:
    """Arc tables for a batch of one-line arrays, sorted by start.

    values[p, i-1] = s(i); the arc for magnitude i starts at i when
    s(i) >= i and at -i otherwise.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.shape[1]
    idx = np.arange(1, n + 1, dtype=np.int64)
    keep = values >= idx
    starts = np.where(keep, idx, -idx)
    ends = np.where(keep, values, -values)
    arcs = np.stack([starts, ends], axis=-1)
    order = np.argsort(arcs[:, :, 0], axis=1)
    return np.take_along_axis(arcs, order[:, :, None], axis=1)


# --- pair statistics: cro, nes, wex, neg ---------------------------------

def pair_stats_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, 4) table of (cro, nes, wex, neg), one column pair at a time.

    For arcs a < b in start order, with b starting inside a: they cross
    when b ends beyond a and nest when it ends inside a.  When b starts
    where a ends, they cross exactly when that shared vertex is positive.
    """
    # column-major copies: S[a] is the start of arc a in every row
    S = np.ascontiguousarray(arcs[:, :, 0].T)
    E = np.ascontiguousarray(arcs[:, :, 1].T)
    n, p = S.shape
    cro = np.zeros(p, dtype=np.int64)
    nes = np.zeros(p, dtype=np.int64)
    for a in range(n):
        ea = E[a]
        for b in range(a + 1, n):
            sb, eb = S[b], E[b]
            inside = sb < ea
            beyond = eb > ea
            cro += inside & beyond
            nes += inside & ~beyond
            cro += (sb == ea) & (sb > 0)
    wex = (S > 0).sum(axis=0, dtype=np.int64)
    neg = ((S < 0) & (E > 0)).sum(axis=0, dtype=np.int64)
    return np.stack([cro, nes, wex, neg], axis=1)


# --- chain statistics: cro_star, nes_star --------------------------------

def chain_stats_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, 2) table of (cro_star, nes_star); rows are converted to lists
    one at a time so the batch is never held as Python objects."""
    out = np.empty((arcs.shape[0], 2), dtype=np.int64)
    for r in range(arcs.shape[0]):
        out[r] = _chain_sizes(arcs[r, :, 0].tolist(), arcs[r, :, 1].tolist())
    return out

