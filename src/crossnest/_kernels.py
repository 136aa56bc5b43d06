"""Array kernels for the exhaustive sweeps.

Enumerating all 2^n * n! signed permutations of a rank and computing
statistics for each one is the only hot loop in this package.  The
kernels here work on int64 arc tables of shape (P, n, 2), arcs sorted
by start within each row.  The pair statistics are vectorised over arc
pairs in numpy; the chain statistics run the DP of `statistics` row by
row, on plain lists.

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
    """(P, 4) table of (cro, nes, wex, neg), vectorised over pairs."""
    S = arcs[:, :, 0]
    E = arcs[:, :, 1]
    n = S.shape[1]
    v1 = E[:, :, None]           # earlier arc (smaller start) on axis 1
    u2 = S[:, None, :]
    v2 = E[:, None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)[None, :, :]
    shared = v1 == u2
    crossing = np.where(
        shared,
        u2 > 0,
        (u2 < v1) & (v2 > v1),
    )
    nesting = (~shared) & (u2 < v1) & (v2 < v1)
    cro = (crossing & upper).sum(axis=(1, 2))
    nes = (nesting & upper).sum(axis=(1, 2))
    wex = (S > 0).sum(axis=1)
    neg = ((S < 0) & (E > 0)).sum(axis=1)
    return np.stack([cro, nes, wex, neg], axis=1).astype(np.int64)


# --- chain statistics: cro_star, nes_star --------------------------------

def chain_stats_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, 2) table of (cro_star, nes_star); rows are converted to lists
    one at a time so the batch is never held as Python objects."""
    out = np.empty((arcs.shape[0], 2), dtype=np.int64)
    for r in range(arcs.shape[0]):
        out[r] = _chain_sizes(arcs[r, :, 0].tolist(), arcs[r, :, 1].tolist())
    return out


# --- degree keys ----------------------------------------------------------

def degree_table_batch(arcs: np.ndarray) -> np.ndarray:
    """(P, 2n, 2) of per-vertex (indegree, outdegree), vertex order
    -n..-1,1..n."""
    p, n, _ = arcs.shape
    starts = arcs[:, :, 0]
    ends = arcs[:, :, 1]

    def slot(v):
        return np.where(v < 0, v + n, v + n - 1)

    table = np.zeros((p, 2 * n, 2), dtype=np.int8)
    rows = np.repeat(np.arange(p), n)
    table[rows, slot(ends).ravel(), 0] = 1
    table[rows, slot(starts).ravel(), 1] = 1
    return table
