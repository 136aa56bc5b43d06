"""Parity between the array kernels and the object-level reference
implementations."""

import numpy as np
import pytest

from crossnest import _kernels as K
from crossnest import (
    cro,
    cro_star_brute,
    enumerate_bn,
    neg,
    nes,
    nes_star_brute,
    upper_diagram,
    wex,
)
from crossnest.enumeration import signed_values_batch


def reference_rows(n):
    # chain sizes from the subset oracles: the kernel shares its DP with
    # max_chain_sizes, so that would be no independent check
    rows = []
    for p in enumerate_bn(n):
        rows.append((cro(p), nes(p), wex(p), neg(p), cro_star_brute(p), nes_star_brute(p)))
    return np.array(rows, dtype=np.int64)


def test_upper_arcs_batch_matches_objects():
    for n in (1, 3, 4):
        vals = signed_values_batch(n)
        arcs = K.upper_arcs_batch(vals)
        for row, p in zip(arcs, enumerate_bn(n)):
            expected = sorted(upper_diagram(p).arcs)
            assert [tuple(a) for a in row] == [tuple(a) for a in expected]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_numpy_pair_stats_match_reference(n):
    arcs = K.upper_arcs_batch(signed_values_batch(n))
    ref = reference_rows(n)
    got = K.pair_stats_batch(arcs)
    assert (got == ref[:, :4]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_python_chain_stats_match_reference(n):
    arcs = K.upper_arcs_batch(signed_values_batch(n))
    ref = reference_rows(n)
    got = K.chain_stats_batch(arcs)
    assert (got == ref[:, 4:]).all()


def test_degree_table_counts():
    arcs = K.upper_arcs_batch(signed_values_batch(3))
    table = K.degree_table_batch(arcs)
    assert table.shape == (48, 6, 2)
    # every permutation has n in-slots and n out-slots
    assert (table[:, :, 0].sum(axis=1) == 3).all()
    assert (table[:, :, 1].sum(axis=1) == 3).all()
