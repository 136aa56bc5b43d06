"""Parity between the array kernels and the object-level reference
implementations."""

import hashlib

import numpy as np
import pytest

from goldens import PAIR_IMAGES_SHA256, THETA_IMAGES_SHA256
from oracles import argsort_arcs, stat_table

from crossnest import _kernels as K
from crossnest import (
    cro,
    crossing_nesting_involution,
    enumerate_bn,
    max_chain_involution,
    max_crossing_witness,
    neg,
    nes,
    upper_diagram,
    wex,
    xi,
    young_shape,
)
from crossnest.enumeration import (
    MAX_ENUM_RANK,
    _signed_value_blocks,
    _stat_radix,
    signed_values_batch,
)
from crossnest.errors import Desynchronized, InconsistentGrowth, RankTooLarge
from crossnest.statistics import _chain_sizes


def test_upper_arcs_batch_matches_objects():
    for n in (1, 3, 4):
        vals = signed_values_batch(n)
        arcs = K.upper_arcs_batch(vals)
        for row, p in zip(arcs, enumerate_bn(n)):
            expected = sorted(upper_diagram(p).arcs)
            assert [tuple(a) for a in row] == [tuple(a) for a in expected]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_upper_arcs_batch_matches_argsort_oracle(n):
    for values in _signed_value_blocks(n):
        arcs = K.upper_arcs_batch(values)
        assert arcs.dtype == np.int8
        assert np.array_equal(arcs, argsort_arcs(values))
    assert K.pair_stats_batch(arcs).dtype == np.int64
    assert K.chain_stats_batch(arcs).dtype == np.int64


def test_int8_counts_hold_the_guard_rank():
    # raising MAX_ENUM_RANK past 16 overflows the int8 cro and nes counters
    assert _stat_radix(MAX_ENUM_RANK, "cro") - 1 <= np.iinfo(np.int8).max
    p = max_crossing_witness(8)
    got = K.pair_stats_batch(K.upper_arcs_batch(np.array([p.values])))
    assert got.tolist() == [[28, nes(p), wex(p), neg(p)]] and cro(p) == 28


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_numpy_pair_stats_match_reference(n):
    arcs = K.upper_arcs_batch(signed_values_batch(n))
    ref = stat_table(n)
    got = K.pair_stats_batch(arcs)
    assert (got == ref[:, :4]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chain_stats_match_brute_force(n):
    arcs = K.upper_arcs_batch(signed_values_batch(n))
    ref = stat_table(n)
    got = K.chain_stats_batch(arcs)
    assert (got == ref[:, 4:]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_stats_match_patience_sorting(n):
    arcs = K.upper_arcs_batch(signed_values_batch(n))
    got = K.chain_stats_batch(arcs)
    assert got.dtype == np.int64 and got.shape == (len(arcs), 2)
    ref = [_chain_sizes(starts, ends)
           for starts, ends in zip(arcs[:, :, 0].tolist(), arcs[:, :, 1].tolist())]
    assert got.tolist() == [list(r) for r in ref]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_one_line_batch_inverts_upper_arcs_batch(n):
    for values in _signed_value_blocks(n):
        got = K.one_line_batch(K.upper_arcs_batch(values))
        assert got.dtype == np.int64
        assert np.array_equal(got, values)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closing_order_reads_each_rows_filling(n):
    # the join rule that both maps share gives xi's filling: read from the
    # largest closer down, the widths are young_shape's rows and the
    # closing arcs are the columns of the rows' 1s
    order, ends, width = K._closing_order(K.upper_arcs_batch(signed_values_batch(n)))
    assert width.shape == ends.shape == order.shape
    for p, e, w, o in zip(enumerate_bn(n), ends.tolist(), width.tolist(), order.tolist()):
        d = upper_diagram(p)
        shape, _, closers = young_shape(d)
        assert w[::-1] == list(shape)
        assert e == list(closers)
        assert sorted(xi(d).ones) == list(enumerate((c + 1 for c in o[::-1]), start=1))


def images(kernel, n):
    """One-line arrays of the kernel's images of all rank-n rows; each
    image must be the int8 table of its one-line array."""
    got = kernel(K.upper_arcs_batch(signed_values_batch(n)))
    assert got.dtype == np.int8
    values = K.one_line_batch(got)
    assert np.array_equal(K.upper_arcs_batch(values), got)
    return values


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pair_involution_batch_matches_scalar_map(n):
    assert images(K.pair_involution_batch, n).tolist() == [
        list(crossing_nesting_involution(p).values) for p in enumerate_bn(n)]


def test_pair_involution_batch_images_match_pinned_map():
    text = "".join(f"{','.join(map(str, row))}\n"
                   for n in range(1, 6)
                   for row in images(K.pair_involution_batch, n).tolist())
    assert text.count("\n") == 4282
    assert hashlib.sha256(text.encode()).hexdigest() == PAIR_IMAGES_SHA256


def table(*arcs):
    """A one-row int8 arc table from (start, end) vertex pairs, unchecked."""
    return np.array([arcs], dtype=np.int8)


def test_pair_involution_batch_partner_not_open():
    # a loop at a negative vertex closes before it opens
    with pytest.raises(Desynchronized, match="closer -1: partner -1 is not open"):
        K.pair_involution_batch(table((-1, -1)))


def test_pair_involution_batch_image_not_a_permutation():
    # two arcs end at 1 and both close there, one after the other: the
    # image closes its arc from -1 first, then its arc from -2, so both
    # image arcs end at 1 and s(1) = s(2) = -1
    with pytest.raises(Desynchronized,
                       match=r"row \[\(-2,1\), \(-1,1\)\]: image \[\(-2,1\), \(-1,1\)\] "
                             "is not a signed permutation"):
        K.pair_involution_batch(table((-2, 1), (-1, 1)))


@pytest.mark.parametrize("kernel,error", [
    (K.pair_involution_batch, Desynchronized), (K.theta_batch, InconsistentGrowth)])
@pytest.mark.parametrize("arcs,message", [
    # two arcs end at 1
    (((-2, 1), (-1, 1)),
     r"row \[\(-2,1\), \(-1,1\)\]: image \[\(-2,1\), \(-1,1\)\] is not a signed permutation"),
    # two arcs start at 1
    (((1, 2), (1, 2)),
     r"row \[\(1,2\), \(1,2\)\]: image \[\(1,2\), \(1,2\)\] is not a signed permutation"),
    # an arc running right to left
    (((2, 1), (1, 2)), r"row \[\(2,1\), \(1,2\)\]: closer 1: partner 2 is not open"),
    # two starts of magnitude 1
    (((-1, 2), (1, 1)),
     r"row \[\(-1,2\), \(1,1\)\]: image \[\(-1,1\), \(1,2\)\] is not a signed permutation"),
], ids=["two-ends", "two-starts", "right-to-left", "two-magnitude-1-starts"])
def test_maps_reject_tables_of_no_signed_permutation(kernel, error, arcs, message):
    with pytest.raises(error, match=message):
        kernel(table(*arcs))


def test_int8_tables_reject_larger_ranks():
    # cro and nes wrap in int8 past rank 16, arc vertices past rank 127
    with pytest.raises(RankTooLarge, match="rank 17"):
        K.pair_stats_batch(K.upper_arcs_batch(np.arange(1, 18)[None]))
    with pytest.raises(RankTooLarge, match="rank 128"):
        K.upper_arcs_batch(np.arange(1, 129)[None])


def test_arc_tables_hold_rank_127():
    values = np.random.default_rng(127).permutation(np.arange(1, 128)) * np.tile([1, -1], 64)[:127]
    assert np.array_equal(K.upper_arcs_batch(values[None]), argsort_arcs(values[None]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_theta_batch_matches_scalar_map(n):
    assert images(K.theta_batch, n).tolist() == [
        list(max_chain_involution(p).values) for p in enumerate_bn(n)]


def test_theta_batch_images_match_pinned_map():
    text = "".join(f"{','.join(map(str, row))}\n"
                   for n in range(1, 5)
                   for row in images(K.theta_batch, n).tolist())
    assert text.count("\n") == 442
    assert hashlib.sha256(text.encode()).hexdigest() == THETA_IMAGES_SHA256


@pytest.mark.parametrize("border,message", [
    # doubled border labels: the first cell rebuilt, (2, 1) of the shape
    # (2, 1), has a corner two boxes above its neighbours
    (lambda labels: 2 * labels,
     r"row \[\(1,1\), \(2,2\)\]: corner \(2,1\) \(2,\) cannot sit below \(\) and right of \(\)"),
    # a box on every corner survives the backward rules up to the edges
    (lambda labels: np.maximum(labels, np.eye(labels.shape[-2], 1, dtype=labels.dtype)),
     "left a box on the top or left edge"),
    # empty border labels rebuild a filling without a 1
    (np.zeros_like, "is not a signed permutation"),
])
def test_theta_batch_inconsistent_border(monkeypatch, border, message):
    conjugate = K._conjugate
    monkeypatch.setattr(K, "_conjugate", lambda labels: border(conjugate(labels)))
    with pytest.raises(InconsistentGrowth, match=message):
        # the tables of 1,2 and -2,1
        K.theta_batch(np.array([[[1, 1], [2, 2]], [[-2, -1], [-1, 2]]], dtype=np.int8))
