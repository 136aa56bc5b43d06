"""Parity between the array kernels and the object-level reference
implementations."""

import hashlib

import numpy as np
import pytest

from goldens import PAIR_IMAGES_SHA256, THETA_IMAGES_SHA256
from oracles import argsort_arcs, stat_table

from crossnest import _kernels as K
from crossnest import (
    SignedPermutation,
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
    # int8 (P, k) views of contiguous (k, P) rows, the columns `_columns` reads
    for table in (K.pair_stats_batch(arcs), K.chain_stats_batch(arcs)):
        assert table.dtype == np.int8 and table.T.flags.c_contiguous


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


def assert_chain_stats_match_patience_sorting(values):
    arcs = K.upper_arcs_batch(values)
    got = K.chain_stats_batch(arcs)
    assert got.dtype == np.int8 and got.shape == (len(arcs), 2)
    ref = [_chain_sizes(starts, ends)
           for starts, ends in zip(arcs[:, :, 0].tolist(), arcs[:, :, 1].tolist())]
    assert got.tolist() == [list(r) for r in ref]
    return got


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_stats_match_patience_sorting(n):
    assert_chain_stats_match_patience_sorting(signed_values_batch(n))


@pytest.mark.parametrize("n", [9, 12, 16])
def test_chain_stats_match_patience_sorting_past_the_guard(n):
    rng = np.random.default_rng(n)
    magnitudes = rng.permuted(np.tile(np.arange(1, n + 1), (4096, 1)), axis=1)
    assert_chain_stats_match_patience_sorting(magnitudes * rng.choice([-1, 1], (4096, n)))


def test_chain_stats_hold_rank_127():
    # s(i) = -(128 - i) draws all 127 arcs as one crossing chain and
    # s(i) = -i as one nesting chain, so the int8 counters reach their cap
    i = np.arange(1, 128)
    got = assert_chain_stats_match_patience_sorting(np.stack([i - 128, -i]))
    assert got[0, 0] == got[1, 1] == 127


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
    # closing arcs are the columns of the rows' 1s; all three are int8
    # (n, P) rows, laid out like the table's
    arcs = K.upper_arcs_batch(signed_values_batch(n))
    order, ends, width = K._closing_order(arcs)
    assert width.shape == ends.shape == order.shape == arcs.shape[1::-1]
    assert width.dtype == ends.dtype == order.dtype == np.int8
    for p, e, w, o in zip(enumerate_bn(n), ends.T.tolist(), width.T.tolist(), order.T.tolist()):
        d = upper_diagram(p)
        shape, _, closers = young_shape(d)
        assert w[::-1] == list(shape)
        assert e == list(closers)
        assert sorted(xi(d).ones) == list(enumerate((c + 1 for c in o[::-1]), start=1))


def non_aligned_pairs(arcs):
    """cro + nes of each row of a valid arc table, in int64 at any rank:
    the arcs a < b in start order where b has joined by a's end, that is
    starts before it, or at it when it is positive."""
    S, E = np.ascontiguousarray(arcs.T).astype(np.int64)
    return sum(((S[a + 1:] < E[a]) | (S[a + 1:] == E[a]) & (E[a] > 0)).sum(axis=0)
               for a in range(len(S)))


def closing_degree(arcs):
    """The sum over closers t of k_t - 1, where k_t = width[t] - t is the
    number of arcs open as the t-th closer closes: the total degree of the
    height DP's [k]_{p,q} factors."""
    width = K._closing_order(arcs)[2].astype(np.int64)
    return (width - np.arange(1, len(width) + 1)[:, None]).sum(axis=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_closing_widths_count_crossings_and_nestings(n):
    # each arc open when a closer closes is crossed or nested by it, once
    for values in _signed_value_blocks(n):
        arcs = K.upper_arcs_batch(values)
        assert np.array_equal(closing_degree(arcs), K.pair_stats_batch(arcs)[:, :2].sum(axis=1))


@pytest.mark.parametrize("n", [16, 40, 127])
def test_closing_widths_count_crossings_and_nestings_on_seeded_rows(n):
    rng = np.random.default_rng(n)
    values = rng.permuted(np.tile(np.arange(1, n + 1), (4096, 1)), axis=1)
    arcs = K.upper_arcs_batch(values * rng.choice([-1, 1], values.shape))
    want = non_aligned_pairs(arcs)
    if n <= 16:
        assert np.array_equal(want, K.pair_stats_batch(arcs)[:, :2].sum(axis=1))
    assert np.array_equal(closing_degree(arcs), want)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 127])
def test_sort_columns_matches_np_sort(n):
    # keys from a narrow range repeat within a column; both signs occur
    rng = np.random.default_rng(n)
    for low, high in ((-3, 3), (-32768, 32767)):
        keys = rng.integers(low, high, size=(n, 257), endpoint=True).astype(np.int16)
        want = np.sort(keys, axis=0)
        assert K._sort_columns(keys) is keys
        assert np.array_equal(keys, want)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_closing_order_matches_stable_argsort(n):
    # ends drawn from a few vertices repeat, as in broken tables; a stable
    # argsort breaks the ties by arc index
    rng = np.random.default_rng(100 + n)
    arcs = rng.integers(-n, n, size=(513, n, 2), endpoint=True).astype(np.int8)
    arcs[:, :, 1] = rng.integers(-2, 2, size=(513, n), endpoint=True)
    order, ends, width = K._closing_order(arcs)
    want = np.argsort(arcs[:, :, 1], axis=1, kind="stable")
    assert order.dtype == np.int8 and np.array_equal(order.T, want)
    assert ends.dtype == np.int8
    assert np.array_equal(ends.T, np.take_along_axis(arcs[:, :, 1], want, axis=1))
    joined = K._joined(arcs[:, None, :, 0], ends.T[:, :, None])
    assert width.dtype == np.int8 and np.array_equal(width.T, joined.sum(axis=2))


def test_arc_tables_are_column_major(monkeypatch):
    # a table is a contiguous (2, n, P) array seen through a transpose, and
    # the maps' images keep that layout, so the kernels read it with no copy
    arcs = K.upper_arcs_batch(signed_values_batch(5))
    for table in (arcs, K.pair_involution_batch(arcs), K.theta_batch(arcs)):
        assert table.shape == arcs.shape and table.dtype == np.int8
        assert table.T.flags.c_contiguous and table[:, :, 0].T.flags.c_contiguous
    copies = []
    real = np.ascontiguousarray

    def counted(a, *args, **kwargs):
        got = real(a, *args, **kwargs)
        copies.append(got is not a)
        return got

    monkeypatch.setattr(K.np, "ascontiguousarray", counted)
    K.pair_stats_batch(arcs)
    assert copies == [False]


def test_pair_involution_batch_keeps_either_layout():
    # the map writes its image ends through a view, strided on a row-major table
    arcs = K.upper_arcs_batch(signed_values_batch(5))
    rows = K.pair_involution_batch(np.ascontiguousarray(arcs))
    columns = K.pair_involution_batch(arcs)
    assert np.array_equal(rows, columns)
    assert rows.flags.c_contiguous and columns.T.flags.c_contiguous


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


@pytest.mark.parametrize("kernel,error", [
    (K.pair_involution_batch, Desynchronized), (K.theta_batch, InconsistentGrowth)])
def test_maps_name_the_first_broken_row_and_its_first_lost_arc(kernel, error):
    # rows 1 and 2 are broken; row 1 loses arcs 1 and 2, row 2 only arc 0,
    # so neither the last lost arc nor the first in arc order is the one named
    rows = np.array([[(1, 1), (2, 2), (3, 3)],
                     [(-3, 3), (2, 1), (3, -2)],
                     [(-1, -1), (2, 2), (3, 3)]], dtype=np.int8)
    for arcs in (rows, np.asfortranarray(rows)):
        with pytest.raises(error, match=r"^row \[\(-3,3\), \(2,1\), \(3,-2\)\]: "
                                        "closer 1: partner 2 is not open$"):
            kernel(arcs)


def test_pair_involution_batch_leaves_an_arc_open_when_no_arc_is_held():
    # closing at -1, two older arcs end later (r = 2) but the image holds
    # only two arcs, so none has rank k - r = 0: no arc closes there, and
    # the arc from -3 that stays open keeps image end 0
    with pytest.raises(Desynchronized,
                       match=r"^row \[\(-2,1\), \(-3,-2\), \(1,1\), \(-3,-1\)\]: "
                             r"image \[\(-2,-2\), \(-3,0\), \(1,1\), \(-3,1\)\] "
                             "is not a signed permutation$"):
        K.pair_involution_batch(table((-2, 1), (-3, -2), (1, 1), (-3, -1)))


def test_int8_tables_reject_larger_ranks():
    # cro and nes wrap in int8 past rank 16, arc vertices and chain
    # lengths past rank 127
    with pytest.raises(RankTooLarge, match="rank 17"):
        K.pair_stats_batch(K.upper_arcs_batch(np.arange(1, 18)[None]))
    with pytest.raises(RankTooLarge, match="rank 128"):
        K.chain_stats_batch(np.ones((1, 128, 2), dtype=np.int8))
    with pytest.raises(RankTooLarge, match="rank 128"):
        K.upper_arcs_batch(np.arange(1, 129)[None])


@pytest.mark.parametrize("kernel", [K.pair_involution_batch, K.theta_batch])
def test_maps_reject_tables_past_rank_127(kernel):
    # no signed permutation has 128 arcs, and int8 counters would wrap
    with pytest.raises(RankTooLarge, match="rank 128"):
        kernel(np.ones((1, 128, 2), dtype=np.int8))


def test_arc_tables_hold_rank_127():
    values = np.random.default_rng(127).permutation(np.arange(1, 128)) * np.tile([1, -1], 64)[:127]
    assert np.array_equal(K.upper_arcs_batch(values[None]), argsort_arcs(values[None]))


def test_pair_involution_batch_holds_rank_127():
    # the top of the maps' guard: every row's last width is 127 and its arc
    # indices in closing order run to 126, at the edge of int8
    rng = np.random.default_rng(127)
    magnitudes = rng.permuted(np.tile(np.arange(1, 128), (8, 1)), axis=1)
    values = magnitudes * rng.choice([-1, 1], (8, 127))
    arcs = K.upper_arcs_batch(values)
    image = K.pair_involution_batch(arcs)
    assert K.one_line_batch(image).tolist() == [
        list(crossing_nesting_involution(SignedPermutation(tuple(p))).values)
        for p in values.tolist()]
    assert np.array_equal(K.pair_involution_batch(image), arcs)


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
