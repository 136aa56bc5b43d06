import json
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from goldens import EX2, EX2_DEGREE
from oracles import STAT_COLUMNS, stat_table

from crossnest import (
    SignedPermutation,
    bn_size,
    cro,
    cro_star,
    degree_sequence,
    distribution,
    enumerate_bn,
    max_chain_sizes,
    max_crossing_count,
    max_crossing_witness,
    neg,
    nes,
    nes_star,
    parse_permutation,
    verify_avoider_symmetry,
    verify_chain_symmetry,
    verify_involution_properties,
    verify_max_crossing_counts,
    verify_pair_symmetry,
    wex,
)
from crossnest import _kernels, enumeration
from crossnest.enumeration import BLOCK_ROWS, report_to_json, signed_values_batch
from crossnest.errors import RankTooLarge, RepeatedStatistic, UnknownMap, UnknownStatistic


def documented_order(n):
    """Rank-n one-line tuples in the documented order: magnitude
    permutations lexicographic outermost, sign masks in binary order
    inner, bit j of the mask negating position j+1."""
    return [tuple(-m if mask >> j & 1 else m for j, m in enumerate(mags))
            for mags in permutations(range(1, n + 1)) for mask in range(2 ** n)]


class TestEnumeration:
    def test_rank_one(self):
        assert [str(p) for p in enumerate_bn(1)] == ["1", "-1"]

    @pytest.mark.parametrize("n,size", [(1, 2), (2, 8), (3, 48), (6, 46080)])
    def test_cardinality(self, n, size):
        assert bn_size(n) == size
        assert signed_values_batch(n).shape == (size, n)

    @pytest.mark.parametrize("n", [-1, True, 2.0, "2"])
    def test_cardinality_needs_a_rank(self, n):
        # -1 read 0.5, True 2, and 2.0 raised a raw TypeError
        assert bn_size(0) == 1 and bn_size(17) == 2 ** 17 * 355687428096000
        with pytest.raises(RankTooLarge):
            bn_size(n)

    def test_no_duplicates(self):
        seen = {p.values for p in enumerate_bn(3)}
        assert len(seen) == 48

    def test_deterministic_order(self):
        first = [p.values for p in enumerate_bn(3)]
        second = [p.values for p in enumerate_bn(3)]
        assert first == second

    def test_rank_guard(self):
        with pytest.raises(RankTooLarge):
            list(enumerate_bn(9))
        with pytest.raises(RankTooLarge):
            list(enumerate_bn(0))

    def test_streams_without_the_whole_table(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"whole rank {n} built")
        monkeypatch.setattr(enumeration, "signed_values_batch", refuse)
        perms = list(enumerate_bn(4))
        assert [p.values for p in perms] == documented_order(4)
        assert all(type(v) is int for p in perms for v in p.values)

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_blocks_concatenate_to_the_batch(self, n):
        blocks = list(enumeration._signed_value_blocks(n))
        assert all(len(b) <= max(BLOCK_ROWS, 2 ** n) for b in blocks)
        assert (np.concatenate(blocks) == signed_values_batch(n)).all()


class TestDistribution:
    def test_rank_one_table(self):
        table = distribution(1, ("nes", "cro", "wex", "neg"))
        assert table.cells == {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1}

    def test_total_is_group_order(self):
        table = distribution(2)
        assert table.total == 8 == sum(table.cells.values())

    def test_matches_per_permutation_stats(self):
        table = distribution(3, ("nes", "cro", "wex", "neg"))
        for p in enumerate_bn(3):
            key = (nes(p), cro(p), wex(p), neg(p))
            assert table.count(key) >= 1

    def test_chain_schema(self):
        table = distribution(3, ("cro_star", "nes_star", "neg"))
        for p in enumerate_bn(3):
            assert table.count((cro_star(p), nes_star(p), neg(p))) >= 1

    def test_example_one_key_present_at_rank_six(self):
        table = distribution(6)
        assert table.count((5, 4, 3, 2)) >= 1

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            distribution(2, ("nes", "des"))
        with pytest.raises(UnknownStatistic):
            distribution(2, ("nes", "des"))

    @pytest.mark.parametrize("schema", [("cro", "cro"), ("nes", "cro_star", "wex", "cro_star")])
    def test_repeated_statistic(self, schema):
        with pytest.raises(RepeatedStatistic):
            distribution(2, schema)
        with pytest.raises(ValueError):
            distribution(2, schema)

    def test_rank_outside_guard(self):
        for n in (0, 9):
            with pytest.raises(RankTooLarge):
                distribution(n)

    def test_degree_code_is_not_a_statistic(self):
        with pytest.raises(UnknownStatistic):
            distribution(2, ("degree",))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("schema", [
        ("nes", "cro", "wex", "neg"),
        ("cro_star", "nes_star", "neg"),
        ("wex", "nes_star", "cro", "neg", "cro_star", "nes"),
    ])
    def test_matches_object_level_oracles(self, n, schema):
        columns = [STAT_COLUMNS.index(name) for name in schema]
        expected = Counter(map(tuple, stat_table(n)[:, columns].tolist()))
        table = distribution(n, schema)
        assert table.cells == dict(expected)
        assert table.total == bn_size(n)

    def test_rank_seven_ends_in_a_partial_block(self):
        mags_per_block = max(1, BLOCK_ROWS >> 7)
        assert bn_size(7) // 2 ** 7 % mags_per_block != 0
        table = distribution(7)
        assert table.total == bn_size(7) == sum(table.cells.values())
        assert len(table.cells) == 3171
        assert all(type(v) is int for key in table.cells for v in key)
        assert all(type(c) is int for c in table.cells.values())
        json.dumps(table.to_json_obj())

    def test_csv_layout(self):
        table = distribution(1)
        lines = table.to_csv().splitlines()
        assert lines[0] == "nes,cro,wex,neg,count"
        assert len(lines) == 3

    def test_json_rows_sorted(self):
        rows = distribution(2).to_json_obj()
        keys = [tuple(r[k] for k in ("nes", "cro", "wex", "neg")) for r in rows]
        assert keys == sorted(keys)


class TestVerifierBounds:
    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        # a bound outside the guard must fail before any rank is swept
        def refuse(n):
            raise AssertionError(f"rank {n} swept")
        monkeypatch.setattr(enumeration, "_signed_value_blocks", refuse)
        monkeypatch.setattr(enumeration, "signed_values_batch", refuse)

    @pytest.fixture
    def no_walk(self, monkeypatch):
        # a bad desk bound or size must fail before any border walk, not
        # skip its cases or grow shapes without end
        def refuse(*case):
            raise AssertionError(f"walked {case}")
        monkeypatch.setattr(enumeration, "border_walks", refuse)

    @pytest.mark.parametrize("n_max", [0, -3, 9, True, 2.5])
    @pytest.mark.parametrize("verify", [
        verify_pair_symmetry,
        verify_chain_symmetry,
        verify_max_crossing_counts,
        lambda n: verify_involution_properties(n, "pair"),
        lambda n: verify_involution_properties(n, "chain"),
    ])
    def test_rank_outside_guard(self, verify, n_max):
        with pytest.raises(RankTooLarge):
            verify(n_max)

    @pytest.mark.parametrize("bounds", [
        {"max_rows": 0}, {"max_cols": 0}, {"max_rows": -1},
        {"max_rows": True}, {"max_cols": True}, {"max_rows": 2.5, "max_cols": 2},
        {"max_cols": 2.5},
    ])
    def test_empty_desk_range(self, no_walk, bounds):
        with pytest.raises(RankTooLarge):
            verify_avoider_symmetry(**bounds)

    @pytest.mark.parametrize("ks", [(), (0,), (2, 0), (2.5,), (True,), 2, (2, 2)])
    def test_pattern_sizes_below_one(self, no_walk, ks):
        with pytest.raises(RankTooLarge):
            verify_avoider_symmetry(3, 3, ks=ks)


class TestPairSymmetry:
    def test_small_ranks_pass(self):
        report = verify_pair_symmetry(4)
        assert report.passed
        assert report.counterexamples == []

    def test_restriction_to_no_negatives_stays_symmetric(self):
        table = distribution(4, ("nes", "cro", "wex", "neg"))
        restricted = {}
        for (ns, cr, wx, ng), count in table.cells.items():
            if ng == 0:
                restricted[(ns, cr, wx)] = restricted.get((ns, cr, wx), 0) + count
        for (ns, cr, wx), count in restricted.items():
            assert restricted.get((cr, ns, wx), 0) == count

    def test_report_serialises_without_timing(self):
        report = verify_pair_symmetry(2)
        payload = json.loads(report_to_json(report))
        assert payload["claim"] == "thm24"
        assert "elapsed" not in payload


class TestChainSymmetry:
    def test_small_ranks_pass(self):
        report = verify_chain_symmetry(4)
        assert report.passed, report.counterexamples[:3]

    def test_example_two_class_at_rank_six(self):
        # inside the degree class of EX2, chain statistics distribute
        # symmetrically; spot-check the (4,2,2) <-> (2,4,2) pair
        target = EX2_DEGREE
        counts = {}
        for p in enumerate_bn(6):
            if str(degree_sequence(p)) == target:
                key = (cro_star(p), nes_star(p), neg(p))
                counts[key] = counts.get(key, 0) + 1
        assert counts[(4, 2, 2)] == counts[(2, 4, 2)] >= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_class_tables_match_object_level_oracles(self, n):
        columns = [STAT_COLUMNS.index(name) for name in ("cro_star", "nes_star", "neg")]
        expected = Counter(
            (str(degree_sequence(p)), *row)
            for p, row in zip(enumerate_bn(n), stat_table(n)[:, columns].tolist())
        )
        cells = enumeration._sweep(n, ("degree", "cro_star", "nes_star"))
        got = {}
        for (code, cs, ns), count in cells.items():
            degree, negs = enumeration._degree_class(code, n)
            got[(degree, cs, ns, negs)] = count
        assert len(got) == len(cells)
        assert got == dict(expected)


def class_counts(n_max, key):
    counts = Counter()
    for n in range(1, n_max + 1):
        for p in enumerate_bn(n):
            counts[(n, str(degree_sequence(p))) + key(p)] += 1
    return counts


class TestForcedAsymmetry:
    """A kernel that breaks the symmetry must make the verifier fail,
    with counterexamples that name real classes and counts."""

    def test_chain_kernel(self, monkeypatch):
        real = _kernels.chain_stats_batch
        # nes_star pinned to 1: a class with a longer crossing chain has
        # no mirror cell
        monkeypatch.setattr(_kernels, "chain_stats_batch",
                            lambda arcs: real(arcs) * [1, 0] + [0, 1])
        report = verify_chain_symmetry(3)
        assert not report.passed and report.counterexamples
        counts = class_counts(3, lambda p: (cro_star(p), 1, neg(p)))
        negs = {(n, degree): ng for n, degree, _, _, ng in counts}
        for bad in report.counterexamples:
            assert list(bad) == ["n", "degree_sequence", "key", "count",
                                 "swapped_key", "swapped_count"]
            n, degree, key = bad["n"], bad["degree_sequence"], bad["key"]
            assert key[2] == bad["swapped_key"][2] == negs[(n, degree)]
            assert bad["swapped_key"][:2] == [key[1], key[0]]
            assert bad["count"] == counts[(n, degree, *key)]
            assert bad["swapped_count"] == counts[(n, degree, *bad["swapped_key"])]
        assert report_to_json(report) == report_to_json(verify_chain_symmetry(3))

    def test_pair_kernel(self, monkeypatch):
        real = _kernels.pair_stats_batch
        # nes pinned to 0
        monkeypatch.setattr(_kernels, "pair_stats_batch",
                            lambda arcs: real(arcs) * [1, 0, 1, 1])
        report = verify_pair_symmetry(3)
        assert not report.passed and report.counterexamples
        counts = Counter((p.n, 0, cro(p), wex(p), neg(p))
                         for n in range(1, 4) for p in enumerate_bn(n))
        for bad in report.counterexamples:
            assert list(bad) == ["n", "key", "count", "swapped_key", "swapped_count"]
            key, swapped = bad["key"], bad["swapped_key"]
            assert swapped == [key[1], key[0], key[2], key[3]]
            assert bad["count"] == counts[(bad["n"], *key)]
            assert bad["swapped_count"] == counts[(bad["n"], *swapped)]
        assert report_to_json(report) == report_to_json(verify_pair_symmetry(3))


class TestMaxCrossingCount:
    def test_rank_one_and_two(self):
        assert max_crossing_count(1) == 2
        assert max_crossing_count(2) == 2

    def test_rank_two_witnesses(self):
        full = [str(p) for p in enumerate_bn(2) if cro_star(p) == 2]
        assert full == ["2,-1", "-2,-1"]

    def test_witness_family(self):
        assert max_crossing_witness(3).values == (-3, -2, -1)
        for n in (3, 8, 12):
            assert cro_star(max_crossing_witness(n)) == n

    def test_chain_reading_gives_two_per_rank(self):
        # the chain definition admits a second full-chain permutation,
        # (n, -(n-1), ..., -1), whose mixed chain shares the positive
        # vertex 1; the closed form in the verifier expects 1 from rank
        # 3 on, so the claim check reports counterexamples
        for n in range(3, 6):
            full = [p for p in enumerate_bn(n) if cro_star(p) == n]
            assert len(full) == 2
            extra = SignedPermutation((n,) + tuple(-(n - i) for i in range(1, n)))
            assert extra in full
        report = verify_max_crossing_counts(4)
        assert not report.passed
        assert report.info["counts"] == [2, 2, 2, 2]

    def test_constructive_path(self):
        # no count beyond the enumeration guard is backed by enumeration
        # or proof, so the closed form is no longer returned there
        with pytest.raises(RankTooLarge):
            max_crossing_count(12)

    def test_enumeration_guard(self):
        for n in (0, 9):
            with pytest.raises(RankTooLarge):
                max_crossing_count(n)


def map_records(p, apply, swapped):
    """Counterexamples of a map on p from the object-level functions,
    in the suite's order: swap, wex, neg, degree, involution."""
    image = apply(p)
    back = apply(image)
    before, after = swapped(p), swapped(image)
    degrees = str(degree_sequence(p)), str(degree_sequence(image))
    checks = [
        ("statistic_swap", after != before[::-1], {"before": list(before), "after": list(after)}),
        ("wex_preservation", wex(image) != wex(p), {"before": wex(p), "after": wex(image)}),
        ("neg_preservation", neg(image) != neg(p), {"before": neg(p), "after": neg(image)}),
        ("degree_preservation", degrees[0] != degrees[1],
         {"before": degrees[0], "after": degrees[1]}),
        ("involution", back != p, {"image": str(image), "twice": str(back)}),
    ]
    return [{"permutation": str(p), "failure": kind, **fields}
            for kind, failed, fields in checks if failed]


class TestInvolutionSuite:
    def test_pair_map_rank_three(self):
        report = verify_involution_properties(3, "pair")
        assert report.passed
        assert report.info["permutations_checked"] == 58

    def test_pair_map_rank_six(self):
        report = verify_involution_properties(6, "pair")
        assert report.passed and not report.counterexamples
        assert report.info["permutations_checked"] == 50362

    def test_pair_suite_builds_one_arc_table_per_block(self, monkeypatch):
        # the suites stream the sweeps' blocks: rank 5 takes one per rank
        calls = []
        arcs = _kernels.upper_arcs_batch

        def counted(values):
            calls.append(len(values))
            return arcs(values)

        monkeypatch.setattr(_kernels, "upper_arcs_batch", counted)
        assert verify_involution_properties(5, "pair").passed
        assert len(calls) == 5 and sum(calls) == 4282
        # and rank 6 three of its own, for both maps
        blocks = [len(values) for n in range(1, 7)
                  for values in enumeration._signed_value_blocks(n)]
        assert len(blocks) == 8
        for which in ("pair", "chain"):
            calls.clear()
            assert verify_involution_properties(6, which).passed
            assert calls == blocks

    def test_unknown_map_rejected(self, monkeypatch):
        # the map is rejected before any block is enumerated
        monkeypatch.setattr(enumeration, "_signed_value_blocks", None)
        for which in ("pairs", "theta", ""):
            with pytest.raises(UnknownMap, match="unknown map"):
                verify_involution_properties(3, which)

    @pytest.mark.parametrize("which", ["pair", "chain"])
    def test_pair_failures_match_object_level_records(self, monkeypatch, which):
        def rotate_and_negate(values):
            # not an involution from rank 2 on; moves wex, neg and degrees
            image = np.roll(values, 1, axis=1)
            image[:, 0] *= -1
            return image

        def rotate_arcs(arcs):
            return _kernels.upper_arcs_batch(rotate_and_negate(_kernels.one_line_batch(arcs)))

        def apply(p):
            return SignedPermutation(tuple(rotate_and_negate(np.array([p.values]))[0].tolist()))

        def pair_counts(p):
            return cro(p), nes(p)

        if which == "pair":
            monkeypatch.setattr(_kernels, "pair_involution_batch", rotate_arcs)
            swapped = pair_counts
        else:
            monkeypatch.setattr(_kernels, "theta_batch", rotate_arcs)
            swapped = max_chain_sizes
        report = verify_involution_properties(4, which)
        expected = [record for n in range(1, 5) for p in enumerate_bn(n)
                    for record in map_records(p, apply, swapped)]
        assert not report.passed
        assert {c["failure"] for c in report.counterexamples} == {
            "statistic_swap", "wex_preservation", "neg_preservation",
            "degree_preservation", "involution"}
        # same records, fields and order, so the JSON is byte for byte the
        # same; the cheap comparisons come first because pytest's diff of
        # two long unequal JSON strings runs for minutes
        assert len(report.counterexamples) == len(expected)
        assert report.counterexamples == expected
        assert [list(c) for c in report.counterexamples] == [list(r) for r in expected]
        same_bytes = json.dumps(report.counterexamples) == json.dumps(expected)
        assert same_bytes

    def test_chain_map_rank_six(self):
        report = verify_involution_properties(6, "chain")
        assert report.passed and not report.counterexamples
        assert report.info["permutations_checked"] == 50362

    def test_chain_map_rank_two(self):
        report = verify_involution_properties(2, "chain")
        assert report.passed
