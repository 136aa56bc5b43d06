import json
from collections import Counter
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from goldens import EX2, EX2_DEGREE

from crossnest import (
    SignedPermutation,
    bn_size,
    cro,
    cro_star,
    cro_star_brute,
    degree_sequence,
    distribution,
    enumerate_bn,
    max_crossing_count,
    max_crossing_witness,
    neg,
    nes,
    nes_star,
    nes_star_brute,
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
from crossnest.errors import RankTooLarge, UnknownStatistic


@lru_cache(maxsize=None)
def oracle_rows(n):
    """Every statistic of every rank-n permutation, from the object-level
    functions and the subset oracles."""
    return [
        {"cro": cro(p), "nes": nes(p), "wex": wex(p), "neg": neg(p),
         "cro_star": cro_star_brute(p), "nes_star": nes_star_brute(p)}
        for p in enumerate_bn(n)
    ]


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
        expected = Counter(tuple(row[name] for name in schema) for row in oracle_rows(n))
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

    @pytest.mark.parametrize("n_max", [0, -3, 9])
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

    @pytest.mark.parametrize("bounds", [{"max_rows": 0}, {"max_cols": 0}, {"max_rows": -1}])
    def test_empty_desk_range(self, bounds):
        with pytest.raises(RankTooLarge):
            verify_avoider_symmetry(**bounds)


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
        expected = Counter(
            (str(degree_sequence(p)), row["cro_star"], row["nes_star"], row["neg"])
            for p, row in zip(enumerate_bn(n), oracle_rows(n))
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


class TestInvolutionSuite:
    def test_pair_map_rank_three(self):
        report = verify_involution_properties(3, "pair")
        assert report.passed
        assert report.info["permutations_checked"] == 58

    def test_chain_map_rank_two(self):
        report = verify_involution_properties(2, "chain")
        assert report.passed
