import json

import pytest

from goldens import EX2, EX2_DEGREE

from crossnest import (
    SignedPermutation,
    bn_size,
    cro,
    cro_star,
    degree_sequence,
    distribution,
    enumerate_bn,
    max_crossing_count,
    max_crossing_witness,
    neg,
    nes,
    nes_star,
    parse_permutation,
    verify_chain_symmetry,
    verify_involution_properties,
    verify_max_crossing_counts,
    verify_pair_symmetry,
    wex,
)
from crossnest.enumeration import report_to_json, signed_values_batch
from crossnest.errors import RankTooLarge


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

    def test_csv_layout(self):
        table = distribution(1)
        lines = table.to_csv().splitlines()
        assert lines[0] == "nes,cro,wex,neg,count"
        assert len(lines) == 3

    def test_json_rows_sorted(self):
        rows = distribution(2).to_json_obj()
        keys = [tuple(r[k] for k in ("nes", "cro", "wex", "neg")) for r in rows]
        assert keys == sorted(keys)


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
