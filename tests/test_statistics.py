import re
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import signed_permutations
from goldens import EX1, EX1_STATS, EX2, EX2_CHAINS, THETA_VALUES

from crossnest import (
    Arc,
    PairKind,
    SignedPermutation,
    classify_pair,
    cro,
    cro_star,
    cro_star_brute,
    enumerate_bn,
    identity,
    is_crossing_chain,
    is_nesting_chain,
    max_chain_sizes,
    nes,
    nes_star,
    nes_star_brute,
    parse_permutation,
    upper_diagram,
)
from crossnest.errors import InconsistentDiagram, SameArc


class TestClassifyPair:
    def test_skew_crossing_at_positive_transient(self):
        assert classify_pair(Arc(1, 4), Arc(4, 5)) is PairKind.SKEW_CROSSING

    def test_skew_nesting_over_fixed_vertex(self):
        assert classify_pair(Arc(1, 4), Arc(3, 3)) is PairKind.SKEW_NESTING

    def test_negative_shared_vertex_is_alignment(self):
        # Upp of (-2,1); that permutation has no crossings at all
        assert classify_pair(Arc(-2, -1), Arc(-1, 2)) is PairKind.ALIGNMENT
        assert cro(SignedPermutation((-2, 1))) == 0

    def test_proper_crossing(self):
        assert classify_pair(Arc(-6, 2), Arc(-2, 6)) is PairKind.PROPER_CROSSING

    def test_proper_nesting(self):
        assert classify_pair(Arc(-2, 6), Arc(1, 4)) is PairKind.PROPER_NESTING

    def test_disjoint_loops_align(self):
        assert classify_pair(Arc(3, 3), Arc(4, 5)) is PairKind.ALIGNMENT

    def test_same_arc_rejected(self):
        with pytest.raises(SameArc):
            classify_pair(Arc(1, 2), Arc(1, 2))

    def test_same_arc_as_list_and_tuple_rejected(self):
        # used to raise InconsistentDiagram, "share a start or an end"
        with pytest.raises(SameArc):
            classify_pair([1, 2], (1, 2))

    @pytest.mark.parametrize("a, b", [
        (Arc(1, 3), Arc(2, 3)),
        (Arc(1, 3), Arc(1, 4)),
        (Arc(2, 2), Arc(2, 3)),     # a loop and an arc leaving its vertex
    ], ids=["shared-end", "shared-start", "loop-start"])
    def test_shared_start_or_end_rejected(self, a, b):
        with pytest.raises(InconsistentDiagram, match=re.escape(f"arcs {a} and {b} share")):
            classify_pair(a, b)

    def test_non_pair_arc_rejected(self):
        # used to raise an untyped TypeError
        with pytest.raises(InconsistentDiagram, match=r"arc \(3,\) is not a \(start, end\) pair"):
            classify_pair((1, 2), (3,))

    @pytest.mark.parametrize("a, b, message", [
        # used to raise an untyped TypeError
        (("a", "b"), (1, 2), "vertex 'a' is not an integer"),
        # used to return ALIGNMENT
        ((1.5, 2), (3, 4), r"vertex 1\.5 is not an integer"),
    ], ids=["str", "float"])
    def test_non_int_vertex_rejected(self, a, b, message):
        with pytest.raises(InconsistentDiagram, match=message):
            classify_pair(a, b)

    def test_argument_order_irrelevant(self):
        a, b = Arc(-2, 6), Arc(3, 3)
        assert classify_pair(a, b) == classify_pair(b, a)

    @given(signed_permutations(max_n=6))
    def test_partition_of_all_pairs(self, p):
        arcs = sorted(upper_diagram(p).arcs)
        kinds = [classify_pair(a, b) for a, b in combinations(arcs, 2)]
        n = p.n
        assert len(kinds) == n * (n - 1) // 2
        assert cro(p) + nes(p) + kinds.count(PairKind.ALIGNMENT) == len(kinds)


class TestPairCounts:
    def test_example_one(self):
        p = parse_permutation(EX1)
        assert cro(p) == EX1_STATS["cro"]
        assert nes(p) == EX1_STATS["nes"]

    def test_identity_has_none(self):
        assert cro(identity(5)) == 0
        assert nes(identity(5)) == 0

    def test_single_skew_crossing(self):
        assert cro(SignedPermutation((2, -1))) == 1

    def test_proper_crossing_not_nesting(self):
        p = SignedPermutation((-2, -1))
        assert (cro(p), nes(p)) == (1, 0)


class TestChainPredicates:
    def test_example_two_four_crossing(self):
        assert is_crossing_chain({Arc(-5, 3), Arc(1, 4), Arc(2, 5), Arc(3, 6)})

    def test_example_two_two_nesting(self):
        assert is_nesting_chain({Arc(-5, 3), Arc(-4, -2)})

    def test_single_arc_is_both(self):
        assert is_crossing_chain({Arc(-5, 3)})
        assert is_nesting_chain({Arc(-5, 3)})

    def test_negative_shared_vertex_breaks_chain(self):
        assert not is_crossing_chain({Arc(-2, -1), Arc(-1, 2)})

    def test_positive_shared_vertex_allowed(self):
        assert is_crossing_chain({Arc(-2, 1), Arc(1, 2)})

    def test_loop_innermost_in_nesting(self):
        assert is_nesting_chain({Arc(-2, 6), Arc(1, 4), Arc(3, 3)})

    @pytest.mark.parametrize("is_chain, arcs, message", [
        # used to raise an untyped TypeError
        (is_crossing_chain, [(1, "x"), (2, 3)], "vertex 'x' is not an integer"),
        # used to return True
        (is_nesting_chain, [(1.5, 4), (2, 3)], r"vertex 1\.5 is not an integer"),
    ], ids=["crossing-str", "nesting-float"])
    def test_non_int_vertex_rejected(self, is_chain, arcs, message):
        with pytest.raises(InconsistentDiagram, match=message):
            is_chain(arcs)

    def test_pairwise_equals_chain(self):
        # k arcs form a chain exactly when all pairs do, rank <= 4
        for n in range(1, 5):
            for p in enumerate_bn(n):
                arcs = sorted(upper_diagram(p).arcs)
                for k in (2, 3, 4):
                    for subset in combinations(arcs, k):
                        pairs = list(combinations(subset, 2))
                        all_cross = all(
                            classify_pair(a, b)
                            in (PairKind.PROPER_CROSSING, PairKind.SKEW_CROSSING)
                            for a, b in pairs
                        )
                        all_nest = all(
                            classify_pair(a, b)
                            in (PairKind.PROPER_NESTING, PairKind.SKEW_NESTING)
                            for a, b in pairs
                        )
                        assert is_crossing_chain(subset) == all_cross
                        assert is_nesting_chain(subset) == all_nest


class TestMaxChains:
    def test_example_two(self):
        assert max_chain_sizes(parse_permutation(EX2)) == EX2_CHAINS

    def test_example_two_witnesses(self):
        from crossnest import largest_crossing_chain, largest_nesting_chain

        p = parse_permutation(EX2)
        assert largest_crossing_chain(p) == (Arc(-5, 3), Arc(1, 4), Arc(2, 5), Arc(3, 6))
        assert len(largest_nesting_chain(p)) == 2

    def test_swapped_companion(self):
        assert max_chain_sizes(SignedPermutation(THETA_VALUES)) == (2, 4)

    def test_identity(self):
        assert max_chain_sizes(identity(4)) == (1, 1)

    def test_chain_consistency_with_pairs(self):
        for n in range(1, 5):
            for p in enumerate_bn(n):
                assert (cro_star(p) >= 2) == (cro(p) >= 1)
                assert (nes_star(p) >= 2) == (nes(p) >= 1)

    def test_dp_equals_brute_force_small(self):
        for n in range(1, 5):
            for p in enumerate_bn(n):
                assert cro_star(p) == cro_star_brute(p)
                assert nes_star(p) == nes_star_brute(p)

    @settings(max_examples=40)
    @given(signed_permutations(min_n=5, max_n=8))
    def test_dp_equals_brute_force_sampled(self, p):
        assert max_chain_sizes(p) == (cro_star_brute(p), nes_star_brute(p))
