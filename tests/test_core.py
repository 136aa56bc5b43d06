import pytest
from hypothesis import given

from conftest import signed_permutations
from goldens import (
    EX1,
    EX1_STATS,
    EX1_UPPER,
    EX1_VALUES,
    EX2,
    EX2_DEGREE,
    EX2_UPPER,
    THETA_UPPER,
    THETA_VALUES,
)

from crossnest import (
    Arc,
    SignedPermutation,
    UpperDiagram,
    VertexKind,
    degree_sequence,
    enumerate_bn,
    identity,
    neg,
    parse_permutation,
    permutation_from_upper,
    sigma_at,
    upper_diagram,
    vertex_kind,
    wex,
)
from crossnest.errors import (
    InconsistentDiagram,
    IndexOutOfRange,
    MalformedToken,
    RankViolation,
    ZeroEntry,
)


class TestParsing:
    def test_example_permutation(self):
        p = parse_permutation(EX1)
        assert p.values == EX1_VALUES
        assert p.n == 6
        assert sigma_at(p, 2) == -6

    def test_rank_one_identity(self):
        assert parse_permutation("1") == identity(1)

    def test_parens_and_whitespace(self):
        assert parse_permutation(" (4, -6, 3, 5, 1, -2) ").values == EX1_VALUES
        assert parse_permutation(" +1 , -2 ").values == (1, -2)
        assert parse_permutation("\t+2,\t-1 ").values == (2, -1)

    def test_duplicate_magnitude(self):
        with pytest.raises(RankViolation):
            parse_permutation("2,2")

    def test_non_integer_token(self):
        # int() reads "1_0" as 10 and non-ASCII digits as digits, so int()
        # alone would read a rank-10 permutation and (1, 2) here
        for text in ("1,x,3", "2,1_0,1,3,4,5,6,7,8,9", "\u0661,2", "\uff11,2"):
            with pytest.raises(MalformedToken, match="is not an integer"):
                parse_permutation(text)

    def test_zero_entry(self):
        with pytest.raises(ZeroEntry):
            parse_permutation("1,0,3")

    def test_bool_entry(self):
        # bool is an int subclass, and True has magnitude 1
        for values in ((True,), (2, False), (-2, True)):
            with pytest.raises(MalformedToken, match="is not an integer"):
                SignedPermutation(values)

    def test_round_trip_text(self):
        assert str(parse_permutation(EX1)) == EX1

    def test_iterates_over_values(self):
        p = parse_permutation(EX1)
        assert list(p) == list(p.values)

    def test_empty(self):
        with pytest.raises(MalformedToken):
            parse_permutation("")
        with pytest.raises(RankViolation, match="rank at least 1"):
            SignedPermutation(())


class TestSigmaAt:
    def test_mirror_of_example(self):
        p = parse_permutation(EX1)
        assert sigma_at(p, -2) == 6

    def test_fixed_point(self):
        assert sigma_at(parse_permutation(EX1), 3) == 3

    def test_zero_rejected(self):
        with pytest.raises(IndexOutOfRange):
            sigma_at(identity(3), 0)

    def test_beyond_rank_rejected(self):
        with pytest.raises(IndexOutOfRange):
            sigma_at(identity(3), 4)
        # a bool used to read vertex 1, and 1.5 raised a raw TypeError
        for vertex in (True, 1.5):
            with pytest.raises(IndexOutOfRange):
                sigma_at(identity(3), vertex)

    @given(signed_permutations(max_n=5))
    def test_mirror_coherence(self, p):
        for i in range(1, p.n + 1):
            assert sigma_at(p, -i) == -sigma_at(p, i)


class TestUpperDiagram:
    def test_example_one(self):
        assert upper_diagram(parse_permutation(EX1)).arcs == EX1_UPPER

    def test_example_two(self):
        assert upper_diagram(parse_permutation(EX2)).arcs == EX2_UPPER

    def test_identity_keeps_positive_loops(self):
        assert upper_diagram(identity(2)).arcs == {Arc(1, 1), Arc(2, 2)}

    def test_arc_count_is_rank(self):
        for n in range(1, 5):
            for p in enumerate_bn(n):
                assert len(upper_diagram(p).arcs) == p.n

    def test_negative_loop_rejected(self):
        with pytest.raises(InconsistentDiagram):
            UpperDiagram(1, frozenset({Arc(-1, -1)}))

    def test_duplicate_start_rejected(self):
        with pytest.raises(InconsistentDiagram):
            UpperDiagram(2, frozenset({Arc(1, 1), Arc(1, 2)}))

    @pytest.mark.parametrize("n", [0, -1, True, 1.0, "2"])
    def test_rank_must_be_a_positive_int(self, n):
        # rank 0 used to pass with no arcs, and True with one loop at 1
        arcs = frozenset({Arc(1, 1)}) if n else frozenset()
        with pytest.raises(InconsistentDiagram, match="is not an integer >= 1"):
            UpperDiagram(n, arcs)

    @pytest.mark.parametrize("n, arcs, message", [
        (1, {Arc(1, 2)}, "vertex 2 out of range"),
        (1, {Arc(0, 1)}, "vertex 0 out of range"),
        (1, {Arc(1, -1)}, "runs right to left"),
        (2, {Arc(1, 2), Arc(2, 2)}, "two arcs end at 2"),
        (2, {Arc(1, 1)}, "expected 2 arcs, got 1"),
        # permutation_from_upper used to raise MalformedToken on this one
        (1, {Arc(1.0, 1.0)}, r"vertex 1\.0 is not an integer"),
        # max_chain_sizes used to return (1, 1) for this one
        (2, {Arc(True, 2), Arc(-2, -1)}, "vertex True is not an integer"),
        # these three used to raise an untyped TypeError
        (2, {(1, 2, 3), (-2, 2)}, r"arc \(1, 2, 3\) is not a \(start, end\) pair"),
        (2, {(1,), (2, 2)}, r"arc \(1,\) is not a \(start, end\) pair"),
        (2, {5, 6}, r"arc [56] is not a \(start, end\) pair"),
    ])
    def test_malformed_arcs_rejected(self, n, arcs, message):
        with pytest.raises(InconsistentDiagram, match=message):
            UpperDiagram(n, frozenset(arcs))


class TestReconstruction:
    def test_example_one_inverts(self):
        assert permutation_from_upper(UpperDiagram(6, EX1_UPPER)).values == EX1_VALUES

    def test_single_loop(self):
        assert permutation_from_upper(UpperDiagram(1, frozenset({Arc(1, 1)}))) == identity(1)

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for p in enumerate_bn(n):
                assert permutation_from_upper(upper_diagram(p)) == p

    def test_swapped_chain_diagram(self):
        # independently confirmed below by searching all of rank 6
        assert permutation_from_upper(UpperDiagram(6, THETA_UPPER)).values == THETA_VALUES

    def test_swapped_chain_diagram_by_search(self):
        matches = [
            p for p in enumerate_bn(6) if upper_diagram(p).arcs == THETA_UPPER
        ]
        assert [p.values for p in matches] == [THETA_VALUES]

    def test_unmatched_vertex_rejected(self):
        # transient 1 leaves magnitude 2 with no start
        with pytest.raises(InconsistentDiagram):
            permutation_from_upper(UpperDiagram(2, frozenset({Arc(-1, 1), Arc(1, 2)})))
        # magnitude 1 starts no arc: both start at magnitude 2
        with pytest.raises(InconsistentDiagram, match="no arc starts at 1 or -1"):
            permutation_from_upper(UpperDiagram(2, frozenset({Arc(-2, -1), Arc(2, 2)})))

    def test_magnitude_collision_rejected(self):
        # both arcs end at magnitude 1, so the one-line form reads (1, 1)
        with pytest.raises(InconsistentDiagram, match="magnitudes must be 1..2"):
            permutation_from_upper(UpperDiagram(2, frozenset({Arc(1, 1), Arc(-2, -1)})))


class TestDegreeSequence:
    def test_example_two_string(self):
        assert str(degree_sequence(parse_permutation(EX2))) == EX2_DEGREE

    def test_rank_one_identity(self):
        assert str(degree_sequence(identity(1))) == "(0,0)(1,1)"

    def test_example_one_kinds(self):
        d = upper_diagram(parse_permutation(EX1))
        assert vertex_kind(d, 3) is VertexKind.FIXED
        assert vertex_kind(d, 4) is VertexKind.TRANSIENT
        assert vertex_kind(d, -1) is VertexKind.CLOSER   # takes the arc from -5
        assert vertex_kind(d, -6) is VertexKind.OPENER   # starts the arc to 2
        for v in (-4, -3):
            assert vertex_kind(d, v) is VertexKind.ISOLATED

    @pytest.mark.parametrize("v", [0, 3, -3, 5, True, 1.5])
    def test_kind_of_a_missing_vertex_rejected(self, v):
        # 0 and 5 used to read as isolated vertices of rank 2
        with pytest.raises(IndexOutOfRange):
            vertex_kind(upper_diagram(identity(2)), v)

    def test_totals_are_rank(self):
        for n in range(1, 5):
            for p in enumerate_bn(n):
                entries = degree_sequence(p).entries
                assert sum(a for a, _ in entries) == n
                assert sum(b for _, b in entries) == n

    def test_positive_isolated_vertices_exist(self):
        # (-2,1) leaves vertex 1 bare: its in-arc moved to -1 on the
        # mirror side, so (0,0) entries are not confined to negative
        # vertices
        d = upper_diagram(SignedPermutation((-2, 1)))
        assert vertex_kind(d, 1) is VertexKind.ISOLATED
        assert vertex_kind(d, -1) is VertexKind.TRANSIENT

    def test_negative_fixed_mirror_is_isolated(self):
        for n in range(1, 5):
            for p in enumerate_bn(n):
                d = upper_diagram(p)
                for i in range(1, n + 1):
                    if sigma_at(p, i) == i:
                        assert vertex_kind(d, -i) is VertexKind.ISOLATED


class TestCountingStatistics:
    def test_example_counts(self):
        p = parse_permutation(EX1)
        assert neg(p) == EX1_STATS["neg"]
        assert wex(p) == EX1_STATS["wex"]

    def test_all_negative(self):
        p = SignedPermutation((-1, -2, -3))
        assert neg(p) == 3
        assert wex(p) == 0

    def test_identity_extremes(self):
        assert neg(identity(4)) == 0
        assert wex(identity(4)) == 4

    @given(signed_permutations(max_n=6))
    def test_arc_forms_agree(self, p):
        arcs = upper_diagram(p).arcs
        assert wex(p) == sum(1 for a in arcs if a.start > 0)
        assert neg(p) == sum(1 for a in arcs if a.start < 0 < a.end)
        assert wex(p) + sum(1 for a in arcs if a.start < 0) == p.n
