import hashlib
from itertools import product

import pytest

from goldens import (
    EX2,
    EX2_CELLS,
    EX2_CLOSERS,
    EX2_OPENERS,
    EX2_SHAPE,
    EX2_THETA_IMAGE,
    EX2_UPPER,
    THETA_IMAGES_SHA256,
    THETA_VALUES,
)
from oracles import backtracking_avoiders, max_pattern_size

from crossnest import (
    PatternKind,
    SignedPermutation,
    UpperDiagram,
    YoungFilling,
    border_walks,
    cro_star,
    cro_star_brute,
    degree_sequence,
    enumerate_bn,
    growth_diagram,
    growth_involution,
    identity,
    max_chain_involution,
    max_chain_sizes,
    neg,
    nes_star,
    nes_star_brute,
    parse_permutation,
    upper_diagram,
    xi,
    xi_inverse,
    young_shape,
)
from crossnest import enumeration, fillings
from crossnest.enumeration import _desk_shapes
from crossnest.errors import (
    CellOutsideShape,
    InconsistentGrowth,
    InfeasibleSums,
    MalformedToken,
    MissingDiagramLists,
    RowColumnSumViolation,
)
from crossnest.fillings import (
    _avoiders,
    backward_rule,
    border_corners,
    filling_to_text,
    forward_rule,
    parse_filling_text,
)

J = PatternKind.ANTI_IDENTITY
I = PatternKind.IDENTITY


def border_sizes(f):
    """(longest anti-identity, longest identity) read off the border labels."""
    labels = growth_diagram(f)
    border = [labels[corner] for corner in border_corners(f.shape)]
    return max(map(len, border)), max(lam[0] for lam in border if lam)


def pattern_sizes(f):
    """The same pair from the independent longest-chain DP."""
    return max_pattern_size(f.ones, f.shape, J), max_pattern_size(f.ones, f.shape, I)


def avoiders(shape, row_sums, col_sums, k, kind):
    """Fillings of one (shape, sums) case with no pattern of size k of
    the given kind, read through the one marginal of `border_walks`."""
    ident, anti = _avoiders(border_walks(shape, row_sums, col_sums), k)
    return ident if kind is I else anti


def desk_cases(max_rows, max_cols):
    """Every (shape, row sums, column sums) case of the desk shapes whose
    sums are 0 or 1 and agree in total."""
    for shape in _desk_shapes(max_rows, max_cols):
        for row_sums in product((0, 1), repeat=len(shape)):
            for col_sums in product((0, 1), repeat=shape[0]):
                if sum(row_sums) == sum(col_sums):
                    yield shape, row_sums, col_sums


class TestYoungShape:
    def test_example_two(self):
        shape, openers, closers = young_shape(UpperDiagram(6, EX2_UPPER))
        assert shape == EX2_SHAPE
        assert openers == EX2_OPENERS
        assert closers == EX2_CLOSERS

    def test_rank_one_loop(self):
        shape, openers, closers = young_shape(upper_diagram(identity(1)))
        assert shape == (1,)
        assert openers == (1,) and closers == (1,)

    def test_rectangular_case(self):
        d = upper_diagram(SignedPermutation((-2, -1)))
        assert young_shape(d).shape == (2, 2)

    def test_negative_transient_gets_no_extra_column(self):
        # the in/out vertex -1 must not widen its own closer row, or a
        # phantom crossing pattern appears
        d = upper_diagram(SignedPermutation((-2, 1)))
        assert young_shape(d).shape == (2, 1)


class TestXi:
    def test_example_two_cells(self):
        f = xi(UpperDiagram(6, EX2_UPPER))
        assert f.ones == EX2_CELLS
        assert f.shape == EX2_SHAPE

    def test_rank_one(self):
        assert xi(upper_diagram(identity(1))).ones == {(1, 1)}

    def test_two_crossing_is_antiidentity(self):
        f = xi(upper_diagram(SignedPermutation((-2, -1))))
        assert f.ones == {(1, 2), (2, 1)}

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for p in enumerate_bn(n):
                d = upper_diagram(p)
                assert xi_inverse(xi(d)) == d

    def test_inverse_needs_lists(self):
        f = YoungFilling((2, 2), frozenset({(1, 1), (2, 2)}))
        with pytest.raises(MissingDiagramLists):
            xi_inverse(f)

    def test_filling_validation(self):
        with pytest.raises(RowColumnSumViolation):
            YoungFilling((2, 2), frozenset({(1, 1), (1, 2)}))

    @pytest.mark.parametrize("shape, ones", [
        ((2.0, 2.0), {(1, 1), (2, 2)}),   # was kept and written out as "2.0,2.0"
        ((True,), {(1, 1)}),              # was kept and written out as "True"
        ((1,), {(True, 1)}),              # was kept as the cell (1, 1)
        ((1,), {(1.0, 1)}),               # raised a raw TypeError
    ])
    def test_shape_and_cells_must_be_ints(self, shape, ones):
        with pytest.raises(CellOutsideShape):
            YoungFilling(shape, frozenset(ones))

    def test_diagram_lists_checked(self):
        ones = frozenset({(1, 1), (2, 2)})
        with pytest.raises(MissingDiagramLists, match="come together"):
            YoungFilling((2, 2), ones, openers=(1, 2))
        with pytest.raises(MissingDiagramLists, match="match the row count"):
            YoungFilling((2, 2), ones, openers=(1, 2), closers=(2,))


class TestPatternSearch:
    def test_example_two_antiidentity(self):
        f = xi(UpperDiagram(6, EX2_UPPER))
        assert border_sizes(f)[0] == pattern_sizes(f)[0] == 4
        # the corner below row 4 at column 6 encloses the 4-pattern
        assert growth_diagram(f)[4, 6] == (1, 1, 1, 1)
        assert max_pattern_size({(4, 2), (3, 4), (2, 5), (1, 6)}, f.shape, J) == 4
        # the rectangle condition rules the (5,1) cell out of any
        # 4-pattern: rows 1..5 never reach column 6
        assert max_pattern_size({(5, 1), (3, 4), (2, 5), (1, 6)}, f.shape, J) == 3

    def test_example_two_identity(self):
        f = xi(UpperDiagram(6, EX2_UPPER))
        assert border_sizes(f)[1] == pattern_sizes(f)[1] == 2

    def test_single_cell(self):
        f = xi(upper_diagram(identity(1)))
        assert border_sizes(f) == pattern_sizes(f) == (1, 1)

    def test_sizes_match_chain_statistics(self):
        for n in range(1, 5):
            for p in enumerate_bn(n):
                f = xi(upper_diagram(p))
                assert border_sizes(f) == (cro_star(p), nes_star(p))
                assert pattern_sizes(f) == (cro_star(p), nes_star(p))

    def test_negative_shared_vertex_not_a_pattern(self):
        f = xi(upper_diagram(SignedPermutation((-2, 1))))
        assert border_sizes(f)[0] == pattern_sizes(f)[0] == 1


def small_partitions(max_size):
    found = [()]
    frontier = [()]
    for _ in range(max_size):
        frontier = sorted({grown for lam in frontier for grown in one_box_more(lam)})
        found.extend(frontier)
    return found


def one_box_more(lam):
    for row in range(len(lam) + 1):
        part = lam[row] + 1 if row < len(lam) else 1
        if row == 0 or part <= lam[row - 1]:
            yield lam[:row] + (part,) + lam[row + 1:]


class TestSteps:
    """Fomin's local rules, one cell at a time, and the labels they grow."""

    def test_anti_to_identity_k2(self):
        # the 2-anti-identity grows the column (1,1); its conjugate (2)
        # rebuilds the 2-identity
        f = YoungFilling((2, 2), frozenset({(2, 1), (1, 2)}))
        assert growth_diagram(f)[2, 2] == (1, 1)
        assert growth_involution(f).ones == {(1, 1), (2, 2)}

    def test_identity_to_anti_k2(self):
        f = YoungFilling((2, 2), frozenset({(1, 1), (2, 2)}))
        assert growth_diagram(f)[2, 2] == (2,)
        assert growth_involution(f).ones == {(2, 1), (1, 2)}

    def test_anti_step_exposes_smaller_block(self):
        # each corner of the 3-anti-identity sees the block it encloses
        f = YoungFilling((3, 3, 3), frozenset({(3, 1), (2, 2), (1, 3)}))
        labels = growth_diagram(f)
        assert labels[3, 3] == (1, 1, 1)
        assert labels[2, 3] == labels[3, 2] == (1, 1)
        assert labels[2, 2] == (1,)

    def test_identity_grows_first_row(self):
        f = YoungFilling((3, 3, 3), frozenset({(1, 1), (2, 2), (3, 3)}))
        labels = growth_diagram(f)
        assert [labels[k, k] for k in range(4)] == [(), (1,), (2,), (3,)]

    def test_forward_rule_cases(self):
        assert forward_rule((), (), (), True) == (1,)
        assert forward_rule((1,), (1,), (1,), False) == (1,)
        assert forward_rule((1,), (2,), (1,), False) == (2,)
        assert forward_rule((1,), (2,), (1, 1), False) == (2, 1)
        # equal growths bump the new box one row down
        assert forward_rule((1,), (2,), (2,), False) == (2, 1)
        assert forward_rule((1,), (1, 1), (1, 1), False) == (1, 1, 1)

    def test_rules_invert_each_other(self):
        for lam in small_partitions(4):
            grown = [lam, *one_box_more(lam)]
            for mu, nu in product(grown, repeat=2):
                for filled in (False, True) if mu == nu == lam else (False,):
                    rho = forward_rule(lam, mu, nu, filled)
                    assert backward_rule(rho, mu, nu) == (lam, filled)

    def test_border_walks_from_bottom_left(self):
        assert border_corners((2, 1)) == ((2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        assert border_corners((1,)) == ((1, 0), (1, 1), (0, 1))

    def test_k1_is_noop(self):
        f = YoungFilling((1,), frozenset({(1, 1)}))
        assert growth_involution(f) == f

    def test_inconsistent_corner_rejected(self):
        with pytest.raises(InconsistentGrowth):
            backward_rule((2,), (), (1,))       # two boxes above one corner
        with pytest.raises(InconsistentGrowth):
            backward_rule((1,), (1, 1), (1,))   # a label outside its corner

    def test_box_left_on_an_edge_rejected(self, monkeypatch):
        # a backward rule that only copies labels leaves boxes on the left edge
        monkeypatch.setattr(fillings, "backward_rule", lambda rho, mu, nu: (mu, False))
        with pytest.raises(InconsistentGrowth, match="top or left edge"):
            growth_involution(YoungFilling((2, 2), frozenset({(2, 1), (1, 2)})))

    def test_moves_preserve_sums(self):
        f = xi(UpperDiagram(6, EX2_UPPER))
        g = growth_involution(f)
        assert g.shape == f.shape
        assert {r for r, _ in g.ones} == {r for r, _ in f.ones}
        assert {c for _, c in g.ones} == {c for _, c in f.ones}


class TestInterchange:
    def test_balanced_filling_unchanged(self):
        f = xi(upper_diagram(identity(3)))
        assert growth_involution(f) == f

    def test_two_by_two(self):
        f = YoungFilling((2, 2), frozenset({(2, 1), (1, 2)}))
        g = growth_involution(f)
        assert g.ones == {(1, 1), (2, 2)}
        assert growth_involution(g) == f

    def test_example_two_swaps_chain_sizes(self):
        f = xi(UpperDiagram(6, EX2_UPPER))
        d = xi_inverse(growth_involution(f))
        assert max_chain_sizes(d) == (2, 4)

    def test_composite_on_example_two(self):
        p = parse_permutation(EX2)
        image = max_chain_involution(p)
        assert str(image) == EX2_THETA_IMAGE
        assert max_chain_sizes(image) == (2, 4)
        assert str(degree_sequence(image)) == str(degree_sequence(p))
        assert neg(image) == 2

    def test_swapped_companion_shares_class(self):
        # the diagram-level swap partner found by exhaustive search
        p = parse_permutation(EX2)
        q = SignedPermutation(THETA_VALUES)
        assert str(degree_sequence(q)) == str(degree_sequence(p))
        assert max_chain_sizes(q) == (2, 4) and neg(q) == 2

    def test_exhaustive_involution_small_rank(self):
        for n in range(1, 5):
            for p in enumerate_bn(n):
                image = max_chain_involution(p)
                assert (cro_star_brute(image), nes_star_brute(image)) == (
                    nes_star_brute(p), cro_star_brute(p))
                assert str(degree_sequence(image)) == str(degree_sequence(p))
                assert neg(image) == neg(p)
                assert max_chain_involution(image) == p

    def test_images_match_pinned_map(self):
        text = "".join(f"{max_chain_involution(p)}\n"
                       for n in range(1, 5) for p in enumerate_bn(n))
        assert text.count("\n") == 442
        assert hashlib.sha256(text.encode()).hexdigest() == THETA_IMAGES_SHA256


class TestFillingText:
    def test_round_trip(self):
        f = xi(UpperDiagram(6, EX2_UPPER))
        parsed = parse_filling_text(filling_to_text(f))
        assert parsed.shape == f.shape and parsed.ones == f.ones

    def test_format_layout(self):
        f = YoungFilling((2, 1), frozenset({(1, 2), (2, 1)}))
        assert filling_to_text(f) == "2,1\n1,2\n2,1\n"

    @pytest.mark.parametrize("text", [
        "2,1\n1,x\n",     # a token that is not an integer
        "2,x\n1,1\n",     # the same in the shape line
        "2,1\n1,1,1\n",   # a cell line with three fields
        "2,1\n1\n",       # a cell line with one field
        # int() reads "1_0" as 10 and non-ASCII digits as digits
        "1_0\n1,1\n",            # shape (10,) in the shape line
        "\u0661,1\n1,1\n2,1\n",  # an Arabic-Indic 1 in the shape line
        "\uff12,1\n1,1\n2,1\n",  # a fullwidth 2 in the shape line
        "2,1\n1,1_0\n",          # cell (1, 10) in a cell line
        "2,1\n1,2\n\u0662,1\n",  # an Arabic-Indic 2 in a cell line
        "2,1\n\uff11,2\n2,1\n",  # a fullwidth 1 in a cell line
    ])
    def test_malformed_text_is_typed(self, text):
        with pytest.raises(MalformedToken):
            parse_filling_text(text)


class TestCountAvoiders:
    def test_two_by_two_unit_sums(self):
        kwargs = dict(shape=(2, 2), row_sums=(1, 1), col_sums=(1, 1), k=2)
        assert avoiders(kind=I, **kwargs) == 1
        assert avoiders(kind=J, **kwargs) == 1

    def test_k1_with_any_one_is_zero(self):
        for kind in (I, J):
            assert avoiders((2, 2), (1, 0), (0, 1), 1, kind) == 0

    def test_empty_filling_avoids_everything(self):
        for kind in (I, J):
            assert avoiders((2, 2), (0, 0), (0, 0), 1, kind) == 1

    def test_three_by_three_matches_pattern_bounds(self):
        # 0/1 matrices of a 3x3 square with unit sums avoiding a full
        # diagonal: all but one of the 6 placements
        ident = avoiders((3, 3, 3), (1, 1, 1), (1, 1, 1), 3, I)
        anti = avoiders((3, 3, 3), (1, 1, 1), (1, 1, 1), 3, J)
        assert ident == anti == 5

    def test_infeasible_sums(self):
        with pytest.raises(InfeasibleSums):
            avoiders((2, 2), (1, 1), (1, 0), 2, I)
        with pytest.raises(InfeasibleSums):
            avoiders((2, 1), (0, 2), (1, 1), 2, I)

    def test_sum_of_two_is_infeasible(self):
        with pytest.raises(InfeasibleSums):
            avoiders((2, 2), (2, 0), (1, 1), 2, I)
        with pytest.raises(InfeasibleSums):
            avoiders((2, 2), (1, 1), (2, 0), 2, J)

    @pytest.mark.parametrize("kind", [I, J])
    def test_square_unit_sums_pinned(self, kind):
        # permutation matrices: Catalan(8) of them avoid a monotone
        # 3-pattern, and 24,792,705 of the 12! avoid a monotone 4-pattern
        assert avoiders((8,) * 8, (1,) * 8, (1,) * 8, 3, kind) == 1430
        assert avoiders((12,) * 12, (1,) * 12, (1,) * 12, 4, kind) == 24_792_705

    @pytest.mark.parametrize("case", [
        ((2.7, 2), (1, 1), (1, 1)),     # used to walk the shape (2, 2)
        ((2, 2), (1.0, 0), (1, 0)),
        ((2, 2), (1, 0), (True, 0)),
    ])
    def test_non_integer_entries(self, case):
        with pytest.raises(InfeasibleSums):
            border_walks(*case)

    @pytest.mark.parametrize("case, message", [
        (((), (), ()), "bad shape"),
        (((1, 2), (1, 1), (1,)), "bad shape"),
        (((2,), (1, 0), (1, 0)), "one row sum per row"),
        (((2,), (1,), (1,)), "one column sum per column"),
    ])
    def test_malformed_case_rejected(self, case, message):
        with pytest.raises(InfeasibleSums, match=message):
            border_walks(*case)

    def test_walk_matches_backtracking_on_desk_shapes(self):
        cases = 0
        for shape, row_sums, col_sums in desk_cases(4, 4):
            for k, kind in product(range(1, 5), (I, J)):
                args = (shape, row_sums, col_sums, k, kind)
                assert avoiders(*args) == backtracking_avoiders(*args), args
                cases += 1
        assert cases == 19_504

    def test_joint_table_on_desk_shapes(self):
        # conjugating the labels swaps the two sizes; no 4x4 filling has a
        # pattern of size 5, so the total counts every filling
        for shape, row_sums, col_sums in desk_cases(4, 4):
            table = border_walks(shape, row_sums, col_sums)
            assert table == {(b, a): count for (a, b), count in table.items()}
            assert sum(table.values()) == backtracking_avoiders(
                shape, row_sums, col_sums, 5, I
            )

    def test_table_keys_are_parts_then_first_part(self, monkeypatch):
        # every real table is symmetric (conjugate the labels), so only a
        # step rule that grows the first row alone shows the key order:
        # both 2x2 fillings then walk () -> (1) -> (2) -> (1) -> ()
        def first_row_only(lam, row):
            return (lam[0] + 1, *lam[1:]) if lam else (1,)

        monkeypatch.setattr(fillings, "_add_box", first_row_only)
        assert border_walks((2, 2), (1, 1), (1, 1)) == {(1, 2): 2}

    def test_marginals_read_parts_then_first_part(self, monkeypatch):
        # the same for the marginal that reads the table, and its report
        def lopsided(*case):
            return {(1, 3): 1}

        monkeypatch.setattr(enumeration, "border_walks", lopsided)
        assert _avoiders(lopsided(), 2) == (0, 1)
        report = enumeration.verify_avoider_symmetry(1, 1, ks=(2,))
        assert report.counterexamples == [
            {"shape": [1], "row_sums": list(sums), "col_sums": list(sums), "k": 2,
             "identity_avoiders": 0, "anti_identity_avoiders": 1}
            for sums in ((0,), (1,))
        ]

    def test_one_walk_per_desk_case(self, monkeypatch):
        calls = []

        def counted(*case):
            calls.append(case)
            return border_walks(*case)

        marginals = []

        def read(table, k):
            marginals.append(k)
            return _avoiders(table, k)

        monkeypatch.setattr(enumeration, "border_walks", counted)
        monkeypatch.setattr(enumeration, "_avoiders", read)
        report = enumeration.verify_avoider_symmetry(4, 4)
        assert report.passed
        assert report.info["cases_checked"] == len(marginals) == 4_876
        assert len(calls) == len(set(calls)) == 2_438

    def test_staircase_sweep_small(self):
        # identity- and anti-identity-avoiders agree on every shape
        # inside a 3x3 box for unit-capped sums
        from crossnest import verify_avoider_symmetry

        report = verify_avoider_symmetry(max_rows=3, max_cols=3, ks=(2,))
        assert report.passed, report.counterexamples[:3]


class TestMaxPatternSize:
    def test_rectangle_condition_blocks_deep_cells(self):
        shape = (3, 1, 1)
        cells = [(3, 1), (1, 3)]
        assert max_pattern_size(cells, shape, J) == 1
        assert max_pattern_size(cells, shape, I) == 1

    def test_identity_needs_no_corner(self):
        shape = (3, 3, 3)
        cells = [(1, 1), (2, 2), (3, 3)]
        assert max_pattern_size(cells, shape, I) == 3
