import hashlib
from types import SimpleNamespace

import pytest

from goldens import EX1, EX1_IMAGE, PAIR_IMAGES_SHA256

from crossnest import (
    Arc,
    SignedPermutation,
    VertexKind,
    cro,
    crossing_nesting_involution,
    degree_sequence,
    enumerate_bn,
    identity,
    involution,
    neg,
    nes,
    parse_permutation,
    upper_diagram,
    vertex_kind,
    wex,
)
from crossnest.cli import main
from crossnest.errors import Desynchronized


def unvalidated(n, arcs):
    """An arc set that skips UpperDiagram's checks, for breaking the scan."""
    return SimpleNamespace(n=n, arcs=frozenset(Arc(*a) for a in arcs))


class TestScan:
    def test_two_crossing_becomes_two_nesting(self):
        p = SignedPermutation((-2, -1))     # arcs (-2,1), (-1,2)
        image = crossing_nesting_involution(p)
        assert upper_diagram(image).arcs == {Arc(-2, 2), Arc(-1, 1)}
        assert (cro(p), nes(p), cro(image), nes(image)) == (1, 0, 0, 1)

    def test_disjoint_arcs_are_a_fixed_point(self):
        p = SignedPermutation((2, 1))       # arcs (-2,-1), (1,2)
        assert crossing_nesting_involution(p) == p

    def test_loop_is_the_newest_choice(self):
        # (-2,2) is open at 1, where the loop (1,1) is the newest choice:
        # mirrored, 1 closes the oldest arc instead, and back again
        nested = SignedPermutation((1, -2))
        skew = SignedPermutation((2, -1))   # arcs (-2,1), (1,2)
        assert crossing_nesting_involution(nested) == skew
        assert crossing_nesting_involution(skew) == nested
        assert (cro(nested), nes(nested), cro(skew), nes(skew)) == (0, 1, 1, 0)

    def test_negative_transient_closes_before_it_opens(self):
        # -1 closes (-3,-1) while -3 and -2 are open, then opens (-1,3)
        p = SignedPermutation((-3, -2, 1))
        image = crossing_nesting_involution(p)
        assert image == SignedPermutation((-2, 1, -3))
        assert upper_diagram(image).arcs == {Arc(-2, -1), Arc(-1, 2), Arc(-3, 3)}
        assert vertex_kind(upper_diagram(image), -1) is VertexKind.TRANSIENT
        assert (cro(p), nes(p), cro(image), nes(image)) == (2, 0, 0, 2)

    def test_partner_not_open_is_desynchronized(self, monkeypatch):
        # a loop at a negative vertex closes before it opens
        monkeypatch.setattr(involution, "upper_diagram",
                            lambda p: unvalidated(1, [(-1, -1)]))
        with pytest.raises(Desynchronized) as info:
            crossing_nesting_involution(identity(1))
        assert isinstance(info.value, RuntimeError)
        assert not isinstance(info.value, ValueError)

    def test_desynchronized_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(involution, "upper_diagram",
                            lambda p: unvalidated(2, [(2, 1), (-2, -1)]))
        assert main(["involute", "1,2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and len(err.splitlines()) == 1


class TestComposite:
    def test_example_one_image(self):
        assert str(crossing_nesting_involution(parse_permutation(EX1))) == EX1_IMAGE

    def test_identity_is_fixed(self):
        p = identity(2)
        assert crossing_nesting_involution(p) == p

    def test_negative_transient_input(self):
        p = SignedPermutation((-2, 1))
        image = crossing_nesting_involution(p)
        assert (cro(image), nes(image)) == (nes(p), cro(p))
        assert crossing_nesting_involution(image) == p

    def test_images_match_pinned_map(self):
        text = "".join(f"{crossing_nesting_involution(p)}\n"
                       for n in range(1, 6) for p in enumerate_bn(n))
        assert text.count("\n") == 4282
        assert hashlib.sha256(text.encode()).hexdigest() == PAIR_IMAGES_SHA256

    def test_exhaustive_properties(self):
        for n in range(1, 6):
            for p in enumerate_bn(n):
                image = crossing_nesting_involution(p)
                assert (cro(image), nes(image)) == (nes(p), cro(p))
                assert wex(image) == wex(p)
                assert neg(image) == neg(p)
                assert str(degree_sequence(image)) == str(degree_sequence(p))
                assert crossing_nesting_involution(image) == p
