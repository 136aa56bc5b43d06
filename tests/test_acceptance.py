"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 6 is split: the constructive-witness clause holds, while the
closed-form count clause is incompatible with the chain definition that
criteria 2, 8, 9 and 11 pin down (that definition admits a second
full-chain permutation from rank 3 on).  The count clause is kept as a
faithful assertion and marked as an expected failure rather than
silently weakened; see the companion regression tests for the actual
counts.
"""

import time

import pytest

from goldens import (
    EX1,
    EX1_IMAGE,
    EX2,
    EX2_CELLS,
    EX2_DEGREE,
    EX2_SHAPE,
)
from oracles import max_pattern_size

from crossnest import (
    PatternKind,
    cro,
    cro_star,
    cro_star_brute,
    degree_sequence,
    enumerate_bn,
    max_chain_involution,
    max_chain_sizes,
    max_crossing_count,
    max_crossing_witness,
    neg,
    nes,
    nes_star,
    nes_star_brute,
    parse_permutation,
    upper_diagram,
    verify_avoider_symmetry,
    verify_chain_symmetry,
    verify_involution_properties,
    verify_pair_symmetry,
    wex,
    xi,
    xi_inverse,
)
from crossnest.involution import crossing_nesting_involution


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}{' - ' + detail if detail else ''}")
    return ok


def test_criterion_1_example_one_statistics():
    p = parse_permutation(EX1)
    got = (cro(p), nes(p), wex(p), neg(p))
    assert report(1, got == (4, 5, 3, 2), f"cro,nes,wex,neg = {got}")
    assert got == (4, 5, 3, 2)


def test_criterion_2_example_two_statistics():
    p = parse_permutation(EX2)
    chains = max_chain_sizes(p)
    degree = str(degree_sequence(p))
    ok = chains == (4, 2) and degree == EX2_DEGREE
    assert report(2, ok, f"cro*,nes* = {chains}, degree sequence exact")
    assert chains == (4, 2)
    assert degree == EX2_DEGREE


def test_criterion_3_pair_involution_golden():
    p = parse_permutation(EX1)
    image = crossing_nesting_involution(p)
    ok = (
        str(image) == EX1_IMAGE
        and (cro(image), nes(image)) == (5, 4)
        and wex(image) == wex(p)
        and neg(image) == neg(p)
        and str(degree_sequence(image)) == str(degree_sequence(p))
    )
    assert report(3, ok, f"image = {image}")
    assert ok


def test_criterion_4_pair_symmetry_through_rank_six():
    started = time.perf_counter()
    result = verify_pair_symmetry(6)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 60.0
    assert report(4, ok, f"ranks 1..6 exact, {elapsed:.1f}s")
    assert result.passed, result.counterexamples[:3]
    assert elapsed < 60.0


def test_criterion_5_chain_symmetry_through_rank_five():
    started = time.perf_counter()
    result = verify_chain_symmetry(5)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 120.0
    assert report(5, ok, f"per-degree-class, ranks 1..5, {elapsed:.1f}s")
    assert result.passed, result.counterexamples[:3]
    assert elapsed < 120.0


def test_criterion_6_witness_clause():
    ok = all(cro_star(max_crossing_witness(n)) == n for n in range(1, 13))
    assert report(6, ok, "constructive witness has a full chain up to rank 12")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the chain definition fixed by criteria 2/8/9/11 admits a second "
    "full-chain permutation (n, -(n-1), ..., -1) from rank 3 on, so "
    "enumeration returns 2 for every rank, not 2,2,1,1,1,1",
)
def test_criterion_6_count_clause():
    got = [max_crossing_count(n) for n in range(1, 7)]
    report(6, got == [2, 2, 1, 1, 1, 1],
           f"counts {got}, expected [2, 2, 1, 1, 1, 1] (definition conflict)")
    assert got == [2, 2, 1, 1, 1, 1]


def test_criterion_7_pair_involution_exhaustive():
    result = verify_involution_properties(4, "pair")
    ok = result.passed and result.info["permutations_checked"] == 2 + 8 + 48 + 384
    assert report(7, ok, f"{result.info['permutations_checked']} permutations, "
                         f"{len(result.counterexamples)} counterexamples")
    assert result.passed
    assert result.counterexamples == []


def test_criterion_8_encoding_round_trip_and_patterns():
    for n in range(1, 6):
        for p in enumerate_bn(n):
            d = upper_diagram(p)
            assert xi_inverse(xi(d)) == d
    for n in range(1, 5):
        for p in enumerate_bn(n):
            f = xi(upper_diagram(p))
            assert max_pattern_size(f.ones, f.shape, PatternKind.ANTI_IDENTITY) == cro_star(p)
            assert max_pattern_size(f.ones, f.shape, PatternKind.IDENTITY) == nes_star(p)
    assert report(8, True, "round trip ranks 1..5, pattern sizes ranks 1..4")


def test_criterion_9_filling_golden_and_chain_involution():
    p = parse_permutation(EX2)
    f = xi(upper_diagram(p))
    assert f.shape == EX2_SHAPE
    assert f.ones == EX2_CELLS
    image = max_chain_involution(p)
    ok = (
        max_chain_sizes(image) == (2, 4)
        and str(degree_sequence(image)) == str(degree_sequence(p))
        and neg(image) == 2
    )
    assert report(9, ok, f"image = {image}, chains (2,4)")
    assert ok


def test_criterion_10_avoider_counts_agree():
    result = verify_avoider_symmetry(max_rows=4, max_cols=4, ks=(2, 3))
    assert report(10, result.passed,
                  f"{result.info['cases_checked']} sum prescriptions")
    assert result.passed, result.counterexamples[:3]


def test_criterion_11_chain_oracle_on_rank_five():
    for p in enumerate_bn(5):
        assert max_chain_sizes(p) == (cro_star_brute(p), nes_star_brute(p))
    assert report(11, True, "dp equals subset brute force on all 3840")


def test_criterion_12_chain_involution_rank_five():
    result = verify_involution_properties(5, "chain")
    assert report(12, result.passed,
                  f"{result.info['permutations_checked']} permutations, "
                  f"{len(result.counterexamples)} counterexamples")
    assert result.passed, result.counterexamples[:3]
