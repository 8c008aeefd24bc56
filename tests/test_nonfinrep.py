"""Obstruction scans and the contraction-based workflow."""

import pytest

from dqra import (
    FiniteDqRA,
    LawViolationError,
    algebras_isomorphic,
    basic_obstruction,
    contraction_obstruction,
    derived_zero,
    load_algebra,
    psi_elements,
    scan_contractions,
)

from conftest import ALL_NAMES, CHAIN_NAMES, SIX, TABLE_PARENTS


@pytest.mark.parametrize("name", CHAIN_NAMES)
def test_basic_obstruction_on_the_chains(algebras, name):
    A = algebras[name]
    hit = basic_obstruction(A)
    assert hit is not None
    assert A.labels[hit.b] == "a"
    z = derived_zero(A)
    assert A.lt(z, hit.b) and A.lt(hit.b, A.unit)
    assert A.le(int(A.mult[hit.b, hit.b]), z)


@pytest.mark.parametrize("name", TABLE_PARENTS + [SIX])
def test_basic_obstruction_absent_elsewhere(algebras, name):
    assert basic_obstruction(algebras[name]) is None


def test_six_element_zero_sits_above_unit(six):
    # nothing can lie strictly between 0 and 1 when 1 <= 0
    assert six.le(six.unit, derived_zero(six))


def test_diamond_contraction_obstruction(algebras):
    A = algebras["D^4_{3,1}"]
    hit = contraction_obstruction(A)
    assert hit is not None
    assert A.labels[hit.p] == "top" and A.labels[hit.b] == "a"


@pytest.mark.parametrize("name,expect_p", [
    ("D^6_{3,2}", "a"),
    ("D^6_{3,4}", "a"),
    ("D^6_{4,3}", "top"),
    ("D^6_{4,4}", "top"),
])
def test_table_parents_contraction_obstructions(algebras, name, expect_p):
    A = algebras[name]
    hit = contraction_obstruction(A)
    assert hit is not None
    assert A.labels[hit.p] == expect_p


@pytest.mark.parametrize("name", CHAIN_NAMES)
def test_basic_witness_specialises_to_unit_contraction(algebras, name):
    A = algebras[name]
    basic = basic_obstruction(A)
    relative = contraction_obstruction(A)
    assert relative is not None
    assert relative.p == A.unit
    assert relative.b == basic.b


def test_six_element_algebra_is_unobstructed(six):
    assert basic_obstruction(six) is None
    assert contraction_obstruction(six) is None
    assert not scan_contractions(six).flagged


def test_scan_rows_identify_table_contractions(algebras):
    scan = scan_contractions(algebras["D^6_{3,2}"])
    flagged = {algebras["D^6_{3,2}"].labels[r.p]: r for r in scan.rows
               if r.obstruction is not None}
    assert "a" in flagged
    assert algebras_isomorphic(flagged["a"].contraction.algebra,
                               algebras["D^5_{1,4}"])


def test_scan_finds_both_routes_for_the_second_parent(algebras):
    A = algebras["D^6_{3,4}"]
    scan = scan_contractions(A)
    flagged = {A.labels[r.p]: r for r in scan.rows if r.obstruction is not None}
    assert algebras_isomorphic(flagged["a"].contraction.algebra,
                               algebras["D^5_{1,5}"])
    assert algebras_isomorphic(flagged["top"].contraction.algebra,
                               algebras["D^3_{1,1}"])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scan_agrees_with_relativised_scan(algebras, name):
    A = algebras[name]
    scan = scan_contractions(A)   # the contraction theorem: they agree
    assert scan.flagged == (contraction_obstruction(A) is not None)


def test_scan_refuses_an_invalid_algebra_with_no_idempotent():
    # one element whose order is not reflexive, so the unit is no PSI and
    # there is nothing to contract at: the scan still refuses the algebra
    A = FiniteDqRA(1, [[0]], [[0]], [0], [0], [0], 0)
    assert psi_elements(A) == ()
    with pytest.raises(LawViolationError,
                       match=r"algebra does not validate: FAIL "
                             r"order-reflexive"):
        scan_contractions(A)


def test_obstruction_census_over_the_catalogue(algebras):
    basic = {n for n in ALL_NAMES if basic_obstruction(algebras[n]) is not None}
    relative = {n for n in ALL_NAMES
                if contraction_obstruction(algebras[n]) is not None}
    assert basic == set(CHAIN_NAMES)
    assert relative == set(CHAIN_NAMES) | set(TABLE_PARENTS)
    assert SIX not in relative


def test_describe_mentions_witness(algebras):
    A = algebras["D^4_{3,1}"]
    hit = contraction_obstruction(A)
    text = hit.describe(A)
    assert "top" in text and "a" in text


def test_flagged_algebras_are_refuted_by_search(algebras):
    # soundness: anything either scan flags must be definitively refused by
    # exhaustive embedding search at desk scale
    from dqra import SearchStatus, enumerate_structures, find_embedding
    structures = [S for n in (1, 2, 3) for S in enumerate_structures(n)]
    flagged = [n for n in ALL_NAMES
               if contraction_obstruction(algebras[n]) is not None]
    assert len(flagged) == 10
    for name in flagged:
        for S in structures:
            r = find_embedding(algebras[name], S, budget=2_000_000)
            assert r.status is SearchStatus.NOT_FOUND, (name, r.status)


def test_flagged_algebras_refuted_on_four_point_spots(algebras):
    # full exhaustion over 4-point structures is combinatorially heavy; the
    # shipped antichain model spot-checks the next size up
    from dqra import SearchStatus, find_embedding
    from dqra.catalogue import antichain_example_structure
    S4 = antichain_example_structure()
    for name in ("D^3_{1,1}", "D^4_{3,1}", "D^6_{4,3}"):
        r = find_embedding(algebras[name], S4, budget=5_000_000,
                           upset_cap=1 << 17)
        assert r.status is SearchStatus.NOT_FOUND, name
