"""Positive symmetric idempotents and contraction extraction."""

import re

import numpy as np
import pytest

from dqra import (
    FiniteDqRA,
    LawViolationError,
    NotAnElementError,
    NotPsiError,
    algebras_isomorphic,
    check_residuals,
    contract,
    induced_embedding,
    is_psi,
    membership_tfae,
    plus,
    psi_elements,
    quotient_representation,
    residuals,
    validate_dqra,
)

from conftest import ALL_NAMES


def test_psi_census_of_the_six_element_algebra(six):
    got = {six.labels[p] for p in psi_elements(six)}
    assert got == {"1", "a", "b", "top"}
    for lbl in ("bot", "0"):
        assert not is_psi(six, six.index_of(lbl))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unit_and_top_are_always_psi(algebras, name):
    A = algebras[name]
    assert is_psi(A, A.unit)
    assert A.top is not None and is_psi(A, A.top)


@pytest.mark.parametrize("index", [int, np.int64])
def test_is_psi_returns_a_python_bool(six, index):
    for p in range(six.size):
        assert type(is_psi(six, index(p))) is bool


def test_one_element_psi():
    from test_algebra import one_element_algebra
    assert psi_elements(one_element_algebra()) == (0,)


def test_diamond_algebra_psi_contains_unit_and_top(algebras):
    A = algebras["D^4_{3,1}"]
    got = {A.labels[p] for p in psi_elements(A)}
    assert {"1", "top"} <= got


def test_membership_at_p_itself(six):
    for p in psi_elements(six):
        v = membership_tfae(six, p, p)
        assert v.in_pap and v.pbp_eq_b and v.pb_and_bp_eq_b


def test_membership_unit_not_in_proper_contraction(six):
    a = six.index_of("a")
    v = membership_tfae(six, a, six.unit)
    assert not v.verdict
    assert (v.in_pap, v.pbp_eq_b, v.pb_and_bp_eq_b) == (False, False, False)


def test_membership_top_in_every_contraction(six):
    a = six.index_of("a")
    v = membership_tfae(six, a, six.index_of("top"))
    assert v.verdict


def test_membership_requires_idempotent(six):
    with pytest.raises(NotPsiError):
        membership_tfae(six, six.index_of("0"), 0)   # 0.0 = top here


def test_contract_at_unit_is_the_whole_algebra(six):
    c = contract(six, six.unit)
    assert c.members == tuple(range(six.size))
    assert c.algebra is not six
    assert algebras_isomorphic(c.algebra, six)


def test_contractions_of_the_six_element_algebra(six):
    by_label = {}
    for p in psi_elements(six):
        c = contract(six, p)
        by_label[six.labels[p]] = c
    assert [len(by_label[l].members) for l in ("1", "a", "b", "top")] == [6, 3, 3, 2]
    # aAa is the three-element chain around a, and likewise for b
    a_members = {six.labels[x] for x in by_label["a"].members}
    assert a_members == {"bot", "a", "top"}
    b_members = {six.labels[x] for x in by_label["b"].members}
    assert b_members == {"bot", "b", "top"}
    assert by_label["a"].algebra.unit == by_label["a"].member_index(six.index_of("a"))
    assert algebras_isomorphic(by_label["a"].algebra, by_label["b"].algebra)
    top_members = {six.labels[x] for x in by_label["top"].members}
    assert top_members == {"bot", "top"}


def test_contract_rejects_non_psi(six):
    with pytest.raises(NotPsiError):
        contract(six, six.index_of("0"))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_contractions_validate_and_are_closed(algebras, name):
    A = algebras[name]
    for p in psi_elements(A):
        c = contract(A, p)
        assert validate_dqra(c.algebra).ok
        members = set(c.members)
        for x in members:
            assert int(A.tilde[x]) in members
            assert int(A.minus[x]) in members
            assert int(A.negn[x]) in members
            for y in members:
                assert int(A.mult[x, y]) in members
                assert int(A.meet_table[x, y]) in members
                assert int(A.join_table[x, y]) in members


@pytest.mark.parametrize("name", ALL_NAMES)
def test_p_is_the_unit_of_its_contraction(algebras, name):
    A = algebras[name]
    for p in psi_elements(A):
        c = contract(A, p)
        sub = c.algebra
        u = sub.unit
        assert c.members[u] == p
        for k in range(sub.size):
            assert int(sub.mult[u, k]) == k
            assert int(sub.mult[k, u]) == k


@pytest.mark.parametrize("name", ALL_NAMES)
def test_top_contraction_nests_inside_every_contraction(algebras, name):
    # members of the top contraction survive every other contraction:
    # recomputed, not assumed
    A = algebras[name]
    top_members = set(contract(A, A.top).members)
    for p in psi_elements(A):
        assert top_members <= set(contract(A, p).members)


def test_operations_restrict_from_parent(six):
    c = contract(six, six.index_of("a"))
    sub = c.algebra
    for i, x in enumerate(c.members):
        assert int(six.tilde[x]) == c.members[int(sub.tilde[i])]
        for j, y in enumerate(c.members):
            assert bool(six.leq[x, y]) == bool(sub.leq[i, j])
            assert int(six.mult[x, y]) == c.members[int(sub.mult[i, j])]


def test_contract_rejects_members_not_closed_under_the_operations():
    # p = 1 is a positive symmetric idempotent whose only member is itself,
    # but the negations send it outside the members; the contraction
    # theorem rules that out in a valid algebra, and this one breaks
    # residuation, so contract refuses the parent
    A = FiniteDqRA(2, [[1, 1], [0, 1]], [[0, 1], [1, 1]], [1, 0], [1, 0],
                   [1, 0], 0)
    assert is_psi(A, 1)
    with pytest.raises(LawViolationError,
                       match=r"algebra does not validate: FAIL "
                             r"residuation-left"):
        contract(A, 1)


def test_contract_checks_the_idempotent_before_the_parent():
    # the four-element algebra of the quotient oracle: its order is neither
    # reflexive nor transitive, its unit u is no PSI and p is one
    A = FiniteDqRA(4, [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1],
                       [0, 0, 0, 1]],
                   [[0, 0, 0, 0], [0, 2, 1, 3], [0, 1, 2, 3], [0, 3, 3, 3]],
                   [3, 2, 1, 0], [3, 2, 1, 0], [3, 2, 1, 0], 1)
    assert not validate_dqra(A).ok
    assert not is_psi(A, 1) and is_psi(A, 2)
    with pytest.raises(NotPsiError):
        contract(A, 1)
    with pytest.raises(LawViolationError,
                       match=r"algebra does not validate: FAIL "
                             r"order-reflexive"):
        contract(A, 2)


def element_calls(e):
    """Each library call that takes an element of e's algebra, as a
    function of that element; the other elements are fixed at a, a
    positive symmetric idempotent."""
    A = e.algebra
    a = A.index_of("a")
    return {
        "is_psi": lambda x: is_psi(A, x),
        "contract": lambda x: contract(A, x).members,
        "quotient_representation":
            lambda x: quotient_representation(e, x).class_map,
        "induced_embedding": lambda x: tuple(
            r.bits for r in induced_embedding(e, x).assignment),
        "membership_tfae p": lambda x: membership_tfae(A, x, a),
        "membership_tfae b": lambda x: membership_tfae(A, a, x),
        "label": A.label,
        "le a": lambda x: A.le(x, a),
        "le b": lambda x: A.le(a, x),
        "lt a": lambda x: A.lt(x, a),
        "lt b": lambda x: A.lt(a, x),
        "meet a": lambda x: A.meet(x, a),
        "meet b": lambda x: A.meet(a, x),
        "join a": lambda x: A.join(x, a),
        "join b": lambda x: A.join(a, x),
        "residuals a": lambda x: residuals(A, x, a),
        "residuals c": lambda x: residuals(A, a, x),
        "check_residuals a": lambda x: check_residuals(A, x, a),
        "check_residuals c": lambda x: check_residuals(A, a, x),
        "plus a": lambda x: plus(A, x, a),
        "plus b": lambda x: plus(A, a, x),
    }


def outcome(call, x):
    """The call's answer, or the type of the documented error it raised."""
    try:
        return call(x)
    except (NotPsiError, LawViolationError) as exc:
        return type(exc)


def test_element_arguments_are_indices_of_the_carrier(six_embedding):
    # an element is an integer index in 0..size-1: -1 is not the last
    # element (the top of D^6_{3,5,2}, a positive symmetric idempotent),
    # and neither a bool nor an index past the carrier reaches numpy
    A = six_embedding.algebra
    n = A.size
    for name, call in element_calls(six_embedding).items():
        for bad in (-1, n, 10**30, True, np.True_):
            with pytest.raises(NotAnElementError,
                               match=rf"^{re.escape(repr(bad))} .* size {n} "):
                call(bad)
        for k in range(n):
            assert outcome(call, np.int64(k)) == outcome(call, k), (name, k)
    assert is_psi(A, n - 1) and A.label(n - 1) == "top"
    assert issubclass(NotAnElementError, ValueError)
