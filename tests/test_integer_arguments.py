"""One integer rule for every argument that names an element, a count, a
carrier size, a point or a relation's bits: an integer (through
`operator.index`; bools refused) in its range gives the answer of the same
Python int, and anything else raises the documented error, whose message
names the argument."""

import re
from typing import Callable, NamedTuple, Sequence

import numpy as np
import pytest

from dqra import (
    BinRel,
    CapExceededError,
    CarrierMismatchError,
    FiniteDqRA,
    LawViolationError,
    MalformedAlgebraError,
    NotACountError,
    NotAnElementError,
    NotPsiError,
    RelStructure,
    check_residuals,
    contract,
    dq_closure,
    enumerate_structures,
    find_embedding,
    full_dq,
    full_dq_family,
    induced_embedding,
    is_psi,
    membership_tfae,
    plus,
    quotient_representation,
    residuals,
    sample_structures,
)

# refused by every rule, -1 (first) by every rule that is not signed
BAD = (-1, True, np.True_, 2.5, None)
HUGE = 10**30

ELEMENT_CALLS = [
    "is_psi", "contract", "quotient_representation", "induced_embedding",
    "membership_tfae p", "membership_tfae b", "label", "le a", "le b",
    "lt a", "lt b", "meet a", "meet b", "join a", "join b", "residuals a",
    "residuals c", "check_residuals a", "check_residuals c", "plus a",
    "plus b", "FiniteDqRA unit",
]
COUNT_CALLS = [
    "FiniteDqRA size", "RelStructure n", "enumerate_structures",
    "sample_structures max_n", "sample_structures count",
    "sample_structures upset_cap", "count_upsets", "enumerate_upsets",
    "full_dq", "full_dq_family", "dq_closure", "find_embedding budget",
    "find_embedding upset_cap",
]
POINT_CALLS = [
    "BinRel n", "BinRel bits", "from_matrix n", "from_pairs x",
    "from_pairs y", "RelStructure alpha", "RelStructure beta",
]


class Case(NamedTuple):
    call: Callable      # the library call, as a function of the argument
    error: type         # its documented error
    takes: Sequence[int]    # each gives the answer of its np.int64
    refuses: tuple = ()     # refused, besides BAD
    huge: bool = False      # 10**30 gives the answer of takes[-1]
    message: str = "{bad}"  # the error's message, {bad} the argument's repr
    signed: bool = False    # -1 is taken, not refused


def algebra_key(A):
    """The tables, with the types of the size and the unit: both are
    Python ints, whatever integer type they were given as."""
    return A.table_key(), type(A.size), type(A.unit)


def structures_key(structures):
    return [(S.n, S.leq.bits, S.E.bits, S.alpha, S.beta) for S in structures]


def search_key(result):
    return (result.status, result.nodes, result.candidates,
            result.embedding and [r.bits for r in result.embedding.assignment])


def element_cases(e):
    """Each library call that takes an element of e's algebra, as a
    function of that element; the other elements are fixed at a, a
    positive symmetric idempotent.  The size and 10**30 are refused."""
    A = e.algebra
    a = A.index_of("a")
    calls = {
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
    n = A.size
    assert is_psi(A, n - 1) and A.label(n - 1) == "top"
    cases = {name: Case(call, NotAnElementError, range(n), (n, HUGE),
                        message=rf"^{{bad}} .* size {n} ")
             for name, call in calls.items()}
    cases["FiniteDqRA unit"] = Case(lambda x: algebra_key(FiniteDqRA(
        n, A.leq, A.mult, A.tilde, A.minus, A.negn, x)),
        MalformedAlgebraError, range(n), (n, HUGE))
    return cases


def count_cases(e):
    """Each library call that takes a count or a carrier size, as a
    function of it.  A carrier size is never 10**30, which would
    allocate."""
    A, S = e.algebra, e.structure
    # two points, full E: few upsets, so the full algebra stays small
    S2 = next(s for s in enumerate_structures(2) if len(s.E) == 4)
    k2 = S2.count_upsets()
    found = find_embedding(A, S)
    assert found.found
    return {
        "FiniteDqRA size": Case(lambda v: algebra_key(FiniteDqRA(
            v, A.leq, A.mult, A.tilde, A.minus, A.negn, A.unit)),
            MalformedAlgebraError, (A.size,), (0,)),
        "RelStructure n": Case(lambda v: (lambda R: (R.n, type(R.n)))(
            RelStructure(v, BinRel(1, 1), BinRel(1, 1), (0,), (0,))),
            NotACountError, (1,)),
        "enumerate_structures": Case(
            lambda v: structures_key(enumerate_structures(v)),
            NotACountError, (0, 2)),
        "sample_structures max_n": Case(
            lambda v: structures_key(sample_structures(v, 3, 0)),
            NotACountError, (2,), (0,)),
        "sample_structures count": Case(
            lambda v: structures_key(sample_structures(2, v, 0)),
            NotACountError, (0, 3)),
        # no structure on at most 2 points has more than 2^4 upsets, nor
        # fewer than 2: a cap of 0 leaves none to sample (CapExceededError)
        "sample_structures upset_cap": Case(
            lambda v: structures_key(sample_structures(2, 3, 0, v)),
            NotACountError, (0, 16), huge=True),
        "count_upsets": Case(S2.count_upsets, NotACountError, (k2,),
                             huge=True),
        "enumerate_upsets": Case(
            lambda v: [r.bits for r in S2.enumerate_upsets(v)],
            NotACountError, (k2,), huge=True),
        "full_dq": Case(lambda v: algebra_key(full_dq(S2, v)),
                        NotACountError, (k2,), huge=True),
        "full_dq_family": Case(
            lambda v: [r.bits for r in full_dq_family(S2, v).relations],
            NotACountError, (k2,), huge=True),
        "dq_closure": Case(
            lambda v: [r.bits for r in dq_closure(S, e.assignment,
                                                  v).relations],
            NotACountError, (A.size,), huge=True),
        "find_embedding budget": Case(
            lambda v: search_key(find_embedding(A, S, budget=v)),
            NotACountError, (0, found.nodes), huge=True),
        "find_embedding upset_cap": Case(
            lambda v: search_key(find_embedding(A, S, upset_cap=v)),
            NotACountError, (S.count_upsets(),), huge=True),
    }


def typed(v):
    """The value with its type, or the tuple with the types of its entries:
    each is a Python int, whatever integer type it was given as."""
    return v, [type(x) for x in v] if isinstance(v, tuple) else type(v)


def point_cases():
    """`BinRel`'s size and bits, the size of `from_matrix` (of a 1 x 1
    matrix), the points of `from_pairs` and the entries of a structure's
    alpha and beta, on two points (so 2 is not a point).
    Alpha and beta take integers outside the points, which
    `validate_structure` reports with witnesses."""
    def structure(alpha, beta):
        S = RelStructure(2, BinRel.identity(2), BinRel.full(2), alpha, beta)
        return typed(S.alpha), typed(S.beta)

    return {
        "BinRel n": Case(lambda v: typed(BinRel(v, 0).n),
                         CarrierMismatchError, (0, 2)),
        "BinRel bits": Case(lambda v: typed(BinRel(2, v).bits),
                            CarrierMismatchError, (0, 9, 15), (16, HUGE)),
        "from_matrix n": Case(
            lambda v: typed(BinRel.from_matrix(v, [[True]]).n),
            CarrierMismatchError, (1,), (2, HUGE)),
        "from_pairs x": Case(lambda v: BinRel.from_pairs(2, [(v, 0)]).bits,
                             CarrierMismatchError, (0, 1), (2, HUGE)),
        "from_pairs y": Case(lambda v: BinRel.from_pairs(2, [(0, v)]).bits,
                             CarrierMismatchError, (0, 1), (2, HUGE)),
        "RelStructure alpha": Case(lambda v: structure((v, 1), (1, 0)),
                                   CarrierMismatchError, (-1, 0, 2),
                                   signed=True),
        "RelStructure beta": Case(lambda v: structure((0, 1), (v, 0)),
                                  CarrierMismatchError, (-1, 1, 2),
                                  signed=True),
    }


@pytest.fixture(scope="module")
def cases(six_embedding):
    out = (element_cases(six_embedding) | count_cases(six_embedding)
           | point_cases())
    assert sorted(out) == sorted(ELEMENT_CALLS + COUNT_CALLS + POINT_CALLS)
    return out


def outcome(call, x):
    """The call's answer, or the type of the documented error it raised."""
    try:
        return call(x)
    except (NotPsiError, LawViolationError, CapExceededError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", ELEMENT_CALLS + COUNT_CALLS + POINT_CALLS)
def test_integer_arguments_follow_one_rule(cases, name):
    # -1 is not the last element (the top of D^6_{3,5,2}, a positive
    # symmetric idempotent) nor a count; a bool, a float, None or an index
    # past the carrier never reaches numpy or a comparison
    case = cases[name]
    for bad in BAD[case.signed:] + case.refuses:
        with pytest.raises(case.error, match=case.message.format(
                bad=re.escape(repr(bad)))):
            case.call(bad)
    for k in case.takes:
        assert outcome(case.call, np.int64(k)) == outcome(case.call, k), k
    if case.huge:
        assert outcome(case.call, HUGE) == outcome(case.call, case.takes[-1])
    assert issubclass(case.error, ValueError)
