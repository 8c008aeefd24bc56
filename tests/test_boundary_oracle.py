"""The relation layer's boundary checks against the layered checks they
replaced, kept below as the reference.

The reference reaches each check through the chain it used to run:
`check_upset` -> `is_upset` -> `BinRel.__le__` -> `BinRel._check`, with
`_checked_upset` testing each negation's result and `_complement` each
residual; a negation's value is its formula (`conftest.py`).  The public operations now test carriers inline and upsets on the
relation bits.  Both must return the same bits, or raise the same exception
class with the same message, on every structure with at most two points
(valid or not; its four maps and both relations range over every value)
with every relation over it, and on operands over mismatched carriers.
"""

from itertools import product

import pytest

from dqra import (BinRel, CarrierMismatchError, LawViolationError,
                  NotAnUpsetError, RelStructure, lneg_minus, lneg_tilde, neg,
                  rel_residuals, validate_structure)
from dqra.relations import _compose, _converse, _or_map, _rel

from conftest import ref_minus_bits, ref_neg_bits, ref_tilde_bits


# --- the replaced code ---------------------------------------------------------


def ref_check(R: BinRel, other: BinRel) -> None:
    if R.n != other.n:
        raise CarrierMismatchError(
            f"carrier sizes differ: {R.n} vs {other.n}")


def ref_le(R: BinRel, other: BinRel) -> bool:
    ref_check(R, other)
    return not R.bits & ~other.bits


def ref_compose(R: BinRel, other: BinRel) -> BinRel:
    ref_check(R, other)
    return _rel(R.n, _compose(R.n, R.bits, other.bits))


def ref_union(R: BinRel, other: BinRel) -> BinRel:
    ref_check(R, other)
    return _rel(R.n, R.bits | other.bits)


def ref_intersection(R: BinRel, other: BinRel) -> BinRel:
    ref_check(R, other)
    return _rel(R.n, R.bits & other.bits)


def ref_complement(r: int, e: int) -> int:
    """Bits of E - R; R must lie within E."""
    if r & ~e:
        raise CarrierMismatchError("complement_in requires a subrelation of E")
    return e & ~r


def ref_complement_in(R: BinRel, E: BinRel) -> BinRel:
    ref_check(R, E)
    return _rel(R.n, ref_complement(R.bits, E.bits))


def ref_is_upset(S: RelStructure, R: BinRel) -> bool:
    if not ref_le(R, S.E):
        return False
    return _or_map(S._up_map, R.bits) == R.bits


def ref_check_upset(S: RelStructure, R: BinRel,
                    what: str = "relation") -> BinRel:
    if R.n != S.n:
        raise CarrierMismatchError(f"{what} carrier does not match structure")
    if not ref_is_upset(S, R):
        raise NotAnUpsetError(f"{what} is not an upset of the pair poset")
    return R


def ref_checked_upset(S: RelStructure, out: BinRel) -> BinRel:
    """A negation's result, which on a valid structure is always an upset."""
    if not ref_is_upset(S, out):
        raise LawViolationError("negation left the upsets; invalid structure")
    return out


def ref_lneg_tilde(S: RelStructure, R: BinRel) -> BinRel:
    ref_check_upset(S, R)
    return ref_checked_upset(S, _rel(S.n, ref_tilde_bits(S, R.bits)))


def ref_lneg_minus(S: RelStructure, R: BinRel) -> BinRel:
    ref_check_upset(S, R)
    return ref_checked_upset(S, _rel(S.n, ref_minus_bits(S, R.bits)))


def ref_neg(S: RelStructure, R: BinRel) -> BinRel:
    ref_check_upset(S, R)
    return ref_checked_upset(S, _rel(S.n, ref_neg_bits(S, R.bits)))


def ref_rel_residuals(S: RelStructure, R: BinRel, T: BinRel
                      ) -> tuple[BinRel, BinRel]:
    ref_check_upset(S, R)
    ref_check_upset(S, T)
    n, e = S.n, S.E.bits
    rc = _converse(n, R.bits)
    tc = e & ~T.bits
    left = ref_complement(_compose(n, rc, tc), e)
    right = ref_complement(_compose(n, tc, rc), e)
    return _rel(n, left), _rel(n, right)


# --- comparison ------------------------------------------------------------------


def outcome(fn, *args):
    """What a call gives: the (n, bits) of each relation returned, a bool,
    or the class and message of the exception raised."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, bool):
        return got
    if isinstance(got, BinRel):
        return got.n, got.bits
    return tuple((r.n, r.bits) for r in got)


NEGATIONS = {
    "lneg_tilde": (lneg_tilde, ref_lneg_tilde),
    "lneg_minus": (lneg_minus, ref_lneg_minus),
    "neg": (neg, ref_neg),
}

UPSET_TESTS = {
    "is_upset": (RelStructure.is_upset, ref_is_upset),
    "check_upset": (RelStructure.check_upset, ref_check_upset),
    "check_upset_generator": (
        lambda S, R: S.check_upset(R, "generator"),
        lambda S, R: ref_check_upset(S, R, "generator")),
}

STRUCTURE_OPS = {**NEGATIONS, **UPSET_TESTS}

RELATION_OPS = {
    "<=": (lambda R, Q: R <= Q, ref_le),
    "compose": (BinRel.compose, ref_compose),
    "union": (BinRel.union, ref_union),
    "intersection": (BinRel.intersection, ref_intersection),
    "complement_in": (BinRel.complement_in, ref_complement_in),
}


def kind(got):
    """An outcome with every returned relation read as "value"."""
    raised = isinstance(got, tuple) and isinstance(got[0], type)
    return got if raised or isinstance(got, bool) else "value"


def relations(n: int) -> list[BinRel]:
    return [BinRel(n, bits) for bits in range(1 << n * n)]


def structures(n: int):
    funcs = list(product(range(n), repeat=n))
    for leq, E, alpha, beta in product(range(1 << n * n), range(1 << n * n),
                                       funcs, funcs):
        yield RelStructure(n, BinRel(n, leq), BinRel(n, E), alpha, beta)


def test_every_structure_on_at_most_two_points():
    """The negations on every relation of every structure; the upset tests
    on every relation and the residuals on every pair of relations once
    for each (n, leq, E), which is all of a structure they read.  On two
    points each (leq, E) is taken with alpha = (0, 0), so from an invalid
    structure."""
    seen: dict[str, set] = {name: set() for name in STRUCTURE_OPS}
    residual_kinds: set = set()
    residual_structures = 0
    for n in (0, 1, 2):
        rels = relations(n)
        orders: set[tuple[int, int]] = set()
        for S in structures(n):
            first = (S.leq.bits, S.E.bits) not in orders
            orders.add((S.leq.bits, S.E.bits))
            ops = STRUCTURE_OPS if first else NEGATIONS
            for name, (fast, ref) in ops.items():
                for R in rels:
                    want = outcome(ref, S, R)
                    assert outcome(fast, S, R) == want, (name, S, R)
                    seen[name].add(kind(want))
            if not first:
                continue
            if n == 2:
                assert not validate_structure(S).ok
            residual_structures += 1
            for R, T in product(rels, rels):
                want = outcome(ref_rel_residuals, S, R, T)
                assert outcome(rel_residuals, S, R, T) == want, (S, R, T)
                residual_kinds.add(kind(want))
    assert residual_structures == 1 + 4 + 256
    # every path of the old chain was taken
    for name in ("lneg_tilde", "lneg_minus", "neg"):
        assert seen[name] == {
            "value",
            (NotAnUpsetError, "relation is not an upset of the pair poset"),
            (LawViolationError,
             "negation left the upsets; invalid structure")}
    assert seen["is_upset"] == {True, False}
    assert seen["check_upset_generator"] == {
        "value",
        (NotAnUpsetError, "generator is not an upset of the pair poset")}
    assert residual_kinds == {
        "value",
        (NotAnUpsetError, "relation is not an upset of the pair poset"),
        (CarrierMismatchError, "complement_in requires a subrelation of E")}


def test_every_pair_of_relations_on_at_most_two_points():
    for n in (0, 1, 2):
        rels = relations(n)
        for name, (fast, ref) in RELATION_OPS.items():
            for R, Q in product(rels, rels):
                assert outcome(fast, R, Q) == outcome(ref, R, Q), (name, R, Q)


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_carrier_mismatched_operands(size):
    """Relations over `size` points against structures over other carriers
    (the valid 2-point antichain and chain, and one invalid 2-point
    structure), and against relations over other carriers."""
    full2 = BinRel.full(2)
    chain = BinRel.from_pairs(2, [(0, 0), (0, 1), (1, 1)])
    targets = [
        RelStructure(2, BinRel.identity(2), BinRel.identity(2), (0, 1),
                     (0, 1)),
        RelStructure(2, chain, full2, (0, 1), (1, 0)),
        RelStructure(2, BinRel.empty(2), BinRel.identity(2), (0, 0), (1, 1)),
        RelStructure(3, BinRel.identity(3), BinRel.full(3), (0, 1, 2),
                     (0, 1, 2)),
    ]
    mismatch = CarrierMismatchError
    rels = relations(size)[:32] + [BinRel.full(size)]
    for S in targets:
        if S.n == size:
            continue
        own = [U for U in relations(S.n) if ref_is_upset(S, U)]
        for R in rels:
            for name, (fast, ref) in STRUCTURE_OPS.items():
                want = outcome(ref, S, R)
                assert want[0] is mismatch
                assert outcome(fast, S, R) == want, (name, S, R)
            for U in own:
                for args in ((S, R, U), (S, U, R)):
                    want = outcome(ref_rel_residuals, *args)
                    assert want[0] is mismatch
                    assert outcome(rel_residuals, *args) == want
    others = [BinRel(m, bits) for m in (0, 1, 2, 3) if m != size
              for bits in (0, (1 << m * m) - 1)]
    for name, (fast, ref) in RELATION_OPS.items():
        for R in rels:
            for Q in others:
                for args in ((R, Q), (Q, R)):
                    want = outcome(ref, *args)
                    assert want == (mismatch, "carrier sizes differ: "
                                    f"{args[0].n} vs {args[1].n}")
                    assert outcome(fast, *args) == want, (name, args)
