"""Cross-validation of the vectorized law checker against a naive one.

The reference implementation below uses nothing but triple loops and
brute-force bound search, so a silent indexing mistake in the vectorized
validator cannot hide behind a matching mistake here.
"""

import numpy as np
import pytest

from dqra import BinRel, FiniteDqRA, RelStructure, full_dq, validate_dqra
from dqra.relations import enumerate_structures, sample_structures

from conftest import ALL_NAMES


def naive_verdicts(A: FiniteDqRA) -> dict[str, bool]:
    n = A.size
    le = lambda x, y: bool(A.leq[x, y])
    mul = lambda x, y: int(A.mult[x, y])
    til = lambda x: int(A.tilde[x])
    mns = lambda x: int(A.minus[x])
    ngn = lambda x: int(A.negn[x])
    rng = range(n)

    out = {}
    out["order-reflexive"] = all(le(a, a) for a in rng)
    out["order-antisymmetric"] = all(
        not (le(a, b) and le(b, a)) or a == b for a in rng for b in rng)
    out["order-transitive"] = all(
        not (le(a, b) and le(b, c)) or le(a, c)
        for a in rng for b in rng for c in rng)

    def glb(a, b):
        lows = [x for x in rng if le(x, a) and le(x, b)]
        best = [x for x in lows if all(le(y, x) for y in lows)]
        return best[0] if best else None

    def lub(a, b):
        ups = [x for x in rng if le(a, x) and le(b, x)]
        best = [x for x in ups if all(le(x, y) for y in ups)]
        return best[0] if best else None

    meets = {(a, b): glb(a, b) for a in rng for b in rng}
    joins = {(a, b): lub(a, b) for a in rng for b in rng}
    out["meets-exist"] = all(v is not None for v in meets.values())
    out["joins-exist"] = all(v is not None for v in joins.values())
    if not (out["meets-exist"] and out["joins-exist"]):
        return out

    out["lattice-distributive"] = all(
        meets[a, joins[b, c]] == joins[meets[a, b], meets[a, c]]
        for a in rng for b in rng for c in rng)
    out["monoid-unit"] = all(
        mul(A.unit, a) == a and mul(a, A.unit) == a for a in rng)
    out["monoid-associative"] = all(
        mul(mul(a, b), c) == mul(a, mul(b, c))
        for a in rng for b in rng for c in rng)
    out["residuation-left"] = all(
        le(mul(a, b), c) == le(a, mns(mul(b, til(c))))
        for a in rng for b in rng for c in rng)
    out["residuation-right"] = all(
        le(mul(a, b), c) == le(b, til(mul(mns(c), a)))
        for a in rng for b in rng for c in rng)
    out["linear-involution"] = all(
        til(mns(a)) == a and mns(til(a)) == a for a in rng)
    out["neg-involution"] = all(ngn(ngn(a)) == a for a in rng)
    out["de-morgan-join"] = all(
        ngn(joins[a, b]) == meets[ngn(a), ngn(b)] for a in rng for b in rng)

    def plus(a, b):
        return til(mul(mns(b), mns(a)))

    out["de-morgan-product"] = all(
        ngn(mul(a, b)) == plus(ngn(a), ngn(b)) for a in rng for b in rng)
    return out


def compare(A: FiniteDqRA) -> None:
    fast = {c.name: c.ok for c in validate_dqra(A).checks}
    slow = naive_verdicts(A)
    for name, verdict in slow.items():
        assert fast.get(name) == verdict, f"{name}: fast={fast.get(name)} naive={verdict}"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalogue_verdicts_agree(algebras, name):
    compare(algebras[name])


def test_noncommutative_full_algebra_verdicts_agree():
    leq = BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    S = RelStructure(2, leq, BinRel.full(2), (0, 1), (1, 0))
    compare(full_dq(S))


def test_sampled_full_algebras_verdicts_agree():
    for S in sample_structures(3, 6, seed=99, upset_cap=24):
        compare(full_dq(S, cap=24))


def test_mutant_verdicts_agree(six):
    rng = np.random.default_rng(4242)
    for _ in range(40):
        mult = six.mult.copy()
        til = six.tilde.copy()
        ngn = six.negn.copy()
        which = rng.integers(0, 3)
        if which == 0:
            mult[rng.integers(0, 6), rng.integers(0, 6)] = rng.integers(0, 6)
        elif which == 1:
            til[rng.integers(0, 6)] = rng.integers(0, 6)
        else:
            ngn[rng.integers(0, 6)] = rng.integers(0, 6)
        mutant = FiniteDqRA(6, six.leq, mult, til, six.minus, ngn, six.unit)
        compare(mutant)


def naive_witnesses(A: FiniteDqRA) -> dict[str, object]:
    """First row-major (a, b, c) violating each three-variable law, or None.
    Meets and joins come from the algebra's tables, which
    test_meet_join_tables_agree_with_order checks against the order."""
    n = A.size
    L = A.leq.tolist()
    M = A.mult.tolist()
    til, mns = A.tilde.tolist(), A.minus.tolist()
    mt, jt = A.meet_table.tolist(), A.join_table.tolist()
    rng = range(n)

    def first(bad):
        return next(((a, b, c) for a in rng for b in rng for c in rng
                     if bad(a, b, c)), None)

    return {
        "lattice-distributive": first(
            lambda a, b, c: mt[a][jt[b][c]] != jt[mt[a][b]][mt[a][c]]),
        "monoid-associative": first(
            lambda a, b, c: M[M[a][b]][c] != M[a][M[b][c]]),
        "residuation-left": first(
            lambda a, b, c: L[M[a][b]][c] != L[a][mns[M[b][til[c]]]]),
        "residuation-right": first(
            lambda a, b, c: L[M[a][b]][c] != L[b][til[M[mns[c]][a]]]),
    }


def test_mutant_witnesses_agree_on_a_large_algebra():
    S = next(S for S in enumerate_structures(4) if S.count_upsets() == 70)
    A = full_dq(S)
    mutants = []
    # the four single-cell order mutants of this algebra that stay lattices
    for a, b in [(5, 8), (7, 12), (58, 63), (62, 65)]:
        leq = A.leq.copy()
        leq[a, b] = False
        mutants.append(FiniteDqRA(70, leq, A.mult, A.tilde, A.minus,
                                  A.negn, A.unit))
    rng = np.random.default_rng(5150)
    for k in range(9):
        mult, til, mns = A.mult.copy(), A.tilde.copy(), A.minus.copy()
        x, y, v = (int(i) for i in rng.integers(0, 70, size=3))
        if k % 3 == 0:
            mult[x, y] = v
        elif k % 3 == 1:
            til[x] = v
        else:
            mns[x] = v
        mutants.append(FiniteDqRA(70, A.leq, mult, til, mns, A.negn, A.unit))
    failed = set()
    for B in mutants:
        report = validate_dqra(B)
        for law, witness in naive_witnesses(B).items():
            assert report[law].witness == witness, law
            if witness is not None:
                failed.add(law)
    assert failed == {"lattice-distributive", "monoid-associative",
                      "residuation-left", "residuation-right"}
