"""The exact validator verdicts against the validator they replaced.

`loop_validate_dqra` is `validate_dqra` as it was before the three-variable
laws were decided by join-irreducible criteria: every law scanned row-major
over all m^3 triples.  Every report must match it byte for byte, witnesses
included.
"""

from functools import cache
from itertools import permutations, product

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from dqra import FiniteDqRA, validate_dqra
from dqra.algebra import (LawCheck, ValidationReport, _first_bad, _law_verdicts,
                          _order_bad)
from dqra.relations import full_dq_family, sample_structures

SEED = 20250809    # acceptance criterion 8a


# --- the replaced code ---------------------------------------------------------


def loop_validate_dqra(A: FiniteDqRA) -> ValidationReport:
    """Exhaustively check every defining law of a distributive quasi relation
    algebra, returning one verdict per law with witnesses for failures.

    Covers: partial order, existence of meets and joins, distributivity,
    monoid laws, the residuation equivalences, the linear-negation involution
    law, involutivity of the third negation, and both De Morgan laws.
    """
    n = A.size
    L = A.leq
    M = A.mult
    til, mns, ngn = A.tilde, A.minus, A.negn
    checks: list[LawCheck] = []

    def add(name: str, witness, detail: str = "") -> None:
        checks.append(LawCheck(name, witness is None, witness, detail))

    # partial order
    order_bad = _order_bad(L)
    for name, bad, detail in zip(
            ("order-reflexive", "order-antisymmetric", "order-transitive"),
            order_bad, ("a <= a", "", "")):
        add(name, _first_bad(bad), detail)
    if any(bad.any() for bad in order_bad):
        # lattice and law checks below presume a partial order
        return ValidationReport(tuple(checks))

    mt, jt = A.meet_table, A.join_table
    add("meets-exist", _first_bad(mt < 0))
    add("joins-exist", _first_bad(jt < 0))
    if not ((mt >= 0).all() and (jt >= 0).all()):
        return ValidationReport(tuple(checks))

    # the row loops below fill these m x m buffers in place; every index is
    # in range, so take's "clip" mode is exact and needs no copy of `out`
    ints = [np.empty((n, n), dtype=np.int64) for _ in range(3)]
    lhs, rhs, bad = (np.empty((n, n), dtype=bool) for _ in range(3))

    def take(src, idx, axis, out):
        return src.take(idx, axis, out, "clip")

    # distributivity: a /\ (b \/ c) == (a /\ b) \/ (a /\ c)
    dist_w = None
    for a in range(n):
        take(mt[a], jt, None, ints[0])                      # [b, c]
        take(take(jt, mt[a], 0, ints[1]), mt[a], 1, ints[2])
        if np.not_equal(ints[0], ints[2], out=bad).any():
            dist_w = _first_bad(bad, (a,))
            break
    add("lattice-distributive", dist_w)

    # monoid laws
    add("monoid-unit", _first_bad(
        (M[A.unit, :] != np.arange(n)) | (M[:, A.unit] != np.arange(n))))
    assoc_w = None
    for a in range(n):
        take(M, M[a], 0, ints[0])                           # [b, c]
        take(M[a], M, None, ints[1])
        if np.not_equal(ints[0], ints[1], out=bad).any():
            assoc_w = _first_bad(bad, (a,))
            break
    add("monoid-associative", assoc_w)

    # residuation equivalences: a.b <= c iff a <= -(b.~c) iff b <= ~(-c.a)
    mid_target = mns[M[:, til]]             # [b, c] -> -(b.~c)
    right_src_t = til[M[mns, :]].T.copy()   # [a, c] -> ~(-c.a)
    LT = L.T.copy()
    res1_w = res2_w = None
    for a in range(n):
        take(L, M[a], 0, lhs)                               # [b, c]: a.b <= c
        if res1_w is None:
            take(L[a], mid_target, None, rhs)               # [b, c]
            if np.not_equal(lhs, rhs, out=bad).any():
                res1_w = _first_bad(bad, (a,))
        if res2_w is None:
            take(LT, right_src_t[a], 0, rhs)                # [c, b]
            if np.not_equal(lhs, rhs.T, out=bad).any():     # b <= ~(-c.a)
                res2_w = _first_bad(bad, (a,))
        if res1_w is not None and res2_w is not None:
            break
    add("residuation-left", res1_w, "a.b <= c iff a <= -(b.~c)")
    add("residuation-right", res2_w, "a.b <= c iff b <= ~(-c.a)")

    # linear negation involution: ~-a == a == -~a
    add("linear-involution", _first_bad(
        (til[mns] != np.arange(n)) | (mns[til] != np.arange(n))),
        "~-a = a = -~a")

    # third negation: involutive, De Morgan over joins and over products
    add("neg-involution", _first_bad(ngn[ngn] != np.arange(n)))
    add("de-morgan-join",
        _first_bad(ngn[jt] != mt[ngn[:, None], ngn[None, :]]),
        "neg(a v b) = neg(a) ^ neg(b)")
    # a + b = ~(-b.-a); the factor flip makes + the true dual of the
    # (generally noncommutative) product, and equals -(~b.~a)
    plus_tab = til[M[mns[:, None], mns[None, :]]].T
    add("de-morgan-product",
        _first_bad(ngn[M] != plus_tab[ngn[:, None], ngn[None, :]]),
        "neg(a.b) = neg(a) + neg(b)")

    return ValidationReport(tuple(checks))


# --- comparisons -----------------------------------------------------------------


THREE_VARIABLE = ("lattice-distributive", "monoid-associative",
                  "residuation-left", "residuation-right")


def same_report(A: FiniteDqRA) -> ValidationReport:
    """validate_dqra(A), checked byte for byte against the loop validator.
    Where the order is a lattice, the exact verdicts must also equal the
    loop's, so that a wrong "fails" cannot hide behind the witness scan."""
    report = validate_dqra(A)
    reference = loop_validate_dqra(A)
    assert str(report) == str(reference)
    if "lattice-distributive" in {c.name for c in reference.checks}:
        dist, assoc, left, right = _law_verdicts(A)
        ok = {name: reference[name].ok for name in THREE_VARIABLE}
        assert (dist, left, right) == (ok["lattice-distributive"],
                                       ok["residuation-left"],
                                       ok["residuation-right"])
        assert assoc == (ok["monoid-associative"] if left and right else None)
    return report


def replace(A: FiniteDqRA, **tables) -> FiniteDqRA:
    fields = dict(leq=A.leq, mult=A.mult, tilde=A.tilde, minus=A.minus,
                  negn=A.negn, unit=A.unit)
    fields.update(tables)
    return FiniteDqRA(A.size, **fields)


@cache
def pool() -> tuple[FiniteDqRA, ...]:
    """The full algebras of the pool of acceptance criterion 8a."""
    return tuple(full_dq_family(S, cap=256).algebra for S in
                 sample_structures(4, 200, seed=SEED, upset_cap=256))


@st.composite
def pool_mutants(draw) -> FiniteDqRA:
    """A full algebra of the 8a pool with one or two cells of its order,
    product or unary tables changed."""
    A = draw(st.sampled_from(pool()))
    n = A.size
    cell = st.integers(0, n - 1)
    tables = dict(leq=A.leq.copy(), mult=A.mult.copy(), tilde=A.tilde.copy(),
                  minus=A.minus.copy(), negn=A.negn.copy())
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(tables)))
        t = tables[name]
        at = tuple(draw(cell) for _ in range(t.ndim))
        t[at] = not t[at] if name == "leq" else draw(cell)
    return replace(A, **tables)


@given(pool_mutants())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_pool_mutant_reports_match_the_loop_validator(B):
    same_report(B)


def _lattice(n: int, covers) -> np.ndarray:
    L = np.eye(n, dtype=bool)
    for x, y in covers:
        L[x, y] = True
    for _ in range(n):
        L = L | (L @ L)
    return L


# M3: 0 < 1, 2, 3 < 4; N5: 0 < 1 < 2 < 4 and 0 < 3 < 4.  Each carries a
# product with unit 1 and negations for which every law but distributivity
# holds
M3 = FiniteDqRA(
    5, _lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    [[0, 0, 0, 0, 0], [0, 1, 2, 3, 4], [0, 2, 0, 2, 2], [0, 3, 2, 1, 4],
     [0, 4, 2, 4, 4]],
    [4, 1, 2, 3, 0], [4, 1, 2, 3, 0], [4, 1, 2, 3, 0], 1)
N5 = FiniteDqRA(
    5, _lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]),
    [[0, 0, 0, 0, 0], [0, 1, 2, 3, 4], [0, 2, 4, 3, 4], [0, 3, 3, 0, 3],
     [0, 4, 4, 3, 4]],
    [4, 2, 1, 3, 0], [4, 2, 1, 3, 0], [4, 2, 1, 3, 0], 1)


def relabel(A: FiniteDqRA, perm) -> FiniteDqRA:
    """The copy of A whose element i is A's element perm[i]."""
    p = np.asarray(perm)
    q = np.argsort(p)
    return FiniteDqRA(A.size, A.leq[np.ix_(p, p)], q[A.mult[np.ix_(p, p)]],
                      q[A.tilde[p]], q[A.minus[p]], q[A.negn[p]],
                      int(q[A.unit]))


def test_m3_and_n5_fail_only_distributivity():
    # every labelling, so each join-irreducible is the last one once
    for A in (M3, N5):
        for perm in permutations(range(5)):
            report = same_report(relabel(A, perm))
            assert [c.name for c in report.failures] == ["lattice-distributive"]


def test_residuated_but_not_associative():
    """A 4-chain whose product is residuated but not associative: the
    associativity verdict comes from J^3."""
    L = _lattice(4, [(0, 1), (1, 2), (2, 3)])
    rev = [3, 2, 1, 0]
    A = FiniteDqRA(4, L, [[0, 0, 0, 0], [0, 0, 1, 2], [0, 1, 2, 3],
                          [0, 2, 3, 3]], rev, rev, rev, 2)
    for perm in permutations(range(4)):
        B = relabel(A, perm)
        report = same_report(B)
        assert not report["monoid-associative"].ok
        assert report["residuation-left"].ok and report["residuation-right"].ok
        assert _law_verdicts(B)[1] is False


def test_one_residuation_law_without_the_other():
    """On a 3-chain, a zero product with these negations satisfies the left
    residuation law and not the right one; the opposite algebra (factors
    swapped, ~ and - exchanged) the other way round."""
    L = _lattice(3, [(0, 1), (1, 2)])
    zero = np.zeros((3, 3), dtype=np.int64)
    A = FiniteDqRA(3, L, zero, [0, 1, 2], [2, 0, 1], [0, 1, 2], 0)
    opposite = FiniteDqRA(3, L, zero.T, A.minus, A.tilde, A.negn, 0)
    for B, left in ((A, True), (opposite, False)):
        for perm in permutations(range(3)):
            report = same_report(relabel(B, perm))
            assert report["residuation-left"].ok is left
            assert report["residuation-right"].ok is not left


def test_residuation_failure_leaves_associativity_to_the_scan(six):
    """A changed tilde cell breaks residuation but not the product, so the
    associativity verdict comes from the row scan, which finds no witness."""
    for x in range(six.size):
        for v in range(six.size):
            if v == six.tilde[x]:
                continue
            tilde = six.tilde.copy()
            tilde[x] = v
            report = same_report(replace(six, tilde=tilde))
            assert report["monoid-associative"].ok
            assert not report["residuation-left"].ok


# --- the residuation shortcut for order-reversing negations ----------------------


def antitone(A: FiniteDqRA) -> bool:
    """Whether ~ reverses the order in the iff sense and - is its inverse,
    the case in which `_residuation_verdicts` checks one map's steps."""
    L, til, mns = A.leq, A.tilde, A.minus
    return bool((L[til][:, til] == L.T).all()
                and (til[mns] == np.arange(A.size)).all())


def test_negations_that_do_not_reverse_the_order():
    """Pool algebras whose ~ is changed at a comparable pair (with - its
    inverse), or whose - is changed at one element: all four maps' steps
    are checked, and every report matches the loop validator.  On the
    3-chain, a product for which checking x -> x.b alone would pass the
    right residuation law: with ~ a rotation and - its inverse, and with
    ~ the order reversal and - the identity."""
    L = _lattice(3, [(0, 1), (1, 2)])
    M = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    for tilde, minus in (([2, 0, 1], [1, 2, 0]), ([2, 1, 0], [0, 1, 2])):
        B = FiniteDqRA(3, L, M, tilde, minus, [2, 1, 0], 1)
        assert not antitone(B)
        assert not same_report(B)["residuation-right"].ok
    seen = 0
    for A in [A for A in pool() if A.size <= 64][::6]:
        n, L = A.size, A.leq
        below = np.argwhere(L & ~np.eye(n, dtype=bool))
        if not len(below):
            continue
        for a, b in below[::max(1, len(below) // 3)]:
            tilde = A.tilde.copy()
            tilde[[a, b]] = tilde[[b, a]]
            minus = np.argsort(tilde)
            for B in (replace(A, tilde=tilde, minus=minus),
                      replace(A, minus=np.roll(A.minus, 1))):
                assert not antitone(B)
                same_report(B)
                seen += 1
    assert seen >= 50


def literal_residuation(L: np.ndarray, M: np.ndarray, neg: np.ndarray):
    """Both residuation laws over all triples, for product tables M[t] on
    one order with ~ = - = neg: a.b <= c iff a <= -(b.~c), and iff
    b <= ~(-c.a)."""
    n = L.shape[0]
    i = np.arange(n)
    t = np.arange(len(M))[:, None, None]
    ab_c = L[M[:, :, :, None], i]                       # [t, a, b, c]
    left = L[i[:, None, None], neg[M[:, :, neg]][:, None]]
    right = L[i[None, :, None], neg[M[t, neg[i][None, None, :],
                                      i[None, :, None]]][:, :, None]]
    return ((ab_c == left).all(axis=(1, 2, 3)),
            (ab_c == right).all(axis=(1, 2, 3)))


def test_product_tables_of_a_three_chain_where_monotonicity_decides():
    """On the 3-chain with ~ = - = the order reversal, the shortcut applies.
    Its verdicts are checked against both laws taken literally on the
    product tables whose outcome hangs on monotonicity: those where a law's
    two inequalities hold, or where exactly one argument of the product is
    monotone."""
    L = _lattice(3, [(0, 1), (1, 2)])
    rev = np.array([2, 1, 0])
    tables = np.array(list(product(range(3), repeat=9))).reshape(-1, 3, 3)
    left, right = literal_residuation(L, tables, rev)
    x, y = np.nonzero(L)
    t = np.arange(len(tables))[:, None, None]
    i = np.arange(3)
    g_left = rev[tables[:, :, rev]]                     # [t, b, c]: -(b.~c)
    f_g = tables[t, g_left, i[:, None]]                 # (-(b.~c)).b
    g_f = g_left[t, i[:, None], tables.transpose(0, 2, 1)]
    inequalities = (L[f_g, i].all(axis=(1, 2))
                    & L[i, g_f].all(axis=(1, 2)))
    first = L[tables[:, x, :], tables[:, y, :]].all(axis=(1, 2))
    second = L[tables[:, :, x], tables[:, :, y]].all(axis=(1, 2))
    picked = np.flatnonzero(inequalities | (first != second))
    assert (inequalities & ~first & ~second).sum() == 202
    assert not (inequalities & (first != second)).any()
    for k in picked[::4]:
        A = FiniteDqRA(3, L, tables[k], rev, rev, rev, 1)
        assert antitone(A)
        assert _law_verdicts(A)[2:] == (left[k], right[k]), tables[k]
    assert left.sum() == right.sum() == 5
