"""Law validation and derived operations on table algebras."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqra import (
    FiniteDqRA,
    LawViolationError,
    MalformedAlgebraError,
    check_di,
    check_residuals,
    derived_zero,
    enumerate_structures,
    find_embedding,
    load_algebra,
    plus,
    residuals,
    validate_dqra,
)
from dqra import contraction, relations, textio
from dqra.algebra import (_order_bad, join_generators, lattice_rows,
                          lattice_tables)
from dqra.contraction import contract
from dqra.reconstruct import DIAGRAMS_BY_NAME, reconstruct
from dqra.relations import BinRel, RelStructure, full_dq, full_dq_family

from conftest import ALL_NAMES


def one_element_algebra():
    return FiniteDqRA(1, [[1]], [[0]], [0], [0], [0], 0)


def test_six_element_file_validates(six):
    assert validate_dqra(six).ok


def test_one_element_algebra_validates():
    assert validate_dqra(one_element_algebra()).ok


def test_transitivity_failure_found_past_256_elements():
    # (0, 1) is missing although 256 paths 0 <= b <= 1 exist: a path count
    # kept in 8 bits wraps to 0 and would hide it
    n = 258
    leq = np.ones((n, n), dtype=bool)
    leq[0, 1] = False
    zeros = np.zeros(n, dtype=np.int64)
    A = FiniteDqRA(n, leq, np.zeros((n, n), dtype=np.int64), zeros, zeros,
                   zeros, 0)
    assert validate_dqra(A)["order-transitive"].witness == (0, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 80), st.integers(0, 2**32 - 1), st.floats(0, 1))
def test_order_bad_matches_the_matrix_formulas(m, seed, density):
    # a random relation, its transitive closure, and the closure less one
    # cell, against the boolean product: the float32 product that
    # `_order_bad` takes must mark the same transitivity cells
    rng = np.random.default_rng(seed)
    L = rng.random((m, m)) < density
    closure = L.copy()
    for k in range(m):
        closure |= closure[:, k:k + 1] & closure[k]
    cut = closure.copy()
    cut.flat[rng.integers(m * m)] = False
    for R in (L, closure, cut):
        refl, anti, trans = _order_bad(R)
        assert np.array_equal(refl, ~R.diagonal())
        assert np.array_equal(anti, R & R.T & ~np.eye(m, dtype=bool))
        assert np.array_equal(trans, (R @ R) & ~R)
    assert not _order_bad(closure)[2].any()


def test_bottom_and_top_are_the_first_extremes_or_none(algebras):
    for A in algebras.values():
        assert A.bottom == next(a for a in range(A.size) if A.leq[a].all())
        assert A.top == next(a for a in range(A.size) if A.leq[:, a].all())
    # a 2-antichain below a top has no bottom
    leq = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    zeros = np.zeros(3, dtype=np.int64)
    A = FiniteDqRA(3, leq, np.zeros((3, 3), dtype=np.int64), zeros, zeros,
                   zeros, 0)
    assert (A.bottom, A.top) == (None, 2)


def test_degenerate_zero_and_plus():
    A = one_element_algebra()
    assert derived_zero(A) == 0
    assert plus(A, 0, 0) == 0


def test_neg_replaced_by_identity_fails_de_morgan(six):
    broken = FiniteDqRA(six.size, six.leq, six.mult, six.tilde, six.minus,
                        np.arange(six.size), six.unit, six.labels)
    report = validate_dqra(broken)
    assert not report.ok
    failed = {c.name for c in report.failures}
    assert failed & {"de-morgan-join", "de-morgan-product"}
    # oracle: exhaustively scan for a De Morgan counterexample
    jt = six.join_table
    ngn = np.arange(six.size)
    hits = [
        (a, b)
        for a in range(six.size)
        for b in range(six.size)
        if ngn[jt[a, b]] != six.meet_table[ngn[a], ngn[b]]
    ]
    assert hits, "identity map should break the join law here"
    witness = report["de-morgan-join"].witness
    assert witness is not None and tuple(witness) in hits


@pytest.mark.parametrize("mutation", [
    dict(leq=np.zeros((6, 6), bool)),             # not reflexive
    dict(mult=np.full((6, 6), 9)),                # out of range
    dict(tilde=np.array([0, 1, 2])),              # wrong arity
    dict(unit=17),
    dict(size=0),                                 # empty carrier
    dict(negn=np.array([0, 1, 2, 3, 4, 6])),      # unary out of range
    dict(minus=np.array([0, 1, 2, 3, 4, -1])),
    dict(leq=np.ones((5, 6), bool)),              # wrong order shape
    dict(mult=np.zeros((6, 5), int)),             # wrong product shape
    dict(labels=("a", "a", "b", "c", "d", "e")),  # duplicate labels
    dict(unit=0.5),                               # not an integer
    dict(unit=True),                              # a bool
    dict(size=True, leq=[[1]], mult=[[0]], tilde=[0], minus=[0], negn=[0],
         unit=0),                                 # one element, size a bool
])
def test_malformed_tables_rejected(six, mutation):
    fields = dict(size=six.size, leq=six.leq, mult=six.mult, tilde=six.tilde,
                  minus=six.minus, negn=six.negn, unit=six.unit)
    fields.update(mutation)
    if "leq" in mutation and np.shape(mutation["leq"]) == (6, 6):
        # shape-valid but law-breaking order is caught by validation instead
        A = FiniteDqRA(**fields)
        assert not validate_dqra(A).ok
    else:
        with pytest.raises(MalformedAlgebraError):
            FiniteDqRA(**fields)


def test_derived_zero_is_the_coatom(six):
    z = derived_zero(six)
    assert six.labels[z] == "0"
    # the zero sits above both non-trivial idempotents in this algebra
    assert six.le(six.index_of("a"), z) and six.le(six.index_of("b"), z)


def test_derived_zero_detects_disagreement(six):
    mutated = FiniteDqRA(six.size, six.leq, six.mult, six.tilde,
                         six.minus, np.roll(six.negn, 1), six.unit)
    with pytest.raises(LawViolationError):
        derived_zero(mutated)


def test_zero_of_two_element_full_algebra():
    # over a single point the complement of the order is empty
    S = RelStructure(1, BinRel.identity(1), BinRel.identity(1), (0,), (0,))
    A = full_dq(S)
    assert A.size == 2
    assert derived_zero(A) == A.bottom


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unit_residuals_are_identity(algebras, name):
    A = algebras[name]
    one = A.unit
    for c in range(A.size):
        left, right = residuals(A, one, c)
        assert left == c and right == c


def test_residual_regression_values(six):
    a = six.index_of("a")
    top = six.index_of("top")
    zero = six.index_of("0")
    assert residuals(six, a, top)[0] == top           # a \ top = top
    assert residuals(six, a, zero)[0] == a            # a \ 0 = a (frozen)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_residuation_equivalences_hold_everywhere(algebras, name):
    A = algebras[name]
    for a in range(A.size):
        for c in range(A.size):
            assert check_residuals(A, a, c)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_plus_has_zero_as_unit(algebras, name):
    A = algebras[name]
    z = derived_zero(A)
    for a in range(A.size):
        assert plus(A, a, z) == a
        assert plus(A, z, a) == a


def test_de_morgan_product_spot_check(six):
    a, b = six.index_of("a"), six.index_of("b")
    lhs = int(six.negn[six.mult[a, b]])
    rhs = plus(six, int(six.negn[a]), int(six.negn[b]))
    assert lhs == rhs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_check_di_passes(algebras, name):
    assert check_di(algebras[name]).ok


def test_check_di_passes_degenerate():
    assert check_di(one_element_algebra()).ok


def test_check_di_catches_swapped_negations(six):
    til = six.tilde.copy()
    mns = six.minus.copy()
    a = six.index_of("a")
    til[a], mns[a] = int(six.minus[six.index_of("b")]), int(six.tilde[six.index_of("b")])
    mutated = FiniteDqRA(six.size, six.leq, six.mult, til, mns, six.negn,
                         six.unit)
    report = check_di(mutated)
    assert not report.ok
    assert any(c.witness is not None for c in report.failures)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unaries_are_dual_isomorphisms(algebras, name):
    A = algebras[name]
    n = A.size
    for tab in (A.tilde, A.minus):
        assert sorted(tab.tolist()) == list(range(n))
        for a in range(n):
            for b in range(n):
                assert A.le(a, b) == A.le(int(tab[b]), int(tab[a]))
                # de Morgan duality of the lattice operations
                assert int(tab[A.join_table[a, b]]) == A.meet(int(tab[a]), int(tab[b]))
    ngn = A.negn
    assert (ngn[ngn] == np.arange(n)).all()
    for a in range(n):
        for b in range(n):
            assert A.le(a, b) == A.le(int(ngn[b]), int(ngn[a]))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_meet_join_tables_agree_with_order(algebras, name):
    A = algebras[name]
    n = A.size
    for a in range(n):
        for b in range(n):
            m = A.meet(a, b)
            lower = [x for x in range(n) if A.le(x, a) and A.le(x, b)]
            assert A.le(m, a) and A.le(m, b)
            assert all(A.le(x, m) for x in lower)
            j = A.join(a, b)
            upper = [x for x in range(n) if A.le(a, x) and A.le(b, x)]
            assert A.le(a, j) and A.le(b, j)
            assert all(A.le(j, x) for x in upper)


@st.composite
def partial_orders(draw):
    """The transitive closure of random edges that go forward in a random
    point order; lattices or not."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[perm[i], perm[j]] = draw(st.booleans())
    for k in range(n):
        leq |= leq[:, k][:, None] & leq[k, :][None, :]
    return leq


@given(partial_orders())
@example(np.eye(2, dtype=bool))                 # two incomparable points
@example(np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
                  dtype=bool))                  # the four-element square
@settings(max_examples=200, deadline=None)
def test_lattice_tables_match_brute_force_bounds(leq):
    n = leq.shape[0]
    rng = range(n)

    def best(cands, le):
        top = [x for x in cands if all(le(y, x) for y in cands)]
        return top[0] if top else -1

    glb = [[best([x for x in rng if leq[x, a] and leq[x, b]],
                 lambda y, x: leq[y, x]) for b in rng] for a in rng]
    lub = [[best([x for x in rng if leq[a, x] and leq[b, x]],
                 lambda y, x: leq[x, y]) for b in rng] for a in rng]
    meet, join = lattice_tables(leq)
    assert meet.tolist() == glb and join.tolist() == lub

    # the elements whose strictly smaller elements have a greatest one, or
    # have none; in a lattice, the bottom and the elements that are not the
    # join of two strictly smaller ones
    below = [[y for y in rng if y != x and leq[y, x]] for x in rng]
    gens = tuple(x for x in rng if not below[x] or any(
        all(leq[z, y] for z in below[x]) for y in below[x]))
    assert join_generators(leq) == gens
    if (join >= 0).all() and (meet >= 0).all():
        bottom = next(a for a in rng if leq[a].all())
        assert gens == tuple(a for a in rng if a == bottom or not any(
            lub[b][c] == a for b in rng for c in rng if a not in (b, c)))


def last_row_at_the_intersection(rows: list[list[bool]]) -> list[list[int]]:
    """Cell by cell: the last x whose row is the intersection of rows a and
    b, -1 where there is none."""
    n = len(rows)
    return [[max((x for x in range(n) if rows[x] == [
        u and v for u, v in zip(rows[a], rows[b])]), default=-1)
        for b in range(n)] for a in range(n)]


def test_lattice_tables_on_arbitrary_boolean_matrices():
    # no orders, rows and columns copied onto others, widths past one and
    # two bytes: the meet table reads the columns, the join table the rows
    rng = np.random.default_rng(1717)
    cases = [np.zeros((0, 0), dtype=bool), np.zeros((3, 3), dtype=bool),
             np.ones((3, 3), dtype=bool)]
    for n in [*rng.integers(1, 10, size=300), 9, 17, 33]:
        m = rng.random((n, n)) < rng.random()
        for _ in range(int(rng.integers(0, 4))):
            i, j, k, l = rng.integers(0, n, size=4)
            m[i] = m[j]
            m[:, k] = m[:, l]
        cases.append(m)
    for m in cases:
        meet, join = lattice_tables(m)
        assert meet.dtype == join.dtype == np.int64
        assert not meet.flags.writeable and not join.flags.writeable
        assert meet.tolist() == last_row_at_the_intersection(m.T.tolist())
        assert join.tolist() == last_row_at_the_intersection(m.tolist())
        assert lattice_rows(m) == (meet.tolist(), join.tolist())


@pytest.mark.parametrize("first", ["meet_table", "join_table"])
def test_either_lattice_table_fills_both(algebras, first):
    for A in algebras.values():
        fresh = FiniteDqRA(A.size, A.leq, A.mult, A.tilde, A.minus, A.negn,
                           A.unit, A.labels)
        getattr(fresh, first)
        assert "_lattice_tables" in vars(fresh)
        meet, join = lattice_tables(fresh.leq)
        assert (fresh.meet_table == meet).all()
        assert (fresh.join_table == join).all()


def test_lattice_rows_are_the_rows_of_the_tables(algebras, six):
    # derived from the order, and set by a family, a contraction and a
    # diagram's reconstruction
    A = algebras["D^4_{3,1}"]
    fresh = FiniteDqRA(A.size, A.leq, A.mult, A.tilde, A.minus, A.negn,
                       A.unit, A.labels)
    S = list(enumerate_structures(2))[-1]
    for B in (fresh, full_dq_family(S).algebra,
              contract(six, six.index_of("a")).algebra,
              reconstruct(DIAGRAMS_BY_NAME["D^4_{3,1}"]).algebra):
        # a family, a contraction and a diagram hand their tables over at
        # construction; the fresh algebra has none before they are read
        assert ("_lattice_tables" in vars(B)) is (B is not fresh)
        rows = B._lattice_rows
        assert rows == (B.meet_table.tolist(), B.join_table.tolist())
        assert all(type(v) is int for row in rows[0] + rows[1] for v in row)


def test_lattice_forms_agree_in_any_order(algebras, six):
    # each form comes from the order (or the one hand-over), whichever is
    # read first: rows then tables, tables then rows, search then validate
    S = list(enumerate_structures(2))[-1]
    makers = [lambda A=A: FiniteDqRA(A.size, A.leq, A.mult, A.tilde,
                                     A.minus, A.negn, A.unit, A.labels)
              for A in algebras.values()]
    makers += [lambda: full_dq_family(S).algebra,
               lambda: contract(six, six.index_of("a")).algebra]
    target = list(enumerate_structures(1))[0]
    for make in makers:
        leq = make().leq
        rows, tables = lattice_rows(leq), lattice_tables(leq)
        for first in ("rows", "tables", "search"):
            B = make()
            if first == "rows":
                B._lattice_rows
            elif first == "search":
                find_embedding(B, target)
                assert validate_dqra(B).ok
            got_tables = B.meet_table, B.join_table
            got_rows = B._lattice_rows
            assert got_rows == rows, first
            for got, want in zip(got_tables, tables):
                assert got.dtype == np.int64 and not got.flags.writeable
                assert np.array_equal(got, want), first


def test_caller_arrays_stay_writable(six):
    leq, mult = six.leq.copy(), six.mult.copy()
    A = FiniteDqRA(six.size, leq, mult, six.tilde, six.minus, six.negn,
                   six.unit)
    key = A.table_key()
    assert leq.flags.writeable and mult.flags.writeable
    assert not A.leq.flags.writeable and not A.mult.flags.writeable
    leq[0, 1] = not leq[0, 1]
    mult[0, 0] = (mult[0, 0] + 1) % six.size
    assert A.table_key() == key
    # read-only arrays are shared, as `relabel` passes them
    assert A.relabel(A.labels).leq is A.leq


def test_builders_hand_over_their_arrays(six, monkeypatch):
    # an extracted, a contracted and a parsed algebra keep the fresh arrays
    # their builder made, handed over read-only, with no copy
    handed = []

    def recording(*args):
        A = FiniteDqRA(*args)
        handed.append((A, args[1:6]))
        return A

    for module in (relations, contraction, textio):
        monkeypatch.setattr(module, "FiniteDqRA", recording)
    S = next(s for s in enumerate_structures(2) if len(s.E) == 4)
    full_dq(S)
    contract(six, six.index_of("a"))
    textio.parse_algebra(textio.emit_algebra("six", six))
    assert len(handed) == 3
    for A, tables in handed:
        for name, table in zip(("leq", "mult", "tilde", "minus", "negn"),
                               tables):
            assert getattr(A, name) is table, name


def test_validation_keeps_no_lattice_rows(algebras):
    for A in algebras.values():
        fresh = FiniteDqRA(A.size, A.leq, A.mult, A.tilde, A.minus, A.negn,
                           A.unit, A.labels)
        assert validate_dqra(fresh).ok
        assert "_lattice_rows" not in fresh.__dict__


@pytest.mark.parametrize("entry", [2, -1, 0.5])
def test_order_entries_other_than_0_and_1_rejected(six, entry):
    # a nonzero entry where the order holds would otherwise read as True
    leq = six.leq.astype(type(entry))
    leq[0, 0] = entry
    with pytest.raises(MalformedAlgebraError,
                       match="order table entries must be 0 or 1"):
        FiniteDqRA(six.size, leq, six.mult, six.tilde, six.minus, six.negn,
                   six.unit)
    leq[0, 0] = 1
    B = FiniteDqRA(six.size, leq, six.mult, six.tilde, six.minus, six.negn,
                   six.unit)
    assert np.array_equal(B.leq, six.leq) and validate_dqra(B).ok


def test_validation_is_idempotent(six):
    first = validate_dqra(six)
    second = validate_dqra(six)
    assert first == second and first.ok


@given(st.sampled_from(ALL_NAMES), st.data())
@settings(max_examples=60, deadline=None)
def test_product_is_order_preserving(name, data):
    A = load_algebra(name)
    n = A.size
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    if A.le(a, b):
        assert A.le(int(A.mult[a, c]), int(A.mult[b, c]))
        assert A.le(int(A.mult[c, a]), int(A.mult[c, b]))


@given(st.sampled_from(ALL_NAMES), st.data())
@settings(max_examples=60, deadline=None)
def test_star_star_clauses_agree_pointwise(name, data):
    A = load_algebra(name)
    n = A.size
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    lhs = A.le(int(A.mult[a, b]), c)
    mid = A.le(a, int(A.minus[A.mult[b, A.tilde[c]]]))
    rgt = A.le(b, int(A.tilde[A.mult[A.minus[c], a]]))
    assert lhs == mid == rgt
