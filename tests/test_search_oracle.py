"""The root-first, interval-bounded embedding search and the interval upset
walk against the code they replaced: the search that scanned the whole
sorted upset universe at every branch, and the walk that only started from
the empty upset."""

from functools import cache
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from dqra import (
    BinRel,
    CapExceededError,
    Embedding,
    LawViolationError,
    RelStructure,
    SearchResult,
    SearchStatus,
    dq_closure,
    enumerate_structures,
    find_embedding,
)
from dqra.relations import _cell, _compose, _minus_bits, _neg_bits, _tilde_bits
from dqra.representation import verify_embedding

SMALL = [S for n in (1, 2, 3) for S in enumerate_structures(n)]


@cache
def four_point_classes() -> list:
    """The first 4-point structure with each upset count."""
    first = {}
    for S in enumerate_structures(4):
        first.setdefault(S.count_upsets(1 << 17), S)
    return [first[k] for k in sorted(first)]


# --- the replaced code ---------------------------------------------------------


def old_upset_bits(S, cap: int) -> list[int]:
    """Upset enumeration from the empty upset over every pair of E."""
    S.count_upsets(cap)
    n = S.n
    pairs = S.pair_list
    k = len(pairs)
    # pair (x, y) lies below (u, v) iff u <= x and y <= v
    L = S.leq.mat
    prec = [[bool(L[u, x] and L[y, v]) for u, v in pairs] for x, y in pairs]
    below = [frozenset(p for p in range(k) if p != q and prec[p][q])
             for q in range(k)]
    strictly_above = [frozenset(q for q in range(k) if q != p and prec[p][q])
                      for p in range(k)]
    bit = [_cell(n, x, y) for x, y in pairs]

    out: list[int] = []
    stack = [(0, frozenset(range(k)))]
    while stack:
        members, remaining = stack.pop()
        if not remaining:
            out.append(members)
            continue
        x = next(p for p in remaining
                 if strictly_above[p].isdisjoint(remaining))
        rest = remaining - {x}
        stack.append((members, rest - below[x]))
        stack.append((members | bit[x], rest))
    return out


@cache
def sorted_universe(S) -> tuple[int, ...]:
    """Every upset of S in the (len, key) order, once per structure."""
    return tuple(sorted(old_upset_bits(S, 1 << 20),
                        key=lambda r: (r.bit_count(), r)))


class _BudgetExhausted(Exception):
    pass


def scan_find_embedding(A, S, budget: int = 200_000,
                        upset_cap: int = 1 << 16) -> SearchResult:
    """The search over the whole upset universe, enumerated and sorted
    before the root propagation, every candidate filtered by the order.
    Only the sorted universe is shared between calls on one structure."""
    S.count_upsets(upset_cap)
    ups = sorted_universe(S)
    n = A.size
    nS = S.n
    leq = A.leq
    tilde, minus, negn = A.tilde.tolist(), A.minus.tolist(), A.negn.tolist()
    mult, meet, join = (A.mult.tolist(), A.meet_table.tolist(),
                        A.join_table.tolist())
    above = [[y for y in range(n) if y != x and leq[x, y]] for x in range(n)]
    below = [[y for y in range(n) if y != x and leq[y, x]] for x in range(n)]

    orbit_size = {}
    for g in A.join_generators:
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for tab in (tilde, minus, negn):
                y = tab[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        orbit_size[g] = len(orbit)
    comparables = {g: int(leq[g, :].sum() + leq[:, g].sum())
                   for g in A.join_generators}
    order = sorted(
        A.join_generators,
        key=lambda g: (g != A.unit, -(orbit_size[g] + comparables[g]), g),
    )

    phi: list[Optional[int]] = [None] * n
    used: dict[int, int] = {}
    nodes = 0

    def fits_order(x: int, r: int) -> bool:
        for y in above[x]:
            q = phi[y]
            if q is not None and r & ~q:
                return False
        for y in below[x]:
            q = phi[y]
            if q is not None and q & ~r:
                return False
        return True

    def assign(x: int, r: int, trail: list[int], queue: list[int]) -> bool:
        cur = phi[x]
        if cur is not None:
            return cur == r
        if r in used or not fits_order(x, r):
            return False
        phi[x] = r
        used[r] = x
        trail.append(x)
        queue.append(x)
        return True

    def propagate(trail: list[int], queue: list[int]) -> bool:
        while queue:
            x = queue.pop()
            r = phi[x]
            if not assign(tilde[x], _tilde_bits(S, r), trail, queue):
                return False
            if not assign(minus[x], _minus_bits(S, r), trail, queue):
                return False
            if not assign(negn[x], _neg_bits(S, r), trail, queue):
                return False
            for y in range(n):
                q = phi[y]
                if q is None:
                    continue
                if not assign(mult[x][y], _compose(nS, r, q), trail, queue):
                    return False
                if not assign(mult[y][x], _compose(nS, q, r), trail, queue):
                    return False
                if not assign(meet[x][y], r & q, trail, queue):
                    return False
                if not assign(join[x][y], r | q, trail, queue):
                    return False
        return True

    def undo(trail: list[int]) -> None:
        for x in trail:
            used.pop(phi[x], None)
            phi[x] = None

    def backtrack(i: int) -> Optional[Embedding]:
        nonlocal nodes
        while i < len(order) and phi[order[i]] is not None:
            i += 1
        if i == len(order):
            if any(v is None for v in phi):
                return None
            cand = Embedding(A, S, tuple(BinRel(nS, r) for r in phi))
            return cand if verify_embedding(cand).ok else None
        x = order[i]
        for r in ups:
            if r in used or not fits_order(x, r):
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            trail: list[int] = []
            queue: list[int] = []
            if assign(x, r, trail, queue) and propagate(trail, queue):
                got = backtrack(i + 1)
                if got is not None:
                    return got
            undo(trail)
        return None

    trail0: list[int] = []
    queue0: list[int] = []
    if not (assign(A.unit, S.leq.bits, trail0, queue0)
            and propagate(trail0, queue0)):
        return SearchResult(SearchStatus.NOT_FOUND, None, 0)
    try:
        found = backtrack(0)
    except _BudgetExhausted:
        return SearchResult(SearchStatus.BUDGET_EXHAUSTED, None, nodes)
    if found is None:
        return SearchResult(SearchStatus.NOT_FOUND, None, nodes)
    return SearchResult(SearchStatus.FOUND, found, nodes)


# --- the search ----------------------------------------------------------------


def outcome(r: SearchResult):
    images = None if r.embedding is None else r.embedding.assignment
    return r.status, r.nodes, images


def test_search_matches_the_scan_on_every_small_structure(algebras):
    for A in algebras.values():
        for S in SMALL:
            assert outcome(find_embedding(A, S)) == outcome(
                scan_find_embedding(A, S)), (A.labels, S)


def test_search_matches_the_scan_on_each_four_point_upset_class(algebras):
    assert len(four_point_classes()) == 17
    for A in algebras.values():
        for S in four_point_classes():
            assert outcome(find_embedding(A, S)) == outcome(
                scan_find_embedding(A, S)), (A.labels, S)


def test_search_matches_the_scan_on_one_generator_closures():
    # many of these embed, some in several ways, so the answer and the node
    # count depend on the candidate order, not only on the candidate set;
    # generators from the structures with at most 64 upsets, at most 8
    # elements per algebra
    algebras = {}
    for S in SMALL:
        if S.count_upsets() > 64:
            continue
        for U in S.enumerate_upsets():
            try:
                A = dq_closure(S, [U], cap=8).algebra
            except CapExceededError:
                continue
            algebras.setdefault(A.table_key(), A)
    found = 0
    for A in algebras.values():
        for S in SMALL:
            got = find_embedding(A, S)
            assert outcome(got) == outcome(scan_find_embedding(A, S)), (
                A.labels, S)
            found += got.found
    assert (len(algebras), found) == (25, 112)


def test_positive_search_and_its_budget_cut_off_match_the_scan(
        six, six_embedding):
    S = six_embedding.structure
    full = scan_find_embedding(six, S)
    assert full.found and outcome(find_embedding(six, S)) == outcome(full)
    for budget in (1, full.nodes - 1, full.nodes):
        want = scan_find_embedding(six, S, budget=budget)
        got = find_embedding(six, S, budget=budget)
        assert outcome(got) == outcome(want), budget
        assert want.status is (SearchStatus.FOUND if budget == full.nodes
                               else SearchStatus.BUDGET_EXHAUSTED)


def test_candidates_count_the_enumerated_upsets(algebras, six, six_embedding,
                                                example_structure):
    refuted = find_embedding(algebras["D^3_{1,1}"], example_structure,
                             upset_cap=1 << 16)
    assert refuted.status is SearchStatus.NOT_FOUND
    assert (refuted.nodes, refuted.candidates) == (0, 0)
    # two branches, each over the 256 upsets between its order bounds
    assert find_embedding(six, six_embedding.structure).candidates == 512


def test_cap_is_checked_before_a_root_refutation(algebras, example_structure):
    # the root propagation refutes this pair, but 2^16 upsets exceed the cap
    with pytest.raises(CapExceededError):
        find_embedding(algebras["D^3_{1,1}"], example_structure,
                       upset_cap=1024)


# --- the upset walk ------------------------------------------------------------


def test_enumeration_order_is_unchanged():
    for S in SMALL + four_point_classes():
        assert [R.bits for R in S.enumerate_upsets(1 << 16)] == \
            old_upset_bits(S, 1 << 16)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interval_walk_equals_a_filter_of_every_upset(data):
    S = data.draw(st.sampled_from(SMALL))
    ups = S._upset_bits(1 << 16)
    a, b = (data.draw(st.sampled_from(ups)) for _ in range(2))
    lo, hi = a & b, a | b
    got = S._upsets_between(lo, hi)
    assert sorted(got) == sorted(r for r in ups if not lo & ~r and not r & ~hi)
    if lo != hi:
        assert S._upsets_between(hi, lo) == []      # empty interval


def test_bounds_that_are_not_upsets_raise(six, six_embedding):
    # on a valid structure the order bounds are always upsets; here the
    # upset test is made to fail, as it would on an invalid structure
    class Broken(RelStructure):
        def is_upset(self, R: BinRel) -> bool:
            return False

    S = six_embedding.structure
    broken = Broken(S.n, S.leq, S.E, S.alpha, S.beta, S.labels)
    with pytest.raises(LawViolationError, match="invalid structure"):
        find_embedding(six, broken)
