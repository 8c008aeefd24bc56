"""`dq_closure` against the worklist it replaced, kept below as the
reference.

The reference pops one relation at a time from a queue that repeats the
insertion order and pushes its three negations, then its four combinations
with every relation seen so far, one pair at a time.  `dq_closure` walks
its growing member list and combines each member with the members so far
as one column.  Both must give the same relations in the same order and
the same table bytes on the antichain example, on seeded generator pairs
over every 4-point structure with 40 upsets, on sampled small structures,
on 8- and 9-point structures (object columns) and under caps at and around
the closure's size; on invalid structures they must raise the same
exception with the same message.  Both check the generators first and then
validate the structure once, so no closure over an invalid structure is
built.
"""

from collections import deque
from itertools import product
from typing import Sequence

import numpy as np
import pytest

from dqra import (BinRel, CapExceededError, ClosureResult, RelStructure,
                  dq_closure, enumerate_structures, lneg_minus, lneg_tilde,
                  neg, sample_structures, validate_structure)
from dqra.relations import _canonical_order, _rel, algebra_from_upsets

from conftest import block_structure, ref_compose_bits


# --- the replaced code ---------------------------------------------------------


def closure_reference(S: RelStructure, generators: Sequence[BinRel],
                      cap: int = 4096) -> ClosureResult:
    for g in generators:
        S.check_upset(g, "generator")
    validate_structure(S).raise_if_failed("structure does not validate")
    n = S.n
    seen: dict[int, None] = {}  # insertion-ordered set of relation bits
    work: deque[int] = deque()

    def push(r: int) -> None:
        if r not in seen:
            if len(seen) >= cap:
                raise CapExceededError(f"closure exceeded cap {cap}")
            seen[r] = None
            work.append(r)

    push(S.leq.bits)
    for g in generators:
        push(g.bits)
    while work:
        r = work.popleft()
        R = _rel(n, r)
        push(lneg_tilde(S, R).bits)
        push(lneg_minus(S, R).bits)
        push(neg(S, R).bits)
        for s in list(seen):
            push(r & s)
            push(r | s)
            push(ref_compose_bits(n, r, s))
            push(ref_compose_bits(n, s, r))
    ordered = _canonical_order(S, (_rel(n, r) for r in seen))
    algebra = algebra_from_upsets(S, ordered)
    return ClosureResult(tuple(ordered), algebra, S)


# --- comparison ------------------------------------------------------------------


def outcome(closure, S: RelStructure, gens, cap: int = 4096):
    try:
        res = closure(S, list(gens), cap=cap)
        A = res.algebra
        tables = b"".join(np.ascontiguousarray(t).tobytes() for t in (
            A.leq, A.mult, A.tilde, A.minus, A.negn, A.meet_table,
            A.join_table))
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(r.bits for r in res.relations), A.unit, tables


def assert_same(S: RelStructure, gens, cap: int = 4096):
    want = outcome(closure_reference, S, gens, cap)
    assert outcome(dq_closure, S, gens, cap) == want
    return want


def test_antichain_example(example_structure, example_generators):
    rels = assert_same(example_structure, example_generators)[0]
    assert len(rels) == 6


def test_seeded_pairs_on_the_40_upset_class():
    """Every labelled 4-point structure with 40 upsets (the class of the
    benchmark's closure item), each with three seeded generator pairs."""
    rng = np.random.default_rng(40)
    structures = []
    for S in enumerate_structures(4):
        try:
            if S.count_upsets(40) == 40:
                structures.append(S)
        except CapExceededError:
            continue
    assert len(structures) == 24
    for S in structures:
        ups = S.enumerate_upsets(40)
        for i, j in rng.integers(0, len(ups), (3, 2)):
            assert_same(S, [ups[i], ups[j]])


def test_sampled_small_structures():
    rng = np.random.default_rng(717)
    sizes = set()
    for S in sample_structures(3, 40, seed=31, upset_cap=64):
        ups = S.enumerate_upsets(64)
        k = int(rng.integers(0, 3))
        gens = [ups[int(i)] for i in rng.integers(0, len(ups), size=k)]
        sizes.add(len(assert_same(S, gens)[0]))
    assert len(sizes) > 5


@pytest.mark.parametrize("S, gen, size", [
    (RelStructure(9, BinRel.identity(9), BinRel.identity(9),
                  tuple(range(9)), tuple(range(9))), [(0, 0), (4, 4)], 4),
    (block_structure(8), [(0, 1), (3, 3)], 64),
    (block_structure(7), [(0, 1), (3, 3)], 64),
])
def test_wide_relations_and_caps(S, gen, size):
    gens = [BinRel.from_pairs(S.n, gen)]
    assert len(assert_same(S, gens)[0]) == size
    for cap in (0, 1, size - 1):
        got = assert_same(S, gens, cap)
        assert got == (CapExceededError, f"closure exceeded cap {cap}")
    assert len(assert_same(S, gens, size)[0]) == size


def test_caps_around_the_example(example_structure, example_generators):
    for cap in (0, 1, 5):
        assert assert_same(example_structure, example_generators,
                           cap)[0] is CapExceededError
    assert len(assert_same(example_structure, example_generators, 6)[0]) == 6


def test_invalid_structures():
    """Every structure on at most two points that fails validation, closed
    from the order relation and from each single-cell relation: each raises,
    a generator that is not an upset first, else the failed validation."""
    kinds, closed = set(), 0
    for n in (1, 2):
        funcs = list(product(range(n), repeat=n))
        for leq, E, alpha, beta in product(range(1 << n * n), range(1 << n * n),
                                           funcs, funcs):
            S = RelStructure(n, BinRel(n, leq), BinRel(n, E), alpha, beta)
            if validate_structure(S).ok:
                continue
            for gens in [[]] + [[BinRel(n, 1 << p)] for p in range(n * n)]:
                got = assert_same(S, gens)
                if isinstance(got[0], type):
                    kinds.add(got[1])
                else:
                    closed += 1
    assert not closed
    assert {k.split(": FAIL ")[0] for k in kinds} == {
        "generator is not an upset of the pair poset",
        "structure does not validate"}
