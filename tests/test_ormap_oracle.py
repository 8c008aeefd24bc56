"""Union-preserving bit maps on a column of relation ints (`_map_columns`)
against the same map applied one relation at a time (`_or_map`).

A map is a list of tables (`_or_tables`), each read by log2(len)
consecutive bits of a relation int: on at most 3 points one table over
every relation, beyond that 16-entry tables.  `_or_map` indexes a
one-table map with the whole int and reads a longer one four bits at a
time; `_map_columns` stacks the tables, on each call, into one array of
the column's dtype (or takes such an array as it is), takes each table's
width from its length and maps the column in one `take`.  Both must agree
on every carrier size from 0 to 9 points: 0 to 3 points give one table,
cell counts from 4 points on that are not multiples of 4 (25, 49, 81)
leave a short last nibble table, padded with zeros, and from 8 points the
relations are wider than a machine word (object columns).  The maps are
the converse, the three negations and the upward closure.
`_family_tables` takes the negations of every family as one column; on
families of 1 to 15 relations it must give the index of each relation's
own negation.
"""

import numpy as np
import pytest

from dqra import BinRel, RelStructure, lneg_minus, lneg_tilde, neg
from dqra.relations import (_cell_map, _converse, _family_tables,
                            _map_columns, _or_map)

from conftest import block_structure


def column(n: int, bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.int64 if n * n <= 63 else object)


def random_bits(rng: np.random.Generator, n: int, k: int) -> list[int]:
    width = n * n
    return [int.from_bytes(rng.bytes((width + 7) // 8), "big") >> (-width % 8)
            for _ in range(k)] + [0, (1 << width) - 1]


def random_structure(rng: np.random.Generator, n: int) -> RelStructure:
    """A chain under random alpha and beta; the maps need no valid
    structure, only the points, the order and E."""
    leq = BinRel.from_pairs(n, [(i, j) for i in range(n) for j in range(i, n)])
    return RelStructure(n, leq, BinRel.full(n),
                        tuple(int(v) for v in rng.permutation(n)),
                        tuple(int(v) for v in rng.permutation(n)))


def maps(rng: np.random.Generator, n: int):
    """Each map by name: applied to one relation int, and as the tables
    that map a column together with what they are applied to (the
    negations map the complement E - R)."""
    S = random_structure(rng, n)
    tilde, minus, negn = S._negations[0]
    same = lambda r: r
    complement = lambda r: S.E.bits & ~r
    return {"converse": (lambda r: _converse(n, r),
                         _cell_map(n, lambda i, j: [(j, i)]), same),
            "tilde": (lambda r: _or_map(tilde, complement(r)), tilde,
                      complement),
            "minus": (lambda r: _or_map(minus, complement(r)), minus,
                      complement),
            "neg": (lambda r: _or_map(negn, complement(r)), negn,
                    complement),
            "up": (lambda r: _or_map(S._up_map, r), S._up_map, same)}


@pytest.mark.parametrize("n", range(10))
def test_column_matches_one_relation_at_a_time(n):
    rng = np.random.default_rng(n)
    bits = random_bits(rng, n, 40)
    for name, (f, f_map, arg) in maps(rng, n).items():
        want = [f(b) for b in bits]
        for k in (0, 1, 3, 15, len(bits)):
            got, = _map_columns((f_map,), arg(column(n, bits[:k])))
            assert got.shape == (k,), name
            assert got.tolist() == want[:k], (name, k)


@pytest.mark.parametrize("n", range(10))
def test_negation_stack_is_built_once_with_the_maps(n):
    # the stack of the negation maps, int64 or object as the relation
    # column, is made with them and shared by every structure with the
    # same n, alpha and beta
    rng = np.random.default_rng(n)
    S = random_structure(rng, n)
    maps, stack = S._negations
    twin = RelStructure(n, S.leq, S.E, S.alpha, S.beta)
    assert twin._negations[0] is maps and twin._negations[1] is stack
    assert stack.dtype == (np.int64 if n * n <= 63 else object)
    assert stack.tolist() == list(maps)
    col = S.E.bits & ~column(n, random_bits(rng, n, 40))
    assert ([c.tolist() for c in _map_columns(stack, col)]
            == [c.tolist() for c in _map_columns(maps, col)]
            == [[_or_map(f, r) for r in col.tolist()] for f in maps])


@pytest.mark.parametrize("S", [
    RelStructure(2, BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
                 BinRel.full(2), (0, 1), (1, 0)),
    block_structure(4), block_structure(8)])
def test_small_families_get_each_relations_negations(S):
    ups = [r.bits for r in S.enumerate_upsets(1 << 10)]
    rng = np.random.default_rng(S.n)
    for k in range(1, 16):
        # distinct relations: a family of upsets is a set
        bits = [ups[i] for i in rng.permutation(len(ups))[:k]]
        index = {r: i for i, r in enumerate(bits)}
        _, _, unary = _family_tables(S, bits)
        for got, op in zip(unary, (lneg_tilde, lneg_minus, neg)):
            assert got.tolist() == [index.get(op(S, BinRel(S.n, b)).bits, -1)
                                    for b in bits]
