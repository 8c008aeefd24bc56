"""The three negations as cached bit maps against their formulas.

`RelStructure._negations` holds one union-preserving cell map per negation,
applied to the complement E - R: one relation at a time through `_or_map`, a
column through `_map_columns`, which takes the maps stacked into one int64
array, built once with them, when a relation fits a machine word.  The
references are the composition-and-converse formulas of `conftest.py`, with
the converse taken from the transposed matrix.  They are compared on every
upset of every structure with n <= 4 and at most 256 upsets, one relation at
a time and as an int64 column, on an object column of 8-point relations, on
every relation of a structure whose maps are permutations that break the
structure's laws, and on every relation of structures whose maps are not
permutations.
"""

import pickle

import numpy as np
from dqra import BinRel, RelStructure, neg
from dqra.relations import (_map_columns, _or_map, enumerate_structures,
                            validate_structure)

from conftest import ref_minus_bits, ref_neg_bits, ref_tilde_bits

REFS = (ref_tilde_bits, ref_minus_bits, ref_neg_bits)


def one_at_a_time(S: RelStructure, k: int, r: int) -> int:
    """Negation k (0 ~, 1 -, 2 the third) of the bits r, unchecked."""
    return _or_map(S._negations[0][k], S.E.bits & ~r)


def column_negations(S: RelStructure, col: np.ndarray) -> list[np.ndarray]:
    """The three negations of a column of upsets, in the order of REFS."""
    return _map_columns(S._negations[1], S.E.bits & ~col)


def test_every_upset_of_the_small_structures():
    # every structure with n <= 4 and at most 256 upsets (the pool of
    # acceptance criterion 8a): 304 structures, 36,370 upsets
    structures = relations = 0
    for n in (1, 2, 3, 4):
        for S in enumerate_structures(n):
            if S.count_upsets(1 << 16) > 256:
                continue
            bits = [R.bits for R in S.enumerate_upsets(256)]
            structures += 1
            relations += len(bits)
            col = np.array(bits, dtype=np.int64)
            columns = column_negations(S, col)
            for k, (ref, got) in enumerate(zip(REFS, columns)):
                want = [ref(S, r) for r in bits]
                assert [one_at_a_time(S, k, r) for r in bits] == want, (S, k)
                assert got.dtype == np.int64 and got.tolist() == want
    assert (structures, relations) == (304, 36370)


def eight_point_structure() -> RelStructure:
    n = 8
    blocks = ([0, 1, 2], [3, 4], [5], [6], [7])
    E = BinRel.from_pairs(n, [(i, j) for b in blocks for i in b for j in b])
    S = RelStructure(n, BinRel.identity(n), E, (1, 2, 0, 4, 3, 5, 6, 7),
                     (0, 2, 1, 3, 4, 5, 6, 7))
    assert validate_structure(S).ok
    return S


def test_object_column_of_eight_point_relations():
    # 64-bit relations, past a machine word: the maps on an object
    # column.  Under the identity order every part of E is an upset; alpha
    # has a 3-cycle, so alpha and its inverse differ
    S = eight_point_structure()
    n, E = S.n, S.E
    cells = [1 << p for p in range(n * n) if E.bits >> p & 1]
    rng = np.random.default_rng(8)
    bits = [0, E.bits] + [sum(c for c, keep in zip(cells, row) if keep)
                          for row in rng.integers(0, 2, (62, len(cells)))]
    col = np.array(bits, dtype=object)
    for k, (ref, got) in enumerate(zip(REFS, column_negations(S, col))):
        assert got.dtype == object
        assert got.tolist() == [ref(S, r) for r in bits]
        assert [one_at_a_time(S, k, r) for r in bits] == got.tolist()


def test_permutations_that_break_the_laws():
    # beta is a 3-cycle, so it is neither self-inverse nor order-reversing,
    # and alpha;beta;R^c;beta needs the inverse of beta; every subset of E
    # is compared, upset or not
    n = 3
    S = RelStructure(n, BinRel.identity(n), BinRel.full(n), (1, 0, 2),
                     (1, 2, 0))
    assert not validate_structure(S).ok
    bits = list(range(1 << n * n))
    for k, ref in enumerate(REFS):
        want = [ref(S, r) for r in bits]
        assert [one_at_a_time(S, k, r) for r in bits] == want


def test_maps_that_are_not_permutations():
    # -R and the third negation send a cell to every preimage under alpha
    # (under beta;alpha): here two cells, one or none
    n = 3
    bits = list(range(1 << n * n))
    for alpha, beta in (((0, 0, 2), (0, 1, 2)), ((0, 1, 2), (1, 1, 0)),
                        ((2, 2, 2), (0, 0, 1))):
        S = RelStructure(n, BinRel.identity(n), BinRel.full(n), alpha, beta)
        for k, ref in enumerate(REFS):
            assert [one_at_a_time(S, k, r) for r in bits] == [
                ref(S, r) for r in bits], (alpha, beta, k)


def test_a_structure_pickles_after_its_negations():
    # past a machine word too: the structure caches only shared bit maps
    S = eight_point_structure()
    neg(S, S.leq)
    T = pickle.loads(pickle.dumps(S))
    for k, ref in enumerate(REFS):
        assert one_at_a_time(T, k, T.leq.bits) == ref(S, S.leq.bits)
