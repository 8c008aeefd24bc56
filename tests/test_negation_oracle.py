"""The three negations as cached bit maps against the formulas they replaced.

`_tilde_bits`, `_minus_bits` and `_neg_bits` apply one bit permutation per
negation to the complement E - R.  The references below are the
composition-and-converse formulas as they were, kept verbatim.  They are
compared on every upset of every structure with n <= 4 and at most 256
upsets, one relation at a time and as an int64 column (`_map_columns` of the
structure's `_negations` on E - R), on an object column of 8-point relations, and on every relation of a structure whose maps are
permutations that break the structure's laws.
"""

import pickle

import numpy as np
from dqra import BinRel, RelStructure
from dqra.relations import (_compose, _converse, _map_columns, _minus_bits,
                            _neg_bits, _tilde_bits, enumerate_structures,
                            validate_structure)


def ref_tilde_bits(S: RelStructure, r: int) -> int:
    """~R = converse-of-complement composed with alpha, on the bits of an
    upset R, unchecked."""
    n = S.n
    return _compose(n, _converse(n, S.E.bits & ~r), S.alpha_rel.bits)


def ref_minus_bits(S: RelStructure, r: int) -> int:
    """-R = alpha composed with converse-of-complement, unchecked."""
    n = S.n
    return _compose(n, S.alpha_rel.bits, _converse(n, S.E.bits & ~r))


def ref_neg_bits(S: RelStructure, r: int) -> int:
    """The third negation alpha;beta;R^c;beta, unchecked."""
    n = S.n
    ab = _compose(n, S.alpha_rel.bits, S.beta_rel.bits)
    return _compose(n, _compose(n, ab, S.E.bits & ~r), S.beta_rel.bits)


PAIRS = ((_tilde_bits, ref_tilde_bits), (_minus_bits, ref_minus_bits),
         (_neg_bits, ref_neg_bits))


def column_negations(S: RelStructure, col: np.ndarray) -> list[np.ndarray]:
    """The three negations of a column of upsets, in the order of PAIRS."""
    return _map_columns(S._negations, S.E.bits & ~col)


def test_every_upset_of_the_small_structures():
    # every structure with n <= 4 and at most 256 upsets (the pool of
    # acceptance criterion 8a): 304 structures, 36,370 upsets
    structures = relations = 0
    for n in (1, 2, 3, 4):
        for S in enumerate_structures(n):
            if S.count_upsets(1 << 16) > 256:
                continue
            bits = S._upset_bits(256)
            structures += 1
            relations += len(bits)
            col = np.array(bits, dtype=np.int64)
            for (fast, ref), got in zip(PAIRS, column_negations(S, col)):
                want = [ref(S, r) for r in bits]
                assert [fast(S, r) for r in bits] == want, (S, fast.__name__)
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
    for (fast, ref), got in zip(PAIRS, column_negations(S, col)):
        assert got.dtype == object
        assert got.tolist() == [ref(S, r) for r in bits]
        assert [fast(S, r) for r in bits] == got.tolist()


def test_permutations_that_break_the_laws():
    # beta is a 3-cycle, so it is neither self-inverse nor order-reversing,
    # and alpha;beta;R^c;beta needs the inverse of beta; every subset of E
    # is compared, upset or not
    n = 3
    S = RelStructure(n, BinRel.identity(n), BinRel.full(n), (1, 0, 2),
                     (1, 2, 0))
    assert not validate_structure(S).ok
    bits = list(range(1 << n * n))
    for fast, ref in PAIRS:
        assert [fast(S, r) for r in bits] == [ref(S, r) for r in bits]


def test_a_structure_pickles_after_its_negations():
    # past a machine word too: the structure caches only shared bit maps
    S = eight_point_structure()
    _neg_bits(S, S.leq.bits)
    T = pickle.loads(pickle.dumps(S))
    for fast, ref in PAIRS:
        assert fast(T, T.leq.bits) == ref(S, S.leq.bits)
