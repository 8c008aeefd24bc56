"""The int relation kernel against the plain numpy matrix formulas it
replaced: every operation on random relations, the negations and residuals
on every upset of every small structure, and the upset test and upset
enumeration against a brute-force subset filter."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dqra import (
    BinRel,
    enumerate_structures,
    lneg_minus,
    lneg_tilde,
    neg,
    rel_residuals,
)


def prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product (stacks broadcast)."""
    return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0


def graph(fn) -> np.ndarray:
    n = len(fn)
    g = np.zeros((n, n), dtype=bool)
    g[np.arange(n), list(fn)] = True
    return g


@st.composite
def matrices(draw, n=None, count=1):
    """`count` random n x n boolean matrices; n from 1..9 (n*n need not be
    a multiple of 8) unless given."""
    if n is None:
        n = draw(st.integers(1, 9))
    cells = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    return n, [np.array(draw(cells), dtype=bool).reshape(n, n)
               for _ in range(count)]


def check_ops(n: int, mats: list[np.ndarray]) -> None:
    a, b, e = mats
    A, B, E = (BinRel.from_matrix(n, m) for m in mats)
    assert A.compose(B).mat.tolist() == prod(a, b).tolist()
    assert A.converse().mat.tolist() == a.T.tolist()
    assert A.intersection(B).mat.tolist() == (a & b).tolist()
    assert A.union(B).mat.tolist() == (a | b).tolist()
    AE = A.intersection(E)
    assert AE.complement_in(E).mat.tolist() == (e & ~(a & e)).tolist()
    assert (A <= B) == bool((~a | b).all())
    assert A.key() == np.packbits(a).tobytes()
    assert len(A) == int(a.sum())
    assert A.pairs() == tuple((int(x), int(y)) for x, y in np.argwhere(a))
    for x in range(n):
        for y in range(n):
            assert ((x, y) in A) == bool(a[x, y])


@settings(max_examples=300, deadline=None)
@given(matrices(count=3))
def test_operations_match_numpy(case):
    check_ops(*case)


@settings(max_examples=20, deadline=None)
@given(matrices(n=12, count=3))
def test_operations_match_numpy_at_twelve_points(case):
    check_ops(*case)


@settings(max_examples=200, deadline=None)
@given(matrices(count=2))
def test_matrix_round_trip_equality_and_hash(case):
    n, (a, b) = case
    A = BinRel.from_matrix(n, a)
    assert A.mat.dtype == bool and not A.mat.flags.writeable
    assert A.mat.tolist() == a.tolist()
    twin = BinRel.from_pairs(n, [(int(x), int(y)) for x, y in np.argwhere(a)])
    assert twin == A and hash(twin) == hash(A)
    assert BinRel(n, A.bits) == A
    B = BinRel.from_matrix(n, b)
    assert (A == B) == bool((a == b).all())
    assert (A.bits < B.bits) == (A.key() < B.key())
    assert BinRel.from_matrix(n + 1, np.zeros((n + 1, n + 1), bool)) != \
        BinRel.empty(n)


def upset_stack(ups) -> np.ndarray:
    return np.stack([R.mat for R in ups])


def keys(stack: np.ndarray) -> list[bytes]:
    """np.packbits key of each matrix of an (m, n, n) stack."""
    flat = stack.reshape(len(stack), -1)
    return [row.tobytes() for row in np.packbits(flat, axis=-1)]


def test_negations_match_numpy_on_every_small_upset():
    for n in (1, 2, 3):
        for S in enumerate_structures(n):
            ups = S.enumerate_upsets()
            E = S.E.mat
            G, B = graph(S.alpha), graph(S.beta)
            comp = E[None] & ~upset_stack(ups)
            conv = comp.transpose(0, 2, 1)
            assert [lneg_tilde(S, R).key() for R in ups] == keys(prod(conv, G))
            assert [lneg_minus(S, R).key() for R in ups] == keys(prod(G, conv))
            assert [neg(S, R).key() for R in ups] == keys(
                prod(prod(prod(G, B), comp), B))


def test_residuals_match_numpy_on_every_small_upset_pair():
    # residuals involve only the order and the equivalence
    seen = set()
    for n in (1, 2, 3):
        for S in enumerate_structures(n):
            if (S.leq.key(), S.E.key()) in seen:
                continue
            seen.add((S.leq.key(), S.E.key()))
            ups = S.enumerate_upsets()
            E = S.E.mat
            stack = upset_stack(ups)
            comp = E[None] & ~stack
            for i, R in enumerate(ups):
                conv = stack[i].T[None]
                got = [rel_residuals(S, R, T) for T in ups]
                assert [lo.key() for lo, _ in got] == keys(
                    E[None] & ~prod(conv, comp))                 # R\T
                assert [ro.key() for _, ro in got] == keys(
                    E[None] & ~prod(comp, conv))                 # T/R


def test_is_upset_and_enumerate_upsets_equal_brute_force_filter():
    for n in (1, 2, 3):
        for S in enumerate_structures(n):
            L, E = S.leq.mat, S.E.mat
            pairs = S.E.pairs()
            brute = set()
            for mask in range(1 << len(pairs)):
                m = np.zeros((n, n), dtype=bool)
                for p, (x, y) in enumerate(pairs):
                    m[x, y] = bool(mask >> p & 1)
                upset = (prod(prod(L, m), L) & E).tolist() == m.tolist()
                assert S.is_upset(BinRel.from_matrix(n, m)) == upset
                if upset:
                    brute.add(np.packbits(m).tobytes())
            ups = S.enumerate_upsets()
            assert len(ups) == len(brute)
            assert {R.key() for R in ups} == brute
