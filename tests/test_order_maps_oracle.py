"""Oracle for the one pruned permutation search, `algebra.order_maps`, and
for the block-wise poset enumeration, `relations._all_posets`.

The references below are the brute-force scans they replaced: the
dual-isomorphism scan of the reconstruction, the per-partition automorphism
loop of `enumerate_structures`, the permutation loop of
`structure_isomorphism` and the one-pattern-at-a-time poset scan.  Each is
compared with the new code, order included.
"""

from itertools import permutations

import numpy as np
import pytest

from dqra import catalogue_names, load_algebra
from dqra.algebra import _order_bad, order_maps
from dqra.isomorphism import structure_isomorphism
from dqra.reconstruct import DIAGRAMS, _closure_leq
from dqra.relations import (BinRel, RelStructure, _all_posets, _partitions,
                            enumerate_structures)


def ref_order_maps(leq, dual=False):
    """Every permutation p, in itertools order, with leq == leq[p][:, p]
    (its transpose when dual); with dual=True this is the old
    `reconstruct._dual_isos`."""
    n = leq.shape[0]
    out = []
    for p in permutations(range(n)):
        q = np.array(p)
        image = leq[q][:, q]
        if np.array_equal(leq, image.T if dual else image):
            out.append(p)
    return out


def scan_all(posets, n, dual):
    """`ref_order_maps` on every poset of one size, with the permutations
    stacked into one array: the same scan, fast enough for n = 5."""
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    out = []
    for L in posets:
        images = L[perms[:, :, None], perms[:, None, :]]
        if dual:
            images = images.transpose(0, 2, 1)
        hit = (images == L).all(axis=(1, 2))
        out.append([tuple(int(v) for v in p) for p in perms[hit]])
    return out


def ref_all_posets(n):
    """The old `_all_posets`: every off-diagonal bit pattern in turn."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    both_ways = [1 << k | 1 << off.index((j, i))
                 for k, (i, j) in enumerate(off) if i < j]
    for bits in range(1 << len(off)):
        if any(bits & pair == pair for pair in both_ways):
            continue
        m = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(off):
            if bits >> k & 1:
                m[i, j] = True
        if not any(bad.any() for bad in _order_bad(m)):
            yield m


def ref_enumerate_structures(n):
    """The old `enumerate_structures`: a permutation scan per partition."""
    perms = list(permutations(range(n)))
    for L in ref_all_posets(n):
        for part in _partitions(list(range(n))):
            E = np.zeros((n, n), dtype=bool)
            for block in part:
                for i in block:
                    for j in block:
                        E[i, j] = True
            if (L & ~E).any():
                continue
            alphas = [p for p in perms
                      if np.array_equal(L, L[np.array(p)][:, np.array(p)])
                      and all(E[x, p[x]] for x in range(n))]
            betas = [p for p in perms
                     if all(p[p[x]] == x for x in range(n))
                     and np.array_equal(L, L[np.array(p)][:, np.array(p)].T)
                     and all(E[x, p[x]] for x in range(n))]
            for a in alphas:
                for b in betas:
                    if all(a[b[a[x]]] == b[x] for x in range(n)):
                        yield RelStructure(n, BinRel.from_matrix(n, L),
                                           BinRel.from_matrix(n, E), a, b)


def ref_structure_isomorphism(S, T):
    """The old `structure_isomorphism`: the first permutation that works."""
    if S.n != T.n:
        return None
    n = S.n
    sl, tl = S.leq.mat, T.leq.mat
    se, te = S.E.mat, T.E.mat
    for perm in permutations(range(n)):
        q = np.array(perm)
        if not np.array_equal(sl, tl[q][:, q]):
            continue
        if not np.array_equal(se, te[q][:, q]):
            continue
        if any(perm[S.alpha[x]] != T.alpha[perm[x]] for x in range(n)):
            continue
        if any(perm[S.beta[x]] != T.beta[perm[x]] for x in range(n)):
            continue
        return perm
    return None


@pytest.fixture(scope="module")
def posets():
    return {n: list(_all_posets(n)) for n in range(1, 6)}


def _key(S):
    return (S.n, S.leq.bits, S.E.bits, S.alpha, S.beta)


@pytest.mark.parametrize("n", range(5))
def test_all_posets_match_the_bit_pattern_scan(n):
    new, old = list(_all_posets(n)), list(ref_all_posets(n))
    assert len(new) == len(old)
    for L, M in zip(new, old):
        assert L.dtype == bool and np.array_equal(L, M)


def test_poset_counts(posets):
    # labelled posets, OEIS A001035
    assert [len(posets[n]) for n in range(1, 6)] == [1, 3, 19, 219, 4231]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("dual", [False, True])
def test_order_maps_match_the_permutation_scan_on_every_poset(posets, n,
                                                              dual):
    expected = scan_all(posets[n], n, dual)
    assert [list(order_maps(L, L, dual)) for L in posets[n]] == expected
    if n <= 4:
        assert [ref_order_maps(L, dual) for L in posets[n]] == expected


def test_order_maps_on_the_reconstruction_diagrams_and_catalogue():
    orders = [_closure_leq(len(d.labels),
                           [(d.labels.index(a), d.labels.index(b))
                            for a, b in d.covers]) for d in DIAGRAMS]
    orders += [load_algebra(name).leq for name in catalogue_names()]
    for leq in orders:
        for dual in (False, True):
            assert list(order_maps(leq, leq, dual)) == ref_order_maps(leq, dual)


def test_order_maps_between_different_orders():
    chain = np.triu(np.ones((3, 3), dtype=bool))
    vee = np.array([[1, 1, 1], [0, 1, 0], [0, 0, 1]], dtype=bool)
    assert list(order_maps(chain, vee)) == []
    assert list(order_maps(vee, vee.T, dual=True)) == [(0, 1, 2), (0, 2, 1)]
    assert list(order_maps(vee.T, vee)) == []
    assert list(order_maps(chain, chain.T)) == [(2, 1, 0)]
    assert list(order_maps(chain, np.eye(4, dtype=bool))) == []
    assert list(order_maps(np.zeros((0, 0)), np.zeros((0, 0)))) == [()]


def test_order_maps_needs_no_recursion_on_a_long_chain():
    # a 1500-chain has one automorphism; recursion would pass the limit
    chain = np.triu(np.ones((1500, 1500), dtype=bool))
    assert list(order_maps(chain, chain)) == [tuple(range(1500))]


@pytest.mark.parametrize("n", range(1, 5))
def test_enumerate_structures_matches_the_permutation_loop(n):
    new = [_key(S) for S in enumerate_structures(n)]
    assert new == [_key(S) for S in ref_enumerate_structures(n)]
    assert len(new) == len(set(new))


def test_structure_isomorphism_matches_the_permutation_loop():
    structures = [S for n in range(1, 4) for S in enumerate_structures(n)]
    found = 0
    for S in structures:
        for T in structures:
            got = structure_isomorphism(S, T)
            assert got == ref_structure_isomorphism(S, T)
            found += got is not None
    assert found > len(structures)   # some pairs are distinct but isomorphic
