"""Isomorphism tests for finite algebras and ordered structures.

Both searches run on `algebra._bijections`, the one lexicographic bijection
walk (which `order_maps` also uses), with invariant pruning.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from .algebra import FiniteDqRA, _bijections, order_maps


def _algebra_profiles(A: FiniteDqRA) -> list[tuple[int, ...]]:
    """Invariant fingerprint of each element under any isomorphism: elements
    below and above, whether it is the unit, fixed by each unary operation
    or idempotent, and how often it occurs in its product row and column."""
    idx = np.arange(A.size)
    M = A.mult
    cols = np.column_stack((
        A.leq.sum(axis=0), A.leq.sum(axis=1), idx == A.unit,
        A.tilde == idx, A.minus == idx, A.negn == idx, M[idx, idx] == idx,
        (M == idx[:, None]).sum(axis=1), (M == idx).sum(axis=0)))
    return list(map(tuple, cols.tolist()))


def algebra_isomorphism(A: FiniteDqRA, B: FiniteDqRA) -> Optional[tuple[int, ...]]:
    """The lexicographically first bijection p with p(unit)=unit preserving
    order, product and the three unary operations, or None.  Places elements
    in index order among profile-compatible images, checking each against
    the elements already placed; a complete map has its tables compared in
    full."""
    if A.size != B.size:
        return None
    profA, profB = _algebra_profiles(A), _algebra_profiles(B)
    if sorted(profA) != sorted(profB):
        return None
    same: dict[tuple[int, ...], list[int]] = {}
    for b, prof in enumerate(profB):
        same.setdefault(prof, []).append(b)
    images = [same[prof] for prof in profA]

    (Al, Ag, Am, At, Au), (Bl, Bg, Bm, Bt, Bu) = (
        (X.leq.tolist(), X.leq.T.tolist(), X.mult.tolist(), X.mult.T.tolist(),
         np.column_stack((X.tilde, X.minus, X.negn)).tolist())
        for X in (A, B))

    def fits(placed: list[int], a: int, v: int) -> bool:
        q = placed + [v]
        if ([Bl[v][y] for y in q] != Al[a][:a + 1]
                or [Bg[v][y] for y in q] != Ag[a][:a + 1]):
            return False
        # a product or unary value that is already placed goes to its image
        values = chain(zip(Am[a], (Bm[v][y] for y in q)),
                       zip(At[a], (Bt[v][y] for y in q)), zip(Au[a], Bu[v]))
        return all(z > a or q[z] == w for z, w in values)

    for p in _bijections(images, fits):
        q = np.array(p)
        if (np.array_equal(A.leq, B.leq[q][:, q])
                and np.array_equal(q[A.mult], B.mult[q][:, q])
                and all(np.array_equal(q[ta], tb[q]) for ta, tb in
                        ((A.tilde, B.tilde), (A.minus, B.minus), (A.negn, B.negn)))):
            return p
    return None


def algebras_isomorphic(A: FiniteDqRA, B: FiniteDqRA) -> bool:
    return algebra_isomorphism(A, B) is not None


def structure_isomorphism(S, T) -> Optional[tuple[int, ...]]:
    """The lexicographically first point bijection carrying (leq, E, alpha,
    beta) of S onto those of T, or None: the first order isomorphism that
    also carries E, alpha and beta."""
    if S.n != T.n:
        return None
    n = S.n
    se, te = S.E.mat, T.E.mat
    for perm in order_maps(S.leq.mat, T.leq.mat):
        q = np.array(perm)
        if not np.array_equal(se, te[q][:, q]):
            continue
        if any(perm[S.alpha[x]] != T.alpha[perm[x]] for x in range(n)):
            continue
        if any(perm[S.beta[x]] != T.beta[perm[x]] for x in range(n)):
            continue
        return perm
    return None


def structures_isomorphic(S, T) -> bool:
    return structure_isomorphism(S, T) is not None
