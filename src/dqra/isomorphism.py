"""Isomorphism tests for finite algebras and ordered structures.

Backtracking over bijections with invariant pruning; the carriers involved
are small (at most a few hundred elements for algebras extracted from
relational closures, and single digits for ordered structures).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import FiniteDqRA, order_maps


def _algebra_profile(A: FiniteDqRA, a: int) -> tuple:
    """Invariant fingerprint of an element under any isomorphism."""
    return (
        int(A.leq[:, a].sum()),          # elements below
        int(A.leq[a, :].sum()),          # elements above
        a == A.unit,
        int(A.tilde[a] == a),
        int(A.minus[a] == a),
        int(A.negn[a] == a),
        int(A.mult[a, a] == a),
        int((A.mult[a, :] == a).sum()),
        int((A.mult[:, a] == a).sum()),
    )


def algebra_isomorphism(A: FiniteDqRA, B: FiniteDqRA) -> Optional[tuple[int, ...]]:
    """A bijection p with p(unit)=unit preserving order, product and the
    three unary operations, or None.  Searches profile-compatible
    candidates element by element."""
    if A.size != B.size:
        return None
    n = A.size
    profA = [_algebra_profile(A, a) for a in range(n)]
    profB = [_algebra_profile(B, b) for b in range(n)]
    if sorted(profA) != sorted(profB):
        return None
    cands = [[b for b in range(n) if profB[b] == profA[a]] for a in range(n)]

    p: list[int] = [-1] * n
    used = [False] * n

    def consistent(a: int, b: int) -> bool:
        for x in range(n):
            y = p[x]
            if y < 0:
                continue
            if A.leq[a, x] != B.leq[b, y] or A.leq[x, a] != B.leq[y, b]:
                return False
            for (u, v), (s, t) in (((a, x), (b, y)), ((x, a), (y, b))):
                w = p[A.mult[u, v]]
                if w >= 0 and w != B.mult[s, t]:
                    return False
        for tab_a, tab_b in ((A.tilde, B.tilde), (A.minus, B.minus), (A.negn, B.negn)):
            w = p[tab_a[a]]
            if w >= 0 and w != tab_b[b]:
                return False
        return True

    def extend(a: int) -> bool:
        if a == n:
            # full check of every table under the completed map
            q = np.array(p)
            if not np.array_equal(A.leq, B.leq[q][:, q]):
                return False
            if not (q[A.mult] == B.mult[q][:, q]).all():
                return False
            for tab_a, tab_b in ((A.tilde, B.tilde), (A.minus, B.minus),
                                 (A.negn, B.negn)):
                if not (q[tab_a] == tab_b[q]).all():
                    return False
            return True
        for b in cands[a]:
            if used[b]:
                continue
            if a == A.unit and b != B.unit:
                continue
            if consistent(a, b):
                p[a] = b
                used[b] = True
                if extend(a + 1):
                    return True
                p[a] = -1
                used[b] = False
        return False

    if extend(0):
        return tuple(p)
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
