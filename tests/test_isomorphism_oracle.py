"""`algebra_isomorphism` against the recursive search it replaced.

`ref_algebra_isomorphism` is the old search: its own recursive backtracker
over profile-compatible candidates, with a `-1`-sentinel map and an explicit
unit rule.  The new search runs on the explicit-stack walk behind
`order_maps`.  Both return the lexicographically first isomorphism, so the
return values must be equal: on the catalogue and its contractions, on the
full algebras of the acceptance 8a pool (relabelled too), and on mutants
whose complete maps only the final table comparison rejects.
"""

from functools import cache
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from dqra import FiniteDqRA, contract, isomorphism, load_algebra, psi_elements
from dqra.isomorphism import algebra_isomorphism
from dqra.relations import full_dq_family, sample_structures

from conftest import ALL_NAMES

SEED = 20250809    # acceptance criterion 8a


# --- the replaced code ---------------------------------------------------------


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


def ref_algebra_isomorphism(A: FiniteDqRA, B: FiniteDqRA):
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


# --- inputs ----------------------------------------------------------------------


def relabel(A: FiniteDqRA, perm) -> FiniteDqRA:
    """The copy of A in which element a is called perm[a]."""
    q = np.asarray(perm)
    inv = np.argsort(q)
    return FiniteDqRA(
        A.size, A.leq[inv][:, inv], q[A.mult[inv][:, inv]],
        q[A.tilde[inv]], q[A.minus[inv]], q[A.negn[inv]], int(q[A.unit]))


@cache
def catalogue_and_contractions() -> tuple[FiniteDqRA, ...]:
    """The catalogue algebras and their contractions at every positive
    symmetric idempotent other than the unit (which gives A back)."""
    out = []
    for name in ALL_NAMES:
        A = load_algebra(name)
        out.append(A)
        out += [contract(A, p).algebra for p in psi_elements(A) if p != A.unit]
    return tuple(out)


@cache
def pool_algebras() -> tuple[FiniteDqRA, ...]:
    """The distinct full algebras of the 8a pool, in pool order."""
    seen: dict[bytes, FiniteDqRA] = {}
    for S in sample_structures(4, 200, seed=SEED, upset_cap=256):
        A = full_dq_family(S, cap=256).algebra
        seen.setdefault(A.table_key(), A)
    return tuple(seen.values())


def small_pool_algebras(max_size: int) -> tuple[FiniteDqRA, ...]:
    return tuple(A for A in pool_algebras() if A.size <= max_size)


# --- the comparisons ---------------------------------------------------------------


def test_catalogue_and_contraction_pairs():
    algebras = catalogue_and_contractions()
    assert len(algebras) == 23
    for A in algebras:
        for B in algebras:
            assert algebra_isomorphism(A, B) == ref_algebra_isomorphism(A, B)


def test_pool_algebras_against_themselves_and_relabellings():
    pool = small_pool_algebras(64)
    assert len(pool) == 51
    rng = np.random.default_rng(SEED)
    for A in pool:
        B = relabel(A, rng.permutation(A.size))
        for X, Y in ((A, A), (A, B), (B, A)):
            got = algebra_isomorphism(X, Y)
            assert got is not None and got == ref_algebra_isomorphism(X, Y)


def _mutant(A: FiniteDqRA, table: str, a: int, b: int, shift: int) -> FiniteDqRA:
    """A with one cell changed: an order bit flipped, or a product or unary
    value moved by `shift` (mod the size, so never to itself)."""
    n = A.size
    tabs = {"leq": A.leq.copy(), "mult": A.mult.copy(), "tilde": A.tilde.copy(),
            "minus": A.minus.copy(), "negn": A.negn.copy()}
    if table == "leq":
        tabs["leq"][a, b] = not tabs["leq"][a, b]
    elif table == "mult":
        tabs["mult"][a, b] = (tabs["mult"][a, b] + shift) % n
    else:
        tabs[table][a] = (tabs[table][a] + shift) % n
    return FiniteDqRA(n, unit=A.unit, **tabs)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_single_cell_mutants(data):
    A = data.draw(st.sampled_from(catalogue_and_contractions()
                                  + small_pool_algebras(16)))
    n = A.size
    B = relabel(A, data.draw(st.permutations(range(n))))
    table = data.draw(st.sampled_from(["leq", "mult", "tilde", "minus", "negn"]))
    cell = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    shift = data.draw(st.integers(1, max(1, n - 1)))
    M = _mutant(B, table, *cell, shift)
    assert algebra_isomorphism(A, M) == ref_algebra_isomorphism(A, M)
    assert algebra_isomorphism(M, A) == ref_algebra_isomorphism(M, A)


def test_mutants_reach_the_table_comparison():
    """Every single-cell product mutant of a relabelled D^6_{3,5,2}: both
    searches agree, and some complete maps fail only the final comparison."""
    A = load_algebra("D^6_{3,5,2}")
    B = relabel(A, (3, 0, 5, 1, 4, 2))
    complete = []
    walk = isomorphism._bijections

    def counting(images, fits):
        for p in walk(images, fits):
            complete.append(p)
            yield p

    with mock.patch.object(isomorphism, "_bijections", counting):
        rejected = 0
        for a in range(A.size):
            for b in range(A.size):
                for shift in range(1, A.size):
                    M = _mutant(B, "mult", a, b, shift)
                    before = len(complete)
                    got = algebra_isomorphism(A, M)
                    assert got == ref_algebra_isomorphism(A, M)
                    rejected += len(complete) - before - (got is not None)
    assert rejected > 0


# --- scale ---------------------------------------------------------------------------


def test_identity_on_a_1200_element_chain():
    """No recursion limit: the old search raised RecursionError here."""
    n = 1200
    idx = np.arange(n)
    rev = n - 1 - idx
    chain = FiniteDqRA(n, idx[:, None] <= idx[None, :],
                       np.minimum(idx[:, None], idx[None, :]), rev, rev, rev,
                       n - 1)
    assert algebra_isomorphism(chain, chain) == tuple(range(n))
