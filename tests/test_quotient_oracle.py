"""The quotient construction on relation bits against the boolean-matrix
code it replaced, kept below as the reference.

Both are run on every full upset algebra of a small structure at every
positive symmetric idempotent, on the shipped representation and on the
closure algebras of single upsets at every element, and on mutants: single images of the shipped representation
replaced, every invalid structure on at most two points whose upset
family still yields an algebra, and seeded walks of single edits away from
every structure on at most three points, and one hand-built algebra whose
order breaks its own meet.  The class map, representatives and emitted
quotient and induced assignment must agree, or the raised exception type and
message must.
"""

import random
import re
from functools import cache
from itertools import product

import numpy as np
import pytest

from dqra import (
    BinRel,
    CapExceededError,
    Embedding,
    FiniteDqRA,
    LawViolationError,
    NotPsiError,
    QuotientStructure,
    RelStructure,
    contract,
    enumerate_structures,
    full_dq_family,
    induced_embedding,
    is_psi,
    psi_elements,
    quotient_representation,
    validate_structure,
    verify_embedding,
)
from dqra.textio import emit_assignment, emit_structure

from conftest import one_generator_closures


# --- the replaced code ---------------------------------------------------------


def _require(cond: bool, message: str, witness=None) -> None:
    if not cond:
        w = f" witness={witness}" if witness is not None else ""
        raise LawViolationError(message + w)


def quotient_reference(e: Embedding, p: int) -> QuotientStructure:
    A, S = e.algebra, e.structure
    if not is_psi(A, p):
        raise NotPsiError(
            f"element {A.label(p)} is not a positive symmetric idempotent")
    rep = verify_embedding(e)
    if not rep.ok:
        raise LawViolationError(
            "embedding does not verify: " + "; ".join(str(c) for c in rep.failures))

    P = e.assignment[p].mat
    nx = S.n
    _require(bool(P.diagonal().all()), "image of p is not reflexive")
    Pu = P.astype(np.uint8)
    tr_bad = ((Pu @ Pu) > 0) & ~P
    _require(not tr_bad.any(), "image of p is not transitive",
             tuple(int(v) for v in np.argwhere(tr_bad)[0]) if tr_bad.any() else None)
    inc_bad = S.leq.mat & ~P
    _require(not inc_bad.any(), "image of p does not contain the order")

    a = np.array(S.alpha)
    b = np.array(S.beta)
    alpha_bad = P != P[a][:, a]
    _require(not alpha_bad.any(), "image of p is not alpha-invariant",
             tuple(int(v) for v in np.argwhere(alpha_bad)[0]) if alpha_bad.any() else None)
    beta_bad = P != P[b][:, b].T
    _require(not beta_bad.any(), "image of p is not beta-reversed-invariant",
             tuple(int(v) for v in np.argwhere(beta_bad)[0]) if beta_bad.any() else None)

    eqv = P & P.T
    reps: list[int] = []
    class_map = [-1] * nx
    for x in range(nx):
        if class_map[x] >= 0:
            continue
        ci = len(reps)
        reps.append(x)
        for y in range(nx):
            if eqv[x, y]:
                class_map[y] = ci
    cm = np.array(class_map)
    nq = len(reps)
    ridx = np.array(reps)

    leq_q = P[ridx][:, ridx]
    wd_bad = P != leq_q[cm][:, cm]
    _require(not wd_bad.any(), "quotient order is not well defined",
             tuple(int(v) for v in np.argwhere(wd_bad)[0]) if wd_bad.any() else None)
    E_q = S.E.mat[ridx][:, ridx]
    ewd_bad = S.E.mat != E_q[cm][:, cm]
    _require(not ewd_bad.any(), "quotient equivalence is not well defined",
             tuple(int(v) for v in np.argwhere(ewd_bad)[0]) if ewd_bad.any() else None)

    alpha_q = tuple(int(cm[a[r]]) for r in reps)
    awd_bad = np.array([alpha_q[cm[x]] != cm[a[x]] for x in range(nx)])
    _require(not awd_bad.any(), "induced alpha is not well defined",
             (int(np.argwhere(awd_bad)[0][0]),) if awd_bad.any() else None)
    beta_q = tuple(int(cm[b[r]]) for r in reps)
    bwd_bad = np.array([beta_q[cm[x]] != cm[b[x]] for x in range(nx)])
    _require(not bwd_bad.any(), "induced beta is not well defined",
             (int(np.argwhere(bwd_bad)[0][0]),) if bwd_bad.any() else None)

    labels = tuple(f"[{S.labels[r]}]" for r in reps)
    quotient = RelStructure(nq, BinRel.from_matrix(nq, leq_q),
                            BinRel.from_matrix(nq, E_q),
                            alpha_q, beta_q, labels)
    qrep = validate_structure(quotient)
    if not qrep.ok:
        raise LawViolationError(
            "quotient fails structure validation: "
            + "; ".join(str(c) for c in qrep.failures))
    return QuotientStructure(S, tuple(class_map), tuple(reps), quotient)


def induced_reference(e: Embedding, p: int) -> Embedding:
    q = quotient_reference(e, p)
    c = contract(e.algebra, p)
    cm = np.array(q.class_map)
    nq = q.n_classes
    images = []
    for parent_elt in c.members:
        src = e.assignment[parent_elt].mat
        psi = np.zeros((nq, nq), dtype=bool)
        xs, ys = np.nonzero(src)
        psi[cm[xs], cm[ys]] = True
        images.append(BinRel.from_matrix(nq, psi))
    emb = Embedding(c.algebra, q.quotient, tuple(images))
    rep = verify_embedding(emb)
    if not rep.ok:
        raise LawViolationError(
            "induced map is not an embedding: "
            + "; ".join(str(ch) for ch in rep.failures))
    return emb


# --- comparison ------------------------------------------------------------------


def outcome(quotient, induced, e: Embedding, p: int):
    try:
        q = quotient(e, p)
        psi = induced(e, p)
    except Exception as exc:
        return type(exc), str(exc)
    return (q.class_map, q.representatives, emit_structure("q", q.quotient),
            emit_assignment("psi", psi))


def assert_same(e: Embedding, p: int):
    want = outcome(quotient_reference, induced_reference, e, p)
    assert outcome(quotient_representation, induced_embedding, e, p) == want
    return want


def full_embedding(S: RelStructure) -> Embedding:
    fam = full_dq_family(S)
    return Embedding(fam.algebra, S, fam.relations)


@cache
def full_pairs() -> list[tuple[Embedding, int]]:
    pairs = []
    for S in (S for n in (1, 2, 3) for S in enumerate_structures(n)):
        try:
            S.count_upsets(64)
        except CapExceededError:
            continue
        e = full_embedding(S)
        pairs += [(e, p) for p in psi_elements(e.algebra)]
    return pairs


def test_full_algebras_at_every_idempotent():
    pairs = full_pairs()
    assert len(pairs) == 71
    for e, p in pairs:
        assert not isinstance(assert_same(e, p)[0], type)


def test_shipped_representation_at_every_element(six, six_embedding):
    for p in range(six.size):
        got = assert_same(six_embedding, p)
        assert (got[0] is NotPsiError) == (p not in psi_elements(six))


def test_one_generator_closures_at_every_element():
    """The closure algebras of single upsets, each with its closure
    embedding: valid algebras, 18 of them no full upset algebra."""
    closures = one_generator_closures()
    assert len(closures) == 25
    for e in closures:
        for p in range(e.algebra.size):
            got = assert_same(e, p)
            assert (got[0] is NotPsiError) == (not is_psi(e.algebra, p))


def test_replaced_images_of_the_shipped_representation(six, six_embedding):
    images = six_embedding.assignment
    for k, r in product(range(six.size), images):
        if r == images[k]:
            continue
        mutant = Embedding(six, six_embedding.structure,
                           images[:k] + (r,) + images[k + 1:])
        for p in psi_elements(six):
            assert assert_same(mutant, p)[0] is LawViolationError


def test_invalid_structures_with_an_upset_algebra():
    """Every structure on one or two points that fails validation, with the
    full family of its upsets as the assignment."""
    reached = set()
    for n in (1, 2):
        funcs = list(product(range(n), repeat=n))
        for leq, E, alpha, beta in product(range(1 << n * n), range(1 << n * n),
                                           funcs, funcs):
            S = RelStructure(n, BinRel(n, leq), BinRel(n, E), alpha, beta)
            if validate_structure(S).ok:
                continue
            try:
                e = full_embedding(S)
                ps = psi_elements(e.algebra)
            except ValueError:
                continue    # no upset algebra
            for p in ps:
                got = assert_same(e, p)
                if got[0] is LawViolationError:
                    reached.add(got[1].split(":")[0].split(" witness")[0])
    # verify_embedding refuses every one of them before the quotient starts
    assert reached == {"algebra does not validate",
                       "structure does not validate"}


def edited(S: RelStructure, rng: random.Random) -> RelStructure:
    """S with one leq or E cell flipped, or one alpha or beta entry
    replaced."""
    n = S.n
    leq, E, alpha, beta = S.leq.bits, S.E.bits, list(S.alpha), list(S.beta)
    kind = rng.randrange(4)
    if kind == 0:
        leq ^= 1 << rng.randrange(n * n)
    elif kind == 1:
        E ^= 1 << rng.randrange(n * n)
    else:
        f = alpha if kind == 2 else beta
        f[rng.randrange(n)] = rng.randrange(n)
    return RelStructure(n, BinRel(n, leq), BinRel(n, E), alpha, beta)


def test_edit_walks_from_every_small_structure():
    """From every structure on at most three points with at most 64 upsets,
    30 seeded edits, each one edit away from the last mutant whose full
    upset family yields an algebra, compared at every element of that
    algebra.  The walk lets edits add up, away from the valid structures
    where every full family verifies."""
    reached = set()
    for n in (1, 2, 3):
        for k, S in enumerate(enumerate_structures(n)):
            try:
                S.count_upsets(64)
            except CapExceededError:
                continue
            rng = random.Random(f"{n}-{k}")
            last = S
            for _ in range(30):
                mutant = edited(last, rng)
                try:
                    e = full_embedding(mutant)
                except (ValueError, CapExceededError):
                    continue    # no upset algebra: walk on from the last
                last = mutant
                for p in range(e.algebra.size):
                    got = assert_same(e, p)
                    if isinstance(got[0], type):
                        reached.add((got[0], got[1].split(":")[0].split(";")[0]
                                     .split(" witness")[0]))
    assert {t for t, _ in reached} >= {NotPsiError}
    assert {m for t, m in reached if t is LawViolationError} >= {
        "algebra does not validate",
        "structure does not validate",
    }


def test_an_order_that_breaks_its_meet_is_refused_at_verification():
    """An algebra in which 1 <= p holds but 1 ^ p is not 1 and a structure
    whose order is the swap of two points: the derived meets and joins of
    the four-element algebra are the intersections and unions of the
    images, so only the algebra's own laws tell it apart from an
    embedding.  Its order is neither reflexive nor transitive, and
    `verify_embedding` refuses it, so the quotient never checks that P
    contains the order."""
    swap, ident = BinRel(2, 0b0110), BinRel.identity(2)
    S = RelStructure(2, swap, BinRel.full(2), (0, 1), (0, 1))
    images = (BinRel.empty(2), swap, ident, BinRel.full(2))
    A = FiniteDqRA(4, [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 1]],
                   [[0, 0, 0, 0], [0, 2, 1, 3], [0, 1, 2, 3], [0, 3, 3, 3]],
                   [3, 2, 1, 0], [3, 2, 1, 0], [3, 2, 1, 0], 1)
    e = Embedding(A, S, images)
    assert is_psi(A, 2)
    assert A.leq[1, 2] and A.meet(1, 2) == 0 and not A.leq[1, 1]
    assert not validate_structure(S).ok
    want = "algebra does not validate: FAIL order-reflexive witness=(1,)"
    with pytest.raises(LawViolationError, match=re.escape(want)):
        verify_embedding(e)
    got = assert_same(e, 2)
    assert got[0] is LawViolationError and got[1].startswith(want)
