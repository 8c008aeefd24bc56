"""Embeddings of table algebras into algebras of upsets, a backtracking
search for such embeddings, and the quotient construction that turns a
representation of an algebra into one of its contractions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import FiniteDqRA, LawCheck, LawViolationError, ValidationReport
from .contraction import contract, is_psi, NotPsiError
from .relations import (
    BinRel,
    CarrierMismatchError,
    RelStructure,
    _compose,
    _minus_bits,
    _neg_bits,
    _tilde_bits,
    lneg_minus,
    lneg_tilde,
    neg,
    validate_structure,
)


@dataclass(frozen=True)
class Embedding:
    """An injective assignment of algebra elements to upsets of a structure,
    sending the unit to the order relation and commuting with all six
    operations.  `assignment[k]` is the image of element k."""

    algebra: FiniteDqRA
    structure: RelStructure
    assignment: tuple[BinRel, ...]

    def image(self, a: int) -> BinRel:
        return self.assignment[a]

    def __repr__(self) -> str:
        return (f"Embedding({self.algebra!r} -> {self.structure!r})")


def verify_embedding(e: Embedding) -> ValidationReport:
    """Exhaustively check injectivity, the unit condition and preservation of
    all six operations; failures carry element witnesses."""
    A, S = e.algebra, e.structure
    if len(e.assignment) != A.size:
        raise ValueError("assignment must cover every element")
    for R in e.assignment:
        if R.n != S.n:
            raise CarrierMismatchError(
                "assignment relation carrier does not match the structure")
    checks: list[LawCheck] = []

    def add(name, witness, detail=""):
        checks.append(LawCheck(name, witness is None, witness, detail))

    w = None
    for a, R in enumerate(e.assignment):
        if not S.is_upset(R):
            w = (a,)
            break
    add("images-are-upsets", w)

    w = None
    seen: dict[BinRel, int] = {}
    for a, R in enumerate(e.assignment):
        if R in seen:
            w = (seen[R], a)
            break
        seen[R] = a
    add("injective", w)

    add("unit-is-order",
        None if e.assignment[A.unit] == S.leq else (A.unit,))

    if not A.is_lattice:
        raise LawViolationError("algebra order is not a lattice; validate first")
    if not ValidationReport(tuple(checks)).ok:
        return ValidationReport(tuple(checks))

    phi = e.assignment
    mt, jt, M = A.meet_table, A.join_table, A.mult

    def first_pair(pred) -> Optional[tuple[int, int]]:
        for a in range(A.size):
            for b in range(A.size):
                if not pred(a, b):
                    return (a, b)
        return None

    add("preserves-meet",
        first_pair(lambda a, b: phi[mt[a, b]] == phi[a].intersection(phi[b])))
    add("preserves-join",
        first_pair(lambda a, b: phi[jt[a, b]] == phi[a].union(phi[b])))
    add("preserves-product",
        first_pair(lambda a, b: phi[M[a, b]] == phi[a].compose(phi[b])))

    def first_elt(pred) -> Optional[tuple[int]]:
        for a in range(A.size):
            if not pred(a):
                return (a,)
        return None

    add("preserves-tilde",
        first_elt(lambda a: phi[A.tilde[a]] == lneg_tilde(S, phi[a])))
    add("preserves-minus",
        first_elt(lambda a: phi[A.minus[a]] == lneg_minus(S, phi[a])))
    add("preserves-neg",
        first_elt(lambda a: phi[A.negn[a]] == neg(S, phi[a])))
    return ValidationReport(tuple(checks))


# --- search -----------------------------------------------------------------


class SearchStatus(enum.Enum):
    FOUND = "found"
    NOT_FOUND = "not-found"            # search space exhausted: definitive
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    embedding: Optional[Embedding]
    nodes: int

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _BudgetExhausted(Exception):
    pass


def find_embedding(A: FiniteDqRA, S: RelStructure, budget: int = 200_000,
                   upset_cap: int = 1 << 16) -> SearchResult:
    """Backtracking search for an embedding of A into the upset algebra of S.

    The unit's image is forced to the order relation; images of the three
    unary operations, of meets, joins and products of assigned elements are
    propagated, so only join generators are branched on.  Generators are
    ordered by decreasing constraint degree (unary orbit size plus number of
    comparabilities) since one choice inside an orbit forces the rest.
    Candidates are scanned in a canonical order, so the first embedding found
    is the lexicographically least one and the outcome is reproducible.

    NOT_FOUND means the whole space was refuted within budget and is
    definitive; BUDGET_EXHAUSTED is reported separately.
    """
    ups = S._upset_bits(upset_cap)
    ups.sort(key=lambda r: (r.bit_count(), r))     # the order of (len, key())
    n = A.size
    nS = S.n
    leq = A.leq
    tilde, minus, negn = A.tilde.tolist(), A.minus.tolist(), A.negn.tolist()
    mult, meet, join = (A.mult.tolist(), A.meet_table.tolist(),
                        A.join_table.tolist())
    above = [[y for y in range(n) if y != x and leq[x, y]] for x in range(n)]
    below = [[y for y in range(n) if y != x and leq[y, x]] for x in range(n)]

    # static branching order over join generators
    orbit_size = {}
    for g in A.join_generators:
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for tab in (tilde, minus, negn):
                y = tab[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        orbit_size[g] = len(orbit)
    comparables = {g: int(leq[g, :].sum() + leq[:, g].sum()) for g in A.join_generators}
    order = sorted(
        A.join_generators,
        key=lambda g: (g != A.unit, -(orbit_size[g] + comparables[g]), g),
    )

    # images as relation bits
    phi: list[Optional[int]] = [None] * n
    used: dict[int, int] = {}
    nodes = 0

    def fits_order(x: int, r: int) -> bool:
        """r respects the order against every assigned element."""
        for y in above[x]:
            q = phi[y]
            if q is not None and r & ~q:
                return False
        for y in below[x]:
            q = phi[y]
            if q is not None and q & ~r:
                return False
        return True

    def assign(x: int, r: int, trail: list[int], queue: list[int]) -> bool:
        cur = phi[x]
        if cur is not None:
            return cur == r
        if r in used or not fits_order(x, r):
            return False
        phi[x] = r
        used[r] = x
        trail.append(x)
        queue.append(x)
        return True

    def propagate(trail: list[int], queue: list[int]) -> bool:
        while queue:
            x = queue.pop()
            r = phi[x]
            if not assign(tilde[x], _tilde_bits(S, r), trail, queue):
                return False
            if not assign(minus[x], _minus_bits(S, r), trail, queue):
                return False
            if not assign(negn[x], _neg_bits(S, r), trail, queue):
                return False
            for y in range(n):
                q = phi[y]
                if q is None:
                    continue
                if not assign(mult[x][y], _compose(nS, r, q), trail, queue):
                    return False
                if not assign(mult[y][x], _compose(nS, q, r), trail, queue):
                    return False
                if not assign(meet[x][y], r & q, trail, queue):
                    return False
                if not assign(join[x][y], r | q, trail, queue):
                    return False
        return True

    def undo(trail: list[int]) -> None:
        for x in trail:
            used.pop(phi[x], None)
            phi[x] = None

    def backtrack(i: int) -> Optional[Embedding]:
        nonlocal nodes
        while i < len(order) and phi[order[i]] is not None:
            i += 1
        if i == len(order):
            if any(v is None for v in phi):
                return None     # propagation failed to reach every element
            cand = Embedding(A, S, tuple(BinRel(nS, r) for r in phi))
            return cand if verify_embedding(cand).ok else None  # final gate
        x = order[i]
        for r in ups:
            if r in used or not fits_order(x, r):
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            trail: list[int] = []
            queue: list[int] = []
            if assign(x, r, trail, queue) and propagate(trail, queue):
                got = backtrack(i + 1)
                if got is not None:
                    return got
            undo(trail)
        return None

    trail0: list[int] = []
    queue0: list[int] = []
    if not (assign(A.unit, S.leq.bits, trail0, queue0)
            and propagate(trail0, queue0)):
        return SearchResult(SearchStatus.NOT_FOUND, None, 0)
    try:
        found = backtrack(0)
    except _BudgetExhausted:
        return SearchResult(SearchStatus.BUDGET_EXHAUSTED, None, nodes)
    if found is None:
        return SearchResult(SearchStatus.NOT_FOUND, None, nodes)
    return SearchResult(SearchStatus.FOUND, found, nodes)


# --- quotient construction ---------------------------------------------------


@dataclass(frozen=True)
class QuotientStructure:
    """The structure on the classes of x ~ y iff (x,y) and (y,x) lie in the
    image of a positive symmetric idempotent, with the inherited order,
    equivalence and automorphisms."""

    parent: RelStructure
    class_map: tuple[int, ...]         # point -> class index
    representatives: tuple[int, ...]   # class index -> least member
    quotient: RelStructure

    @property
    def n_classes(self) -> int:
        return len(self.representatives)


def _require(cond: bool, message: str, witness=None) -> None:
    if not cond:
        w = f" witness={witness}" if witness is not None else ""
        raise LawViolationError(message + w)


def quotient_representation(e: Embedding, p: int) -> QuotientStructure:
    """Collapse the carrier along the image of p and rebuild the structure.

    The image of p must be a preorder containing the order relation; the
    images are checked to be invariant under alpha (covariantly) and beta
    (contravariantly), and the induced maps are checked to be well defined
    on every class member, not just representatives.  Any failure aborts
    with a witness since it signals invalid inputs.
    """
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
    # well-definedness over every member, not only representatives
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


def induced_embedding(e: Embedding, p: int) -> Embedding:
    """Push the embedding down to the contraction at p: the image of a member
    is the set of class pairs covering its original image.  The result is
    verified; the unit of the contraction lands on the quotient order."""
    q = quotient_representation(e, p)
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
