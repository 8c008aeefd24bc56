"""Embeddings of table algebras into algebras of upsets, a backtracking
search for such embeddings, and the quotient construction that turns a
representation of an algebra into one of its contractions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .algebra import (FiniteDqRA, LawCheck, LawViolationError,
                      ValidationReport, _count, _first_bad, _verdict,
                      validate_dqra)
from .contraction import contract, is_psi, NotPsiError
from .relations import (
    BinRel,
    CarrierMismatchError,
    RelStructure,
    _compose,
    _converse,
    _family_tables,
    _or_map,
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

    @cached_property
    def _report(self) -> ValidationReport:
        """`verify_embedding`'s report, kept with the frozen images."""
        return ValidationReport(tuple(_verify_embedding(self)))

    def __repr__(self) -> str:
        return (f"Embedding({self.algebra!r} -> {self.structure!r})")


def verify_embedding(e: Embedding) -> ValidationReport:
    """Exhaustively check injectivity, the unit condition and preservation of
    all six operations; failures carry element witnesses.  An algebra or a
    structure that does not validate raises `LawViolationError` naming its
    failing checks: both reports are kept, so this costs nothing more once
    they are validated.

    Once the images are known to be distinct upsets, each operation's table
    on the images (meets and joins as intersections and unions) comes from
    `_family_tables`, with -1 outside the image set; the witness is the
    first row-major cell that differs from the algebra's table.  An
    embedding is frozen, so the report is computed once and kept on it."""
    return e._report


def _verify_embedding(e: Embedding) -> Iterator[LawCheck]:
    A, S = e.algebra, e.structure
    if len(e.assignment) != A.size:
        raise ValueError("assignment must cover every element")
    for R in e.assignment:
        if R.n != S.n:
            raise CarrierMismatchError(
                "assignment relation carrier does not match the structure")
    validate_dqra(A).raise_if_failed("algebra does not validate")
    validate_structure(S).raise_if_failed("structure does not validate")

    upsets = _verdict("images-are-upsets", next(
        ((a,) for a, R in enumerate(e.assignment) if not S.is_upset(R)), None))
    w = None
    seen: dict[BinRel, int] = {}
    for a, R in enumerate(e.assignment):
        if R in seen:
            w = (seen[R], a)
            break
        seen[R] = a
    images = (upsets, _verdict("injective", w), _verdict(
        "unit-is-order", None if e.assignment[A.unit] == S.leq else (A.unit,)))
    yield from images
    if not all(check.ok for check in images):
        return      # the tables below presume distinct upsets as images

    bits = [R.bits for R in e.assignment]
    _, (product, meet, join), negations = _family_tables(S, bits)
    for name, table, got in (("preserves-meet", A.meet_table, meet),
                             ("preserves-join", A.join_table, join),
                             ("preserves-product", A.mult, product)):
        yield _verdict(name, _first_bad(table != got))
    for name, table, got in zip(
            ("preserves-tilde", "preserves-minus", "preserves-neg"),
            (A.tilde, A.minus, A.negn), negations):
        yield _verdict(name, _first_bad(table != got))


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
    candidates: int = 0     # upsets enumerated, summed over the branches

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _BudgetExhausted(Exception):
    pass


def find_embedding(A: FiniteDqRA, S: RelStructure, budget: int = 200_000,
                   upset_cap: int = 1 << 16) -> SearchResult:
    """Backtracking search for an embedding of A into the upset algebra of S.

    `budget` and `upset_cap` are integers (bools refused) >= 0, else
    NotACountError.  The upsets are bounded, then counted, first
    (`CapExceededError` above `upset_cap`): when leq is a partial order
    and 2^|E| <= upset_cap the bound settles the cap and nothing is
    counted.  An order of A that is not a lattice raises
    `LawViolationError`.  The search reads the order's rows and columns as
    bitmasks (`FiniteDqRA._lattice_masks`, kept on the algebra) and its
    join generators, no arrays: the meet of x and y is the element whose
    column mask is the intersection of theirs, the join the one whose row
    mask is, each looked up in a dict only when propagation reads it.  The
    set-up that only branching needs follows the root and reads the same
    masks.
    The unit's image is forced to the order relation; images of the three
    unary operations, of meets, joins and products of assigned elements are
    propagated, so only join generators are branched on: in a lattice every
    element is a join of them, so a leaf has every image.  The meet and
    join steps also keep the order, as x <= y iff x ^ y = x: an image
    below or above the wrong ones conflicts there.  This root
    propagation needs no upsets, so a structure it refutes costs 0 nodes
    and 0 candidates.  Generators are ordered by decreasing constraint
    degree (unary orbit size plus number of comparabilities) since one
    choice inside an orbit forces the rest.  The candidates for a
    generator x are the upsets r with lo <= r <= hi, where lo is the union
    of the images below x and hi the intersection of the images above it
    (E when there is none); they are enumerated at each branch and scanned
    in the canonical (len, key) order, so the first embedding found is the
    lexicographically least one and the outcome is reproducible.  Bounds
    that are not upsets mean S is not a valid structure, and raise
    `LawViolationError`; so does the final gate, `verify_embedding`, on an
    algebra or a structure that does not validate.

    NOT_FOUND means the whole space was refuted within budget and is
    definitive; BUDGET_EXHAUSTED is reported separately.  Neither means
    anything on inputs that do not validate; validate them first, as the
    CLI does (here that would cost more than a small search).
    """
    budget = _count(budget, "budget")
    S._check_upset_cap(upset_cap)
    n = A.size
    nS = S.n
    E = S.E.bits
    up, down, join_of, meet_of, lattice = A._lattice_masks
    if not lattice:
        raise LawViolationError("algebra order is not a lattice; validate first")
    tilde, minus, negn = A.tilde.tolist(), A.minus.tolist(), A.negn.tolist()
    unary = tuple(zip((tilde, minus, negn), S._negations[0]))
    mult = A.mult.tolist()

    # images as relation bits
    phi: list[Optional[int]] = [None] * n
    used: set[int] = set()
    nodes = 0
    candidates = 0

    def assign(x: int, r: int, trail: list[int]) -> bool:
        cur = phi[x]
        if cur is not None:
            return cur == r
        if r in used:
            return False
        phi[x] = r
        used.add(r)
        trail.append(x)
        return True

    def propagate(trail: list[int]) -> bool:
        """Assign what the trail's elements force, walking it as it grows."""
        for x in trail:
            r = phi[x]
            for table, f in unary:
                if not assign(table[x], _or_map(f, E & ~r), trail):
                    return False
            dx, ux = down[x], up[x]
            for y in range(n):
                q = phi[y]
                if q is None:
                    continue
                if not (assign(mult[x][y], _compose(nS, r, q), trail)
                        and assign(mult[y][x], _compose(nS, q, r), trail)
                        and assign(meet_of[dx & down[y]], r & q, trail)
                        and assign(join_of[ux & up[y]], r | q, trail)):
                    return False
        return True

    def undo(trail: list[int]) -> None:
        for x in trail:
            used.discard(phi[x])
            phi[x] = None

    trail0: list[int] = []
    if not (assign(A.unit, S.leq.bits, trail0) and propagate(trail0)):
        return SearchResult(SearchStatus.NOT_FOUND, None, 0)

    # branching set-up: the order's lists, a static order over generators
    above = [[y for y in range(n) if y != x and up[x] >> y & 1]
             for x in range(n)]
    below = [[y for y in range(n) if y != x and down[x] >> y & 1]
             for x in range(n)]
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
    comparables = {g: up[g].bit_count() + down[g].bit_count()
                   for g in A.join_generators}
    order = sorted(A.join_generators,
                   key=lambda g: (-(orbit_size[g] + comparables[g]), g))

    def interval(x: int) -> list[int]:
        """The upsets between the images below x and above x, in the
        (len, key) order."""
        lo, hi = 0, E
        for y in below[x]:
            q = phi[y]
            if q is not None:
                lo |= q
        for y in above[x]:
            q = phi[y]
            if q is not None:
                hi &= q
        if not (S.is_upset(BinRel(nS, lo)) and S.is_upset(BinRel(nS, hi))):
            raise LawViolationError(
                "search bounds are not upsets; invalid structure")
        ups = S._upsets_between(lo, hi)
        ups.sort(key=lambda r: (r.bit_count(), r))  # the order of (len, key())
        return ups

    def backtrack(i: int) -> Optional[Embedding]:
        nonlocal nodes, candidates
        while i < len(order) and phi[order[i]] is not None:
            i += 1
        if i == len(order):
            cand = Embedding(A, S, tuple(BinRel(nS, r) for r in phi))
            return cand if verify_embedding(cand).ok else None  # final gate
        x = order[i]
        ups = interval(x)
        candidates += len(ups)
        for r in ups:
            if r in used:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            trail: list[int] = []
            if assign(x, r, trail) and propagate(trail):
                got = backtrack(i + 1)
                if got is not None:
                    return got
            undo(trail)
        return None

    try:
        found = backtrack(0)
    except _BudgetExhausted:
        return SearchResult(SearchStatus.BUDGET_EXHAUSTED, None, nodes,
                            candidates)
    if found is None:
        return SearchResult(SearchStatus.NOT_FOUND, None, nodes, candidates)
    return SearchResult(SearchStatus.FOUND, found, nodes, candidates)


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


def _on_classes(R: BinRel, class_map, reps) -> BinRel:
    """R read at the class representatives: cell (reps[i], reps[j]) of R is
    cell (i, j) over the classes, and every other cell is dropped."""
    return BinRel.from_pairs(len(reps), [
        (class_map[x], class_map[y]) for x, y in R.pairs()
        if reps[class_map[x]] == x and reps[class_map[y]] == y])


def quotient_representation(e: Embedding, p: int) -> QuotientStructure:
    """Collapse the carrier along P, the image of p, and rebuild the structure.

    Checked in turn: p is a PSI (NotAnElementError unless it is an index
    of the algebra, from `is_psi`); the embedding verifies, which needs the
    algebra and the structure to validate.  Either failure aborts with a
    witness since it signals invalid inputs.  The rest follows.  1 <= p
    gives 1 ^ p = 1, so the embedding, which preserves meets, puts the
    order inside P, and P is reflexive.  It preserves products, so P;P is
    the image of p.p = p and P is a preorder: P holds between two points
    iff it holds between their representatives.  ~p = -p = neg p makes
    E - P, and so P, invariant under alpha and reversed under beta, which
    send each class into one class.  P lies in the equivalence E, so E is
    well defined on the classes; both are read at the representatives
    (`_on_classes`).  So the quotient is valid, and is not validated again.
    """
    A, S = e.algebra, e.structure
    if not is_psi(A, p):
        raise NotPsiError(
            f"element {A.label(p)} is not a positive symmetric idempotent")
    verify_embedding(e).raise_if_failed("embedding does not verify")

    P = e.assignment[p]
    nx = S.n
    # P is a preorder, so P & P^-1 is an equivalence; the first cell of row
    # x in row-major order is the least member of x's class
    least: dict[int, int] = {}
    for x, y in BinRel(nx, P.bits & _converse(nx, P.bits)).pairs():
        least.setdefault(x, y)
    reps = sorted(set(least.values()))
    class_map = [reps.index(least[x]) for x in range(nx)]
    nq = len(reps)

    alpha_q = tuple(class_map[S.alpha[r]] for r in reps)
    beta_q = tuple(class_map[S.beta[r]] for r in reps)
    labels = tuple(f"[{S.labels[r]}]" for r in reps)
    quotient = RelStructure(nq, _on_classes(P, class_map, reps),
                            _on_classes(S.E, class_map, reps),
                            alpha_q, beta_q, labels)
    return QuotientStructure(S, tuple(class_map), tuple(reps), quotient)


def induced_embedding(e: Embedding, p: int) -> Embedding:
    """Push the embedding down to the contraction at p: the image of a member
    is the set of class pairs covering its original image.  p is checked
    first (`quotient_representation`: NotAnElementError for a bad index).
    A member x satisfies p.x.p = x, so its image is a union of class blocks
    and is read off at the class representatives (`_on_classes`).  By the
    representation theorem the result is an embedding, not re-verified
    here; the unit of the contraction lands on the quotient order.  `e` is
    verified once (`quotient_representation` keeps the report on it)."""
    return _induced_embedding(e, p, quotient_representation(e, p))


def _induced_embedding(e: Embedding, p: int, q: QuotientStructure
                       ) -> Embedding:
    """`induced_embedding` on the quotient `q` that
    `quotient_representation(e, p)` has already built."""
    c = contract(e.algebra, p)
    images = tuple(_on_classes(e.assignment[x], q.class_map, q.representatives)
                   for x in c.members)
    return Embedding(c.algebra, q.quotient, images)
