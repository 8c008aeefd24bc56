"""Finite quasi relation algebras given by explicit operation tables.

An algebra is described by its order predicate, a product table, the three
unary operation tables and a designated unit.  Meets and joins are recomputed
from the order predicate rather than trusted.  Every law gets an exact
verdict: the three-variable laws (distributivity, associativity, both
residuation laws) by criteria over the join-irreducibles (Birkhoff, "Rings of
sets", 1937; Davey & Priestley, *Introduction to Lattices and Order*, 2002,
ch. 5 and 7), the others cell by cell.  A failing law's witness is the first
violation in a row-major scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np


class MalformedAlgebraError(ValueError):
    """Tables are non-total, wrongly shaped or contain out-of-range indices."""


class LawViolationError(ValueError):
    """An operation's defining identity failed on a supposedly valid algebra."""


@dataclass(frozen=True)
class LawCheck:
    """Verdict for a single law, with a witness tuple when it failed."""

    name: str
    ok: bool
    witness: Optional[tuple[int, ...]] = None
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return f"PASS {self.name}"
        w = "" if self.witness is None else f" witness={self.witness}"
        d = f" ({self.detail})" if self.detail else ""
        return f"FAIL {self.name}{w}{d}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a law check: one LawCheck per law, exact in its verdict,
    with the first row-major violation as witness for a failure."""

    checks: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[LawCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def __getitem__(self, name: str) -> LawCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _row_masks(rows: np.ndarray) -> list[int]:
    """Bitmask per row of a boolean matrix: bit p is set when row[p]."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _bound_table(rows: np.ndarray) -> np.ndarray:
    """Entry (a, b) is the x whose row of the boolean matrix is the
    intersection of rows a and b, -1 where there is none.  On the transposed
    order that is the meet (the set below x is the set of common lower
    bounds), on the order itself the join; one dictionary keyed on row
    bitmasks resolves every pair."""
    masks = _row_masks(rows)
    get = {m: x for x, m in enumerate(masks)}.get
    return _freeze(np.array([[get(a & b, -1) for b in masks] for a in masks],
                            dtype=np.int64))


def lattice_tables(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The meet and join tables of an order matrix; -1 marks pairs without
    a greatest lower or least upper bound."""
    leq = np.asarray(leq, dtype=bool)
    return _bound_table(leq.T), _bound_table(leq)


def join_generators(join: np.ndarray) -> tuple[int, ...]:
    """Elements that are not the join of two strictly smaller ones, in index
    order.  Every element is a join of these.  The bottom (the empty join)
    is always one: a join lies above its arguments, so a bottom that is a
    join of b and c equals both."""
    n = join.shape[0]
    idx = np.arange(n)
    proper = (join >= 0) & (join != idx[:, None]) & (join != idx[None, :])
    reducible = np.zeros(n, dtype=bool)
    reducible[join[proper]] = True
    return tuple(int(a) for a in np.flatnonzero(~reducible))


def _order_bad(L: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of a boolean relation matrix that break reflexivity (on the
    diagonal), antisymmetry and transitivity."""
    off_diagonal = ~np.eye(L.shape[0], dtype=bool)
    return ~L.diagonal(), L & L.T & off_diagonal, (L @ L) & ~L


def _bijections(images: Sequence[Sequence[int]],
                fits: Callable[[list[int], int, int], bool]
                ) -> Iterator[tuple[int, ...]]:
    """Every bijection p of range(n) with p[a] in images[a] (each list
    ascending) and fits(p[:a], a, p[a]) at every point a, in lexicographic
    order.  Backtracks point by point on an explicit stack, so the carrier
    size sets no recursion limit."""
    n = len(images)
    p: list[int] = []
    used = [False] * n
    start = 0
    while True:
        a = len(p)
        v = None if a == n else next(
            (v for v in images[a] if v >= start and not used[v] and fits(p, a, v)),
            None)
        if v is not None:
            p.append(v)
            used[v] = True
            start = 0
            continue
        if a == n:
            yield tuple(p)
        if not p:
            return
        start = p.pop()
        used[start] = False
        start += 1


def order_maps(L: np.ndarray, T: np.ndarray,
               dual: bool = False) -> Iterator[tuple[int, ...]]:
    """Every point bijection p with L[a][b] == T[p[a]][p[b]] for all a, b
    (T[p[b]][p[a]] when `dual`), in lexicographic order: the isomorphisms
    from relation L onto T, or onto its converse.  Tries only images with as
    many successors and predecessors, and checks each new image against the
    points already placed."""
    Lm, Tm = np.asarray(L, dtype=bool), np.asarray(T, dtype=bool)
    if Lm.shape != Tm.shape:
        return iter(())
    if dual:
        Tm = Tm.T
    Lr, Lc, Tr, Tc = (m.tolist() for m in (Lm, Lm.T, Tm, Tm.T))
    n = len(Lr)
    deg_L, deg_T = (list(zip(m.sum(axis=1).tolist(), m.sum(axis=0).tolist()))
                    for m in (Lm, Tm))
    images = [[v for v in range(n) if deg_T[v] == deg_L[a]] for a in range(n)]

    def fits(p: list[int], a: int, v: int) -> bool:
        row, col, trow, tcol = Lr[a], Lc[a], Tr[v], Tc[v]
        return trow[v] == row[a] and all(
            trow[w] == row[b] and tcol[w] == col[b] for b, w in enumerate(p))

    return _bijections(images, fits)


@dataclass(frozen=True, eq=False)
class FiniteDqRA:
    """A finite algebra in the signature (meet, join, product, three
    negation-like unary operations, unit).

    `leq[a, b]` is the lattice order, `mult[a, b]` the product table,
    `tilde`/`minus`/`negn` the unary tables and `unit` the monoid identity.
    Values are immutable after construction; all operations on them are pure.
    """

    size: int
    leq: np.ndarray
    mult: np.ndarray
    tilde: np.ndarray
    minus: np.ndarray
    negn: np.ndarray
    unit: int
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.size
        if n <= 0:
            raise MalformedAlgebraError("carrier must be non-empty")
        leq = _freeze(np.asarray(self.leq, dtype=bool))
        mult = _freeze(np.asarray(self.mult, dtype=np.int64))
        unaries = []
        for nm in ("tilde", "minus", "negn"):
            u = _freeze(np.asarray(getattr(self, nm), dtype=np.int64))
            if u.shape != (n,):
                raise MalformedAlgebraError(f"{nm} table must have {n} entries")
            if u.min() < 0 or u.max() >= n:
                raise MalformedAlgebraError(f"{nm} table has out-of-range index")
            unaries.append(u)
        if leq.shape != (n, n):
            raise MalformedAlgebraError(f"order table must be {n}x{n}")
        if mult.shape != (n, n):
            raise MalformedAlgebraError(f"product table must be {n}x{n}")
        if mult.min() < 0 or mult.max() >= n:
            raise MalformedAlgebraError("product table has out-of-range index")
        if not 0 <= self.unit < n:
            raise MalformedAlgebraError("unit index out of range")
        labels = tuple(self.labels) if self.labels else tuple(f"e{i}" for i in range(n))
        if len(labels) != n or len(set(labels)) != n:
            raise MalformedAlgebraError("labels must be distinct, one per element")
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "tilde", unaries[0])
        object.__setattr__(self, "minus", unaries[1])
        object.__setattr__(self, "negn", unaries[2])
        object.__setattr__(self, "labels", labels)

    # --- element helpers -------------------------------------------------

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r}") from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    def lt(self, a: int, b: int) -> bool:
        return a != b and bool(self.leq[a, b])

    # --- derived lattice structure ---------------------------------------

    @cached_property
    def meet_table(self) -> np.ndarray:
        """Greatest lower bounds; -1 marks pairs without one."""
        return _bound_table(self.leq.T)

    @cached_property
    def join_table(self) -> np.ndarray:
        """Least upper bounds; -1 marks pairs without one."""
        return _bound_table(self.leq)

    @property
    def is_lattice(self) -> bool:
        return bool((self.meet_table >= 0).all() and (self.join_table >= 0).all())

    def meet(self, a: int, b: int) -> int:
        m = int(self.meet_table[a, b])
        if m < 0:
            raise LawViolationError(f"elements {a},{b} have no meet")
        return m

    def join(self, a: int, b: int) -> int:
        j = int(self.join_table[a, b])
        if j < 0:
            raise LawViolationError(f"elements {a},{b} have no join")
        return j

    @cached_property
    def bottom(self) -> Optional[int]:
        below_all = np.flatnonzero(self.leq.all(axis=1))
        return int(below_all[0]) if below_all.size else None

    @cached_property
    def top(self) -> Optional[int]:
        above_all = np.flatnonzero(self.leq.all(axis=0))
        return int(above_all[0]) if above_all.size else None

    @cached_property
    def join_generators(self) -> tuple[int, ...]:
        """Elements that are not the join of two strictly smaller ones (see
        `join_generators`), which drive table extension and embedding
        search."""
        return join_generators(self.join_table)

    def table_key(self) -> bytes:
        """Canonical bytes identifying the tables (labels excluded)."""
        return b"|".join(
            [
                np.array([self.size, self.unit], dtype="<i8").tobytes(),
                np.packbits(self.leq).tobytes(),
                self.mult.tobytes(),
                self.tilde.tobytes(),
                self.minus.tobytes(),
                self.negn.tobytes(),
            ]
        )

    def relabel(self, labels: Sequence[str]) -> "FiniteDqRA":
        return FiniteDqRA(
            self.size, self.leq, self.mult, self.tilde, self.minus, self.negn,
            self.unit, tuple(labels),
        )

    def __repr__(self) -> str:
        return f"FiniteDqRA(size={self.size}, unit={self.labels[self.unit]!r})"


# --- validation -----------------------------------------------------------


def _first_bad(bad: np.ndarray, prefix: tuple[int, ...] = ()
               ) -> Optional[tuple[int, ...]]:
    """The prefix plus the first row-major cell of `bad` that is set, or None
    when there is none."""
    if not bad.any():
        return None
    return prefix + tuple(int(v) for v in np.argwhere(bad)[0])


def _row_scan(n: int, row_bad: Callable[[int], np.ndarray]
              ) -> Optional[tuple[int, ...]]:
    """The first row-major witness (a, b, c) of a three-variable law, where
    `row_bad(a)` marks the cells (b, c) of row a that break it; None when no
    row has one."""
    for a in range(n):
        w = _first_bad(row_bad(a), (a,))
        if w is not None:
            return w
    return None


def _residuation_verdicts(L: np.ndarray, P: np.ndarray, J: np.ndarray,
                          jt: np.ndarray) -> tuple[bool, bool]:
    """Whether the left and the right residuation law hold.

    P[k][r] (k = 0 left, 1 right) is a map f for each parameter r, and
    P[k + 2][r] its claimed upper adjoint g.  The law holds iff every such
    f, g is a Galois connection: f(g(c)) <= c, x <= g(f(x)) and both maps
    monotone.  Every x <= y is a chain of steps x <= x \\/ j with j
    join-irreducible, so monotonicity is checked on those steps."""
    n = L.shape[0]
    Lf, LTf = L.ravel(), L.T.ravel()        # flat [a, b] and [b, a]: a <= b
    F, G = P[:2], P[2:]
    rows = np.arange(0, 2 * n * n, n).reshape(2, n, 1)
    idx = np.arange(n)
    # every array of P's size is filled in place: temporaries that large
    # would raise the peak memory of the process.  Every index is in range,
    # so take's "clip" mode is exact and needs no copy of `out`
    step = np.empty_like(P)
    ok = np.empty(P.shape, dtype=bool)
    fg, gf = step[:2], step[2:]
    np.add(G, rows, out=gf)
    F.ravel().take(gf, None, fg, "clip")    # [k, r, c]: f(g(c))
    fg *= n
    fg += idx
    Lf.take(fg, None, ok[:2], "clip")       # f(g(c)) <= c
    np.add(F, rows, out=fg)
    G.ravel().take(fg, None, gf, "clip")    # [k, r, x]: g(f(x))
    gf *= n
    gf += idx
    LTf.take(gf, None, ok[2:], "clip")      # x <= g(f(x))
    look = np.empty_like(ok)
    for j in J:
        P.take(jt[j], 2, step, "clip")      # [.., x]: h(x \/ j) for each map h
        step *= n
        step += P
        ok &= LTf.take(step, None, look, "clip")
    left, right = ok.reshape(2, 2, -1).all(axis=(0, 2))
    return bool(left), bool(right)


def _law_verdicts(A: FiniteDqRA) -> tuple[bool, Optional[bool], bool, bool]:
    """Exact verdicts on distributivity, associativity and the left and
    right residuation laws of an algebra whose order is a lattice.

    Everything runs over J, the join-irreducibles (`join_generators` without
    the bottom): every element is the join of those below it.  The lattice
    is distributive iff every j in J is join-prime (Birkhoff, "Rings of
    sets", 1937).  Each residuation law holds iff its maps form Galois
    connections (Davey & Priestley, *Introduction to Lattices and Order*,
    2002, ch. 7).  Once both hold, the product preserves all joins in each
    argument, the empty one included, so associativity on J^3 is
    associativity everywhere; otherwise it is left undecided (None)."""
    n, L, M, til, mns = A.size, A.leq, A.mult, A.tilde, A.minus
    # a down-set D is the down-set of some d in D iff |down-set of d| = |D|;
    # j is join-irreducible iff the elements strictly below it form such a
    # down-set, and join-prime iff the elements not above it do
    down = L.sum(axis=0)                    # size of each down-set
    J = np.flatnonzero((L & (down[:, None] == down - 1)).any(axis=0))
    up = L.take(J, 0)
    dist = bool((~up & (down == n - up.sum(axis=1)[:, None]))
                .any(axis=1).all())
    # [b, x]: x.b and [a, y]: a.y, with upper adjoints [b, c]: -(b.~c) and
    # [a, c]: ~(-c.a)
    P = np.empty((4, n, n), dtype=np.int64)
    P[0], P[1] = M.T, M
    mns.take(M.take(til, 1), None, P[2], "clip")
    til.take(M.take(mns, 0).T, None, P[3], "clip")
    left, right = _residuation_verdicts(L, P, J, A.join_table)
    assoc = None
    if left and right:                      # (a.b).c == a.(b.c) on J^3
        MJ = M.take(J, 0)
        MJJ = MJ.take(J, 1)
        assoc = bool((M.take(MJJ, 0).take(J, 2) == MJ.take(MJJ, 1)).all())
    return dist, assoc, left, right


def validate_dqra(A: FiniteDqRA) -> ValidationReport:
    """Check every defining law of a distributive quasi relation algebra,
    returning one verdict per law with witnesses for failures.

    Covers: partial order, existence of meets and joins, distributivity,
    monoid laws, the residuation equivalences, the linear-negation involution
    law, involutivity of the third negation, and both De Morgan laws.

    Distributivity, associativity and the residuation laws are decided
    without the m^3 scan, by exact criteria over the join-irreducibles (see
    `_law_verdicts`).  Only a law that fails, or associativity when a
    residuation law fails, is scanned row-major (`_row_scan`), which gives
    the first witness.
    """
    n = A.size
    L = A.leq
    M = A.mult
    til, mns, ngn = A.tilde, A.minus, A.negn
    checks: list[LawCheck] = []

    def add(name: str, witness, detail: str = "") -> None:
        checks.append(LawCheck(name, witness is None, witness, detail))

    # partial order
    order_bad = _order_bad(L)
    for name, bad, detail in zip(
            ("order-reflexive", "order-antisymmetric", "order-transitive"),
            order_bad, ("a <= a", "", "")):
        add(name, _first_bad(bad), detail)
    if any(bad.any() for bad in order_bad):
        # lattice and law checks below presume a partial order
        return ValidationReport(tuple(checks))

    mt, jt = A.meet_table, A.join_table
    add("meets-exist", _first_bad(mt < 0))
    add("joins-exist", _first_bad(jt < 0))
    if not ((mt >= 0).all() and (jt >= 0).all()):
        return ValidationReport(tuple(checks))

    dist_ok, assoc_ok, res1_ok, res2_ok = _law_verdicts(A)

    # distributivity: a /\ (b \/ c) == (a /\ b) \/ (a /\ c)
    add("lattice-distributive", None if dist_ok else _row_scan(
        n, lambda a: mt[a][jt] != jt[mt[a]][:, mt[a]]))

    # monoid laws
    add("monoid-unit", _first_bad(
        (M[A.unit, :] != np.arange(n)) | (M[:, A.unit] != np.arange(n))))
    add("monoid-associative", None if assoc_ok else _row_scan(
        n, lambda a: M[M[a]] != M[a][M]))

    # residuation equivalences: a.b <= c iff a <= -(b.~c) iff b <= ~(-c.a)
    res1_w = None
    if not res1_ok:
        mid = mns[M[:, til]]                # [b, c]: -(b.~c), built once
        res1_w = _row_scan(n, lambda a: L[M[a]] != L[a][mid])
    add("residuation-left", res1_w, "a.b <= c iff a <= -(b.~c)")
    add("residuation-right", None if res2_ok else _row_scan(
        n, lambda a: L[M[a]] != L[:, til[M[mns, a]]]),
        "a.b <= c iff b <= ~(-c.a)")

    # linear negation involution: ~-a == a == -~a
    add("linear-involution", _first_bad(
        (til[mns] != np.arange(n)) | (mns[til] != np.arange(n))),
        "~-a = a = -~a")

    # third negation: involutive, De Morgan over joins and over products
    add("neg-involution", _first_bad(ngn[ngn] != np.arange(n)))
    add("de-morgan-join",
        _first_bad(ngn[jt] != mt[ngn[:, None], ngn[None, :]]),
        "neg(a v b) = neg(a) ^ neg(b)")
    # a + b = ~(-b.-a); the factor flip makes + the true dual of the
    # (generally noncommutative) product, and equals -(~b.~a)
    plus_tab = til[M[mns[:, None], mns[None, :]]].T
    add("de-morgan-product",
        _first_bad(ngn[M] != plus_tab[ngn[:, None], ngn[None, :]]),
        "neg(a.b) = neg(a) + neg(b)")

    return ValidationReport(tuple(checks))


# --- derived operations ----------------------------------------------------


def derived_zero(A: FiniteDqRA) -> int:
    """The constant 0, computed as ~1; checks that ~1 = -1 = neg(1)."""
    z = int(A.tilde[A.unit])
    if int(A.minus[A.unit]) != z or int(A.negn[A.unit]) != z:
        raise LawViolationError(
            "~1, -1 and neg(1) disagree; input is not a quasi relation algebra"
        )
    return z


def residuals(A: FiniteDqRA, a: int, c: int) -> tuple[int, int]:
    """Return (a\\c, c/a) via the linear-negation formulas
    a\\c = ~(-c.a) and c/a = -(a.~c)."""
    left = int(A.tilde[A.mult[A.minus[c], a]])
    right = int(A.minus[A.mult[a, A.tilde[c]]])
    return left, right


def check_residuals(A: FiniteDqRA, a: int, c: int) -> bool:
    """Verify the residuation equivalences at (a, c) against all b."""
    left, right = residuals(A, a, c)
    for b in range(A.size):
        ab_le_c = A.le(int(A.mult[a, b]), c)
        if ab_le_c != A.le(b, left):
            return False
        ba_le_c = A.le(int(A.mult[b, a]), c)
        if ba_le_c != A.le(b, right):
            return False
    return True


def plus(A: FiniteDqRA, a: int, b: int) -> int:
    """Dual of the product: a + b = ~(-b.-a); checks the mirror identity
    a + b = -(~b.~a).

    The factor flip inside the negations is what makes both expressions
    agree on noncommutative algebras; without it the two sides differ
    exactly when products fail to commute.
    """
    s = int(A.tilde[A.mult[A.minus[b], A.minus[a]]])
    mirror = int(A.minus[A.mult[A.tilde[b], A.tilde[a]]])
    if s != mirror:
        raise LawViolationError(f"+ is not self-dual at ({a},{b}); broken involution")
    return s


def check_di(A: FiniteDqRA) -> ValidationReport:
    """Check the De Morgan involution neg(~a) = -(neg a) for every element,
    and the divisibility-style order criterion
    a <= b iff a.~b <= -1 iff (-b).a <= -1."""
    til, mns, ngn, M, L = A.tilde, A.minus, A.negn, A.mult, A.leq
    checks = []

    def add(name: str, bad: np.ndarray, detail: str) -> None:
        w = _first_bad(bad)
        checks.append(LawCheck(name, w is None, w, detail))

    add("de-morgan-involution", ngn[til] != mns[ngn], "neg(~a) = -(neg a)")
    m1 = int(mns[A.unit])
    add("order-via-tilde", L != L[M[:, til], m1], "a <= b iff a.~b <= -1")
    add("order-via-minus", L != L[M[mns], m1].T, "a <= b iff (-b).a <= -1")
    return ValidationReport(tuple(checks))
