"""Finite quasi relation algebras given by explicit operation tables.

An algebra is described by its order predicate, a product table, the three
unary operation tables and a designated unit.  Meets and joins are recomputed
from the order predicate rather than trusted, and every law is checked
exhaustively over the (finite) carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

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
    """Outcome of an exhaustive law scan: one LawCheck per law."""

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
        for a in range(self.size):
            if self.leq[a, :].all():
                return a
        return None

    @cached_property
    def top(self) -> Optional[int]:
        for a in range(self.size):
            if self.leq[:, a].all():
                return a
        return None

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


def validate_dqra(A: FiniteDqRA) -> ValidationReport:
    """Exhaustively check every defining law of a distributive quasi relation
    algebra, returning one verdict per law with witnesses for failures.

    Covers: partial order, existence of meets and joins, distributivity,
    monoid laws, the residuation equivalences, the linear-negation involution
    law, involutivity of the third negation, and both De Morgan laws.
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

    # the row loops below fill these m x m buffers in place; every index is
    # in range, so take's "clip" mode is exact and needs no copy of `out`
    ints = [np.empty((n, n), dtype=np.int64) for _ in range(3)]
    lhs, rhs, bad = (np.empty((n, n), dtype=bool) for _ in range(3))

    def take(src, idx, axis, out):
        return src.take(idx, axis, out, "clip")

    # distributivity: a /\ (b \/ c) == (a /\ b) \/ (a /\ c)
    dist_w = None
    for a in range(n):
        take(mt[a], jt, None, ints[0])                      # [b, c]
        take(take(jt, mt[a], 0, ints[1]), mt[a], 1, ints[2])
        if np.not_equal(ints[0], ints[2], out=bad).any():
            dist_w = _first_bad(bad, (a,))
            break
    add("lattice-distributive", dist_w)

    # monoid laws
    add("monoid-unit", _first_bad(
        (M[A.unit, :] != np.arange(n)) | (M[:, A.unit] != np.arange(n))))
    assoc_w = None
    for a in range(n):
        take(M, M[a], 0, ints[0])                           # [b, c]
        take(M[a], M, None, ints[1])
        if np.not_equal(ints[0], ints[1], out=bad).any():
            assoc_w = _first_bad(bad, (a,))
            break
    add("monoid-associative", assoc_w)

    # residuation equivalences: a.b <= c iff a <= -(b.~c) iff b <= ~(-c.a)
    mid_target = mns[M[:, til]]             # [b, c] -> -(b.~c)
    right_src_t = til[M[mns, :]].T.copy()   # [a, c] -> ~(-c.a)
    LT = L.T.copy()
    res1_w = res2_w = None
    for a in range(n):
        take(L, M[a], 0, lhs)                               # [b, c]: a.b <= c
        if res1_w is None:
            take(L[a], mid_target, None, rhs)               # [b, c]
            if np.not_equal(lhs, rhs, out=bad).any():
                res1_w = _first_bad(bad, (a,))
        if res2_w is None:
            take(LT, right_src_t[a], 0, rhs)                # [c, b]
            if np.not_equal(lhs, rhs.T, out=bad).any():     # b <= ~(-c.a)
                res2_w = _first_bad(bad, (a,))
        if res1_w is not None and res2_w is not None:
            break
    add("residuation-left", res1_w, "a.b <= c iff a <= -(b.~c)")
    add("residuation-right", res2_w, "a.b <= c iff b <= ~(-c.a)")

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
    n = A.size
    til, mns, ngn, M, L = A.tilde, A.minus, A.negn, A.mult, A.leq
    checks = []

    def add(name: str, bad: np.ndarray, detail: str) -> None:
        w = _first_bad(bad)
        checks.append(LawCheck(name, w is None, w, detail))

    add("de-morgan-involution", ngn[til] != mns[ngn], "neg(~a) = -(neg a)")
    m1 = int(mns[A.unit])
    star1_bad = L != L[M[np.arange(n)[:, None], til[None, :]], m1]
    star2 = np.empty((n, n), dtype=bool)  # [a, b]: (-b).a <= -1
    for a in range(n):
        star2[a, :] = L[M[mns, a], m1]
    add("order-via-tilde", star1_bad, "a <= b iff a.~b <= -1")
    add("order-via-minus", L != star2, "a <= b iff (-b).a <= -1")
    return ValidationReport(tuple(checks))
