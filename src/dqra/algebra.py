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
    def _below_masks(self) -> tuple[int, ...]:
        """Bitmask per element of everything at or below it."""
        return tuple(_row_masks(self.leq.T))

    @cached_property
    def _above_masks(self) -> tuple[int, ...]:
        return tuple(_row_masks(self.leq))

    @cached_property
    def meet_table(self) -> np.ndarray:
        """Greatest lower bounds; -1 marks pairs without one.

        x is the meet of (a, b) exactly when the set below x equals the
        intersection of the sets below a and below b, so a dictionary keyed
        on below-masks resolves every pair.
        """
        n = self.size
        by_mask = {m: i for i, m in enumerate(self._below_masks)}
        out = np.full((n, n), -1, dtype=np.int64)
        bm = self._below_masks
        for a in range(n):
            for b in range(n):
                out[a, b] = by_mask.get(bm[a] & bm[b], -1)
        return _freeze(out)

    @cached_property
    def join_table(self) -> np.ndarray:
        """Least upper bounds; -1 marks pairs without one."""
        n = self.size
        by_mask = {m: i for i, m in enumerate(self._above_masks)}
        out = np.full((n, n), -1, dtype=np.int64)
        am = self._above_masks
        for a in range(n):
            for b in range(n):
                out[a, b] = by_mask.get(am[a] & am[b], -1)
        return _freeze(out)

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
        """Elements that are not the join of two strictly smaller ones.

        Every element is a join of these (the bottom is the empty join and is
        included explicitly), which is what drives table extension and
        embedding search.
        """
        jt = self.join_table
        idx = np.arange(self.size)
        proper = (jt >= 0) & (jt != idx[:, None]) & (jt != idx[None, :])
        reducible = np.zeros(self.size, dtype=bool)
        reducible[jt[proper]] = True
        if self.bottom is not None:
            reducible[self.bottom] = False
        return tuple(int(a) for a in np.flatnonzero(~reducible))

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


def _first_bad(bad: np.ndarray, prefix: tuple[int, ...] = ()) -> tuple[int, ...]:
    idx = np.argwhere(bad)
    return prefix + tuple(int(v) for v in idx[0])


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

    def add(name: str, ok: bool, witness=None, detail: str = "") -> None:
        checks.append(LawCheck(name, bool(ok), witness, detail))

    # partial order
    refl = bool(L.diagonal().all())
    add("order-reflexive", refl,
        None if refl else _first_bad(~L.diagonal()), "a <= a")
    anti_bad = L & L.T & ~np.eye(n, dtype=bool)
    add("order-antisymmetric", not anti_bad.any(),
        None if not anti_bad.any() else _first_bad(anti_bad))
    Lu = L.astype(np.uint8)
    trans_bad = ((Lu @ Lu) > 0) & ~L
    add("order-transitive", not trans_bad.any(),
        None if not trans_bad.any() else _first_bad(trans_bad))
    order_ok = refl and not anti_bad.any() and not trans_bad.any()
    if not order_ok:
        # lattice and law checks below presume a partial order
        return ValidationReport(tuple(checks))

    mt, jt = A.meet_table, A.join_table
    add("meets-exist", bool((mt >= 0).all()),
        None if (mt >= 0).all() else _first_bad(mt < 0))
    add("joins-exist", bool((jt >= 0).all()),
        None if (jt >= 0).all() else _first_bad(jt < 0))
    if not ((mt >= 0).all() and (jt >= 0).all()):
        return ValidationReport(tuple(checks))

    # distributivity: a /\ (b \/ c) == (a /\ b) \/ (a /\ c)
    dist_w = None
    for a in range(n):
        lhs = mt[a].take(jt)                # [b, c]
        rhs = jt.take(mt[a], 0).take(mt[a], 1)
        bad = lhs != rhs
        if bad.any():
            dist_w = _first_bad(bad, (a,))
            break
    add("lattice-distributive", dist_w is None, dist_w)

    # monoid laws
    unit_bad = (M[A.unit, :] != np.arange(n)) | (M[:, A.unit] != np.arange(n))
    add("monoid-unit", not unit_bad.any(),
        None if not unit_bad.any() else _first_bad(unit_bad))
    assoc_w = None
    for a in range(n):
        bad = M.take(M[a], 0) != M[a].take(M)   # [b, c]
        if bad.any():
            assoc_w = _first_bad(bad, (a,))
            break
    add("monoid-associative", assoc_w is None, assoc_w)

    # residuation equivalences: a.b <= c iff a <= -(b.~c) iff b <= ~(-c.a)
    mid_target = mns[M[:, til]]             # [b, c] -> -(b.~c)
    right_src_t = til[M[mns, :]].T.copy()   # [a, c] -> ~(-c.a)
    LT = L.T.copy()
    res1_w = res2_w = None
    for a in range(n):
        lhs = L.take(M[a], 0)                   # [b, c]: a.b <= c
        mid = L[a].take(mid_target)             # [b, c]
        if res1_w is None:
            bad = lhs != mid
            if bad.any():
                res1_w = _first_bad(bad, (a,))
        rgt = LT.take(right_src_t[a], 0).T      # [b, c]: b <= ~(-c.a)
        if res2_w is None:
            bad = lhs != rgt
            if bad.any():
                res2_w = _first_bad(bad, (a,))
        if res1_w is not None and res2_w is not None:
            break
    add("residuation-left", res1_w is None, res1_w,
        "a.b <= c iff a <= -(b.~c)")
    add("residuation-right", res2_w is None, res2_w,
        "a.b <= c iff b <= ~(-c.a)")

    # linear negation involution: ~-a == a == -~a
    inv_bad = (til[mns] != np.arange(n)) | (mns[til] != np.arange(n))
    add("linear-involution", not inv_bad.any(),
        None if not inv_bad.any() else _first_bad(inv_bad), "~-a = a = -~a")

    # third negation: involutive, De Morgan over joins and over products
    negi_bad = ngn[ngn] != np.arange(n)
    add("neg-involution", not negi_bad.any(),
        None if not negi_bad.any() else _first_bad(negi_bad))
    dm_bad = ngn[jt] != mt[ngn[:, None], ngn[None, :]]
    add("de-morgan-join", not dm_bad.any(),
        None if not dm_bad.any() else _first_bad(dm_bad),
        "neg(a v b) = neg(a) ^ neg(b)")
    # a + b = ~(-b.-a); the factor flip makes + the true dual of the
    # (generally noncommutative) product, and equals -(~b.~a)
    plus_tab = til[M[mns[:, None], mns[None, :]]].T
    dp_bad = ngn[M] != plus_tab[ngn[:, None], ngn[None, :]]
    add("de-morgan-product", not dp_bad.any(),
        None if not dp_bad.any() else _first_bad(dp_bad),
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
    di_bad = ngn[til] != mns[ngn]
    checks.append(LawCheck(
        "de-morgan-involution", not di_bad.any(),
        None if not di_bad.any() else _first_bad(di_bad),
        "neg(~a) = -(neg a)"))
    m1 = int(mns[A.unit])
    star1_bad = L != L[M[np.arange(n)[:, None], til[None, :]], m1]
    star2 = np.empty((n, n), dtype=bool)  # [a, b]: (-b).a <= -1
    for a in range(n):
        star2[a, :] = L[M[mns, a], m1]
    star2_bad = L != star2
    checks.append(LawCheck(
        "order-via-tilde", not star1_bad.any(),
        None if not star1_bad.any() else _first_bad(star1_bad),
        "a <= b iff a.~b <= -1"))
    checks.append(LawCheck(
        "order-via-minus", not star2_bad.any(),
        None if not star2_bad.any() else _first_bad(star2_bad),
        "a <= b iff (-b).a <= -1"))
    return ValidationReport(tuple(checks))
