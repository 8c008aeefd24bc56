"""Finite quasi relation algebras given by explicit operation tables.

An algebra is described by its order predicate, a product table, the three
unary operation tables and a designated unit.  Meets and joins are recomputed
from the order predicate rather than trusted.  Every law gets an exact
verdict: distributivity and associativity by criteria over the
join-irreducibles (Birkhoff, "Rings of sets", 1937; Davey & Priestley,
*Introduction to Lattices and Order*, 2002, ch. 5 and 7), each residuation
law by one criterion where it applies (distributive, ~ and - order-reversing,
which the unit and residuation laws force) and the row scan elsewhere, the
others cell by cell.  A failing law's witness is the first row-major one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np


class MalformedAlgebraError(ValueError):
    """Tables are non-total, wrongly shaped or contain out-of-range indices."""


class LawViolationError(ValueError):
    """An operation's defining identity failed on a supposedly valid algebra."""


class NotAnElementError(ValueError):
    """An element argument is not an integer index (bools excluded) in
    0..size-1 of its algebra."""


class NotACountError(ValueError):
    """A count, cap, budget or carrier size is not an integer (bools
    excluded) at least as large as it must be."""


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

    def raise_if_failed(self, what: str) -> None:
        """Raise LawViolationError listing every failure after `what: `."""
        if not self.ok:
            raise LawViolationError(
                f"{what}: " + "; ".join(str(c) for c in self.failures))

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _zero_one(a: np.ndarray, error: type, what: str) -> np.ndarray:
    """`a` as a bool array: a bool array as it is, a numeric one whose
    entries are all 0 or 1 converted, else `error` ("`what` entries must
    be 0 or 1"); a non-numeric dtype is refused before any comparison."""
    if a.dtype != bool:
        if a.dtype.kind not in "biufc" or not ((a == 0) | (a == 1)).all():
            raise error(f"{what} entries must be 0 or 1")
        a = a.astype(bool)
    return a


def _frozen_input(a, name: str) -> np.ndarray:
    """Table `name` of a FiniteDqRA as a frozen array that its caller cannot
    write, bool for the order `leq` and int64 for the index tables: `a`
    itself when it is already a read-only array of that dtype, else a
    frozen copy (the caller's array stays writable).  A copy must be
    rectangular, with entries 0 and 1 in the order and integer entries in
    an index table (else MalformedAlgebraError naming the table)."""
    dtype = bool if name == "leq" else np.int64
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and not a.flags.writeable):
        try:
            a = np.asarray(a)
        except ValueError:      # numpy's "inhomogeneous shape"
            raise MalformedAlgebraError(
                f"{name} table is ragged: its rows differ in length") from None
        if dtype is bool:
            a = _zero_one(a, MalformedAlgebraError, "order table")
        if dtype is np.int64 and a.dtype.kind not in "iu":
            raise MalformedAlgebraError(
                f"{name} table entries must be integers, not {a.dtype}")
        a = np.array(a, dtype=dtype, order="C")
    return _freeze(a)


def _integer(v) -> Optional[int]:
    """`v` through `operator.index`; None for a bool or a non-integer.  A
    Python int, the common case, is returned as it is."""
    if type(v) is int:
        return v
    try:
        return None if isinstance(v, (bool, np.bool_)) else operator.index(v)
    except TypeError:
        return None


def _count(v, what: str, least: int = 0) -> int:
    """`v` as a Python int when `_integer` takes it and it is at least
    `least`; else NotACountError naming `what` and `v`."""
    i = _integer(v)
    if i is None or i < least:
        bound = f"at least {least}" if least else "non-negative"
        raise NotACountError(f"{what} must be {bound}: {v!r}")
    return i


def _order_masks(leq: np.ndarray) -> tuple[list[int], list[int],
                                           dict[int, int], dict[int, int]]:
    """The rows and columns of a boolean order matrix as int bitmasks
    (`up[x]`: the y with x <= y; `down[x]`: the y with y <= x), in one pass
    over the cells, and for each list a dict from a mask to the last x that
    has it: the meet of a and b is `meet_of[down[a] & down[b]]`, the join
    `join_of[up[a] & up[b]]`, and a missing key means there is none."""
    n = len(leq)
    up, down = [0] * n, [0] * n
    for x, row in enumerate(leq.tolist()):
        bit, mask = 1 << x, 0
        for y, v in enumerate(row):
            if v:
                mask |= 1 << y
                down[y] |= bit
        up[x] = mask
    return (up, down, {m: x for x, m in enumerate(up)},
            {m: x for x, m in enumerate(down)})


def lattice_rows(leq: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    """The meet and join tables of a boolean order matrix as lists of rows;
    -1 marks pairs without a greatest lower or least upper bound.

    Entry (a, b) of the meet table is the x whose column of the matrix is
    the intersection of columns a and b (the set below x is the set of
    common lower bounds), of the join table the x whose row is the
    intersection of rows a and b; the last such x, -1 where there is none.
    Every pair is looked up in the dicts of `_order_masks`."""
    up, down, join_of, meet_of = _order_masks(leq)
    return tuple([[get(a & b, -1) for b in masks] for a in masks]
                 for masks, get in ((down, meet_of.get), (up, join_of.get)))


def lattice_tables(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`lattice_rows` of an order matrix as two frozen int64 arrays."""
    leq = np.asarray(leq, dtype=bool)
    return tuple(_freeze(np.array(lattice_rows(leq), dtype=np.int64)
                         .reshape(2, *leq.shape)))


def join_generators(leq: np.ndarray) -> tuple[int, ...]:
    """Elements of a boolean order matrix whose strictly smaller elements
    have a greatest one or none, in index order: y <= x with one element
    fewer below it, or x alone below itself.  In a lattice these are the
    bottom (the empty join) and the elements that are not the join of two
    strictly smaller ones, and every element is a join of them."""
    down = leq.sum(axis=0)                      # size of each down-set
    covered = (leq & (down[:, None] == down - 1)).any(axis=0)
    return tuple(np.flatnonzero(covered | (down == 1)).tolist())


def _order_bad(L: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of a boolean relation matrix that break reflexivity (on the
    diagonal), antisymmetry and transitivity.  The transitivity cells, those
    of L;L outside L, come from one float32 product, which numpy hands to
    BLAS; it is exact, since a sum of 0/1 terms is nonzero iff one term
    is 1."""
    F = L.astype(np.float32)
    both_ways = L & L.T
    np.fill_diagonal(both_ways, False)
    return ~L.diagonal(), both_ways, (F @ F).astype(bool) & ~L


def _reverses(L: np.ndarray, f: np.ndarray) -> bool:
    """Whether the map f reverses the order L in the iff sense, f(a) <=
    f(b) iff b <= a: on a partial order, an order-reversing bijection."""
    return L.take(f, 0).T.take(f, 0).tobytes() == L.tobytes()


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
    A table that is a read-only array of its dtype is shared, any other
    kept as a frozen copy; `size` and `unit` follow `_integer`.  The meet
    and join tables as int64 arrays, and the search's bitmasks of the
    order, each come from the order alone, or the arrays from their one
    hand-over (`_set_lattice_tables`).  The elements given to `label`,
    `le`, `lt`, `meet` and `join` must be indices in 0..size-1
    (NotAnElementError).
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
        n, unit = _integer(self.size), _integer(self.unit)
        if None in (n, unit) or not 0 <= unit < n:   # so also n >= 1
            raise MalformedAlgebraError(
                f"size must be an integer >= 1 and unit an index below it, "
                f"not {self.size!r} and {self.unit!r}")
        for name, shape in (("leq", (n, n)), ("mult", (n, n)), ("tilde", (n,)),
                            ("minus", (n,)), ("negn", (n,))):
            a = _frozen_input(getattr(self, name), name)
            if a.shape != shape:
                raise MalformedAlgebraError(
                    f"{name} table has shape {a.shape}, not {shape}")
            # as uint64 a negative entry exceeds every size: one reduction
            if name != "leq" and a.view(np.uint64).max() >= n:
                raise MalformedAlgebraError(
                    f"{name} table has an index outside 0..{n - 1}")
            object.__setattr__(self, name, a)
        labels = tuple(self.labels) if self.labels else tuple(f"e{i}" for i in range(n))
        if len(labels) != n or len(set(labels)) != n:
            raise MalformedAlgebraError("labels must be distinct, one per element")
        for name, value in (("size", n), ("unit", unit), ("labels", labels)):
            object.__setattr__(self, name, value)

    # --- element helpers -------------------------------------------------

    def _element(self, a: int) -> int:
        """`a` as a Python int, when it is an integer index (through
        `operator.index`; bools refused) in 0..size-1; else
        NotAnElementError naming `a` and the size."""
        i = _integer(a)
        if i is not None and 0 <= i < self.size:
            return i
        raise NotAnElementError(
            f"{a!r} is not an element of an algebra of size {self.size} "
            f"(an integer index in 0..{self.size - 1})")

    def label(self, a: int) -> str:
        return self.labels[self._element(a)]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r}") from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[self._element(a), self._element(b)])

    def lt(self, a: int, b: int) -> bool:
        a, b = self._element(a), self._element(b)
        return a != b and bool(self.leq[a, b])

    # --- derived lattice structure ---------------------------------------

    @cached_property
    def _lattice_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """`lattice_tables` of the order, unless handed over."""
        return lattice_tables(self.leq)

    @property
    def meet_table(self) -> np.ndarray:
        """Greatest lower bounds; -1 marks pairs without one."""
        return self._lattice_tables[0]

    @property
    def join_table(self) -> np.ndarray:
        """Least upper bounds; -1 marks pairs without one."""
        return self._lattice_tables[1]

    @cached_property
    def _lattice_masks(self) -> tuple[list[int], list[int], dict[int, int],
                                      dict[int, int], bool]:
        """`_order_masks` of the order and whether it is a lattice, for the
        search, which looks up only the cells it reads.  The verdict looks
        each pair b < a up once in both dicts: the keys are symmetric, and
        a pair a, a always resolves (its key is a mask of the dict)."""
        up, down, join_of, meet_of = masks = _order_masks(self.leq)
        for a in range(self.size):
            da, ua = down[a], up[a]
            for b in range(a):
                if da & down[b] not in meet_of or ua & up[b] not in join_of:
                    return (*masks, False)
        return (*masks, True)

    def meet(self, a: int, b: int) -> int:
        a, b = self._element(a), self._element(b)
        m = int(self.meet_table[a, b])
        if m < 0:
            raise LawViolationError(f"elements {a},{b} have no meet")
        return m

    def join(self, a: int, b: int) -> int:
        a, b = self._element(a), self._element(b)
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
        """`join_generators` of the order, which drive table extension and
        embedding search: read from the order alone, with no lattice
        table."""
        return join_generators(self.leq)

    @cached_property
    def _antitone(self) -> bool:
        """Whether ~ reverses the order in the iff sense (~a <= ~b iff
        b <= a) and - is its inverse, so that both are order-reversing
        bijections; whole tables compared as bytes, the cheapest test on
        the smallest algebras."""
        return (_reverses(self.leq, self.tilde)
                and self.tilde.take(self.minus).tobytes()
                == np.arange(self.size).tobytes())

    @cached_property
    def _residuation_witnesses(self) -> tuple[Optional[tuple[int, ...]],
                                              Optional[tuple[int, ...]]]:
        """The first row-major witnesses (a, b, c) of the left and right
        residuation laws, None where one holds (one scan for all callers)."""
        n, L, M = self.size, self.leq, self.mult
        til, mns = self.tilde, self.minus
        mid = mns[M[:, til]]                # [b, c]: -(b.~c), built once
        # a.b <= c against a <= -(b.~c), gathered row by row (numpy's
        # fastest gather is 1-d), and, as [b, a, c], against b <= ~(-c.a)
        return (_row_scan(n, lambda r: L[M[r]] != np.stack(
                    [L[a][mid] for a in range(n)[r]])),
                _row_scan(n, lambda r: (L[M[r].T] != L.take(
                    til[M[:, r][mns]].T, 1)).transpose(1, 0, 2)))

    @cached_property
    def _report(self) -> ValidationReport:
        """`validate_dqra`'s report, kept with the frozen tables."""
        return ValidationReport(tuple(_validate_dqra(self)))

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


def _set_lattice_tables(A: FiniteDqRA, meet: np.ndarray,
                        join: np.ndarray) -> None:
    """Hand A its meet and join tables (`_lattice_tables`; the only write
    after construction) when both are total (no -1 entry), as the bounds of
    A's order are when a family holds all its intersections and unions, or
    when they are a valid parent's bounds restricted to a contraction."""
    if meet.min() >= 0 and join.min() >= 0:
        A.__dict__["_lattice_tables"] = (_freeze(meet), _freeze(join))


# --- validation -----------------------------------------------------------


def _first_bad(bad: np.ndarray, prefix: tuple[int, ...] = ()
               ) -> Optional[tuple[int, ...]]:
    """The prefix plus the first row-major cell of `bad` that is set, or None
    when there is none."""
    if not bad.any():
        return None
    return prefix + tuple(int(v) for v in np.argwhere(bad)[0])


def _verdict(name: str, witness, detail: str = "") -> LawCheck:
    """The LawCheck of law `name`: it holds iff there is no witness."""
    return LawCheck(name, witness is None, witness, detail)


def _row_scan(n: int, rows_bad: Callable[[slice], np.ndarray]
              ) -> Optional[tuple[int, ...]]:
    """The first row-major witness (a, b, c) of a three-variable law, where
    `rows_bad(r)` marks the cells [a, b, c], a in slice r, that break it;
    None if there is none.  Blocks of about 2^16 cells (one row at least)
    keep a small algebra to one pass and a large one to m^2 memory."""
    k = max(1, (1 << 16) // (n * n))
    for a in range(0, n, k):
        w = _first_bad(rows_bad(slice(a, a + k)))
        if w is not None:
            return (w[0] + a, *w[1:])
    return None


def _rows_residuated(A: FiniteDqRA, G: np.ndarray, up: np.ndarray,
                     d: np.ndarray, down: np.ndarray) -> bool:
    """Whether every y -> a.y has c -> ~(-c.a) as upper adjoint, on a
    distributive lattice where ~ and - are order-reversing inverse
    bijections (`FiniteDqRA._antitone`): the right residuation law.

    `G` holds the bottom and the join-irreducibles, `up[g]` the elements
    above G[g], `d[g]` the element whose down-set is the set of elements
    not above G[g] (any index for the bottom), and `down` the size of each
    element's down-set.

    The law holds iff every row map h: y -> a.y preserves binary joins and
    a.~(-c.a) <= c for all a, c.  Join preservation makes h monotone, and
    then b <= ~(-c.a) gives a.b <= a.~(-c.a) <= c.  Both sides hold for
    equally many triples, so the implication is the law: b <= ~(-c.a)
    holds for as many b as there are elements above -c.a (~ reverses the
    order), and -c runs through all elements as c does, so both counts
    sum the number of elements above a.b over all cells (a, b).

    Join preservation is one gather over all cells.  Each x other than the
    bottom is x = (x /\\ d_j) \\/ j, with j a join-irreducible below x
    with the largest down-set: every join-irreducible k <= x is j or lies
    below d_j, since k >= j would make k = j.  For x itself
    join-irreducible, j = x and x /\\ d_x is its one lower cover.  If
    h(x) = h(x /\\ d_j) \\/ h(j) at every x, induction along down-set size
    gives h(x) = h(bottom) \\/ the join of h(k) over the join-irreducibles
    k <= x, and each k <= x \\/ y is join-prime (Birkhoff), so lies below
    x or below y: h(x \\/ y) = h(x) \\/ h(y).  The converse is immediate.
    The bottom decomposes as itself, which holds trivially."""
    n, L, M, til, mns = A.size, A.leq, A.mult, A.tilde, A.minus
    x = np.arange(n)
    # [x]: the position in G of a generator below x with the largest
    # down-set, the bottom's own for the bottom
    pick = (up * down.take(G)[:, None]).argmax(axis=0)
    j = G.take(pick)
    rest = A.meet_table.ravel().take(d.take(pick) + x * n)  # x /\ d_j
    cells = M.take(rest, 1)
    cells *= n
    cells += M.take(j, 1)
    if (A.join_table.ravel().take(cells) != M).any():
        return False
    # [a, c]: a.g(c) <= c, with g(c) = ~(-c.a); with `cells` freed and the
    # transposed index copied, two m^2 int64 arrays at most live at a time
    del cells
    cells = til.take(M.take(mns, 0).T.copy())
    cells += x[:, None] * n
    cells = M.ravel().take(cells)
    cells *= n
    cells += x
    return bool(L.ravel().take(cells).all())


def _law_verdicts(A: FiniteDqRA) -> tuple[bool, Optional[bool], bool, bool]:
    """Exact verdicts on distributivity, associativity and the left and
    right residuation laws of an algebra whose order is a lattice.

    Distributivity and associativity run over J, the join-irreducibles
    (`join_generators` without the bottom): every element is the join of
    those below it.  The lattice is distributive iff every j in J is
    join-prime (Birkhoff, "Rings of sets", 1937).  Once both residuation
    laws hold, the product preserves all joins in each argument, the empty
    one included, so associativity on J^3 is associativity everywhere;
    otherwise it is left undecided (None).

    Each residuation law gets one exact criterion where it applies, the
    row scan elsewhere.  On a distributive lattice where ~ reverses the
    order in the iff sense with - its inverse (`_antitone`), as in every
    quasi relation algebra, one law decides both: applying ~ and - to the
    right-hand sides, the left law reads x.y <= z iff y.~z <= ~x and the
    right law a.b <= c iff -c.a <= -b, and the left law at (-c, a, -b) is
    the right law at (a, b, c), the right law at (y, ~z, ~x) the left law
    at (x, y, z).  So both verdicts are `_rows_residuated`'s.  Any other
    algebra takes them from the row scans the report reads for its
    witnesses (`_residuation_witnesses`).

    A unital algebra on a distributive lattice reaches them only when a
    residuation law fails, which the report scans for its witness anyway:
    the unit law and both residuation laws force `_antitone` (Davey &
    Priestley, ch. 7).  At a = 1 the right law reads b <= c iff b <= ~-c,
    so ~-c = c; at b = 1 the left law gives -~c = c.  The left law makes
    x -> x.a residuated, so monotone, and the right law at (x, a, ~1)
    reads x.a <= ~1 iff a <= ~x.  So x <= y gives y.~y <= ~1, x.~y <= ~1
    and ~y <= ~x; and a bijection of a finite poset that reverses every
    comparable pair reverses the order in the iff sense, as the reversed
    pairs are as many."""
    n, L, M = A.size, A.leq, A.mult
    down = L.sum(axis=0)                    # size of each down-set
    G = np.array(A.join_generators, np.intp)
    # a down-set D is the down-set of some d in D iff |down-set of d| = |D|;
    # j in J is join-prime iff the elements not above it form such a
    # down-set.  The bottom, the one generator below every element, has
    # no such d: its row of `comp` is empty
    up = L.take(G, 0)
    above = up.sum(axis=1)
    comp = ~up & (down == n - above[:, None])
    dist = bool(comp.any(axis=1).sum() == len(G) - 1)
    J = G.take(np.flatnonzero(above < n))
    if dist and A._antitone:
        left = right = _rows_residuated(A, G, up, comp.argmax(axis=1), down)
    else:
        left, right = (w is None for w in A._residuation_witnesses)
    assoc = None
    if left and right:                      # (a.b).c == a.(b.c) on J^3
        MJ = M.take(J, 0)
        MJJ = MJ.take(J, 1)
        assoc = bool((M.take(MJJ, 0).take(J, 2) == MJ.take(MJJ, 1)).all())
    return dist, assoc, left, right


def validate_dqra(A: FiniteDqRA) -> ValidationReport:
    """Check every defining law of a distributive quasi relation algebra,
    returning one verdict per law with witnesses for failures.  The tables
    are frozen, so the report is computed once per algebra and kept on it.

    Covers: partial order, existence of meets and joins, distributivity,
    monoid laws, the residuation equivalences, the linear-negation involution
    law, involutivity of the third negation, and both De Morgan laws.

    Distributivity and associativity are decided by exact criteria over
    the join-irreducibles, each residuation law by one exact criterion
    where it applies and the row scan elsewhere (`_law_verdicts`).  A
    failing law, or associativity when a residuation law fails, is scanned
    row-major (`_row_scan`) for its first witness, a residuation law only
    once.  The De Morgan laws skip their m^2 scans where decided facts
    imply them: the join law holds when neg reverses the order, and the
    product law is checked on the join generators once both residuation
    laws hold and ~, - and neg reverse the order.
    """
    return A._report


def _validate_dqra(A: FiniteDqRA) -> Iterator[LawCheck]:
    n = A.size
    L = A.leq
    M = A.mult
    til, mns, ngn = A.tilde, A.minus, A.negn

    # partial order
    order = [_verdict(name, _first_bad(bad), detail)
             for name, bad, detail in zip(
                 ("order-reflexive", "order-antisymmetric", "order-transitive"),
                 _order_bad(L), ("a <= a", "", ""))]
    yield from order
    if not all(check.ok for check in order):
        return      # lattice and law checks below presume a partial order

    mt, jt = A.meet_table, A.join_table
    bounds = (_verdict("meets-exist", _first_bad(mt < 0)),
              _verdict("joins-exist", _first_bad(jt < 0)))
    yield from bounds
    if not all(check.ok for check in bounds):
        return      # the law checks below read the meet and join tables

    dist_ok, assoc_ok, res1_ok, res2_ok = _law_verdicts(A)

    # distributivity: a /\ (b \/ c) == (a /\ b) \/ (a /\ c)
    yield _verdict("lattice-distributive", None if dist_ok else _row_scan(
        n, lambda r: mt[r][:, jt] != jt[mt[r][:, :, None], mt[r][:, None]]))

    # monoid laws
    yield _verdict("monoid-unit", _first_bad(
        (M[A.unit, :] != np.arange(n)) | (M[:, A.unit] != np.arange(n))))
    yield _verdict("monoid-associative", None if assoc_ok else _row_scan(
        n, lambda r: np.stack([M[M[a]] != M[a][M] for a in range(n)[r]])))

    # residuation equivalences: a.b <= c iff a <= -(b.~c) iff b <= ~(-c.a)
    res1_w, res2_w = ((None, None) if res1_ok and res2_ok
                      else A._residuation_witnesses)
    yield _verdict("residuation-left", res1_w, "a.b <= c iff a <= -(b.~c)")
    yield _verdict("residuation-right", res2_w, "a.b <= c iff b <= ~(-c.a)")

    # linear negation involution: ~-a == a == -~a
    yield _verdict("linear-involution", _first_bad(
        (til[mns] != np.arange(n)) | (mns[til] != np.arange(n))),
        "~-a = a = -~a")

    # third negation: involutive, De Morgan over joins and over products.
    # An order-reversing bijection sends joins to meets, so the join law
    # holds when neg reverses the order
    yield _verdict("neg-involution", _first_bad(ngn[ngn] != np.arange(n)))
    dual = _reverses(L, ngn)
    yield _verdict("de-morgan-join", None if dual else _first_bad(
        ngn[jt] != mt[ngn[:, None], ngn[None, :]]),
        "neg(a v b) = neg(a) ^ neg(b)")
    # a + b = ~(-b.-a); the factor flip makes + the true dual of the
    # (generally noncommutative) product, and equals -(~b.~a).  With both
    # residuation laws the product preserves all joins in each argument;
    # with ~, - and neg order-reversing bijections both sides then send
    # joins in each argument to meets (the empty join to the top), so
    # they agree everywhere once they agree on the join generators
    holds = res1_ok and res2_ok and dual and A._antitone
    if holds:
        g = np.array(A.join_generators, np.intp)
        q = mns.take(ngn.take(g))
        holds = (ngn.take(M.take(g, 0).take(g, 1)).tobytes()
                 == til.take(M.take(q, 0).take(q, 1).T).tobytes())
    dm_w = None
    if not holds:
        plus_tab = til[M[mns[:, None], mns[None, :]]].T
        dm_w = _first_bad(ngn[M] != plus_tab[ngn[:, None], ngn[None, :]])
    yield _verdict("de-morgan-product", dm_w, "neg(a.b) = neg(a) + neg(b)")


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
    a\\c = ~(-c.a) and c/a = -(a.~c).  a and c must be indices in
    0..size-1 (NotAnElementError)."""
    a, c = A._element(a), A._element(c)
    left = int(A.tilde[A.mult[A.minus[c], a]])
    right = int(A.minus[A.mult[a, A.tilde[c]]])
    return left, right


def check_residuals(A: FiniteDqRA, a: int, c: int) -> bool:
    """Verify the residuation equivalences at (a, c) against all b.  a and
    c must be indices in 0..size-1 (NotAnElementError)."""
    a, c = A._element(a), A._element(c)
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
    exactly when products fail to commute.  a and b must be indices in
    0..size-1 (NotAnElementError).
    """
    a, b = A._element(a), A._element(b)
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
    m1 = int(mns[A.unit])
    return ValidationReport((
        _verdict("de-morgan-involution", _first_bad(ngn[til] != mns[ngn]),
                 "neg(~a) = -(neg a)"),
        _verdict("order-via-tilde", _first_bad(L != L[M[:, til], m1]),
                 "a <= b iff a.~b <= -1"),
        _verdict("order-via-minus", _first_bad(L != L[M[mns], m1].T),
                 "a <= b iff (-b).a <= -1")))
