"""Calculus of binary relations over a finite carrier and the algebras of
upward-closed relations built from a partially ordered equivalence.

A structure bundles a partial order, an equivalence containing it, an order
automorphism and a self-inverse dual order automorphism compatible with it.
The set of upsets of the pair poset carries a distributive quasi relation
algebra structure; closures and the full algebra are extracted as operation
tables.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import (FiniteDqRA, LawCheck, LawViolationError,
                      ValidationReport, _first_bad, _freeze, _order_bad,
                      _row_masks)


class CarrierMismatchError(ValueError):
    """Relations over different carriers were combined."""


class NotAnUpsetError(ValueError):
    """A relation fed to an upset-only operation is not an upset."""


class CapExceededError(RuntimeError):
    """An enumeration or closure exceeded its size cap."""

    def __init__(self, message: str, count: Optional[int] = None):
        super().__init__(message)
        self.count = count


class BinRel:
    """A binary relation over {0..n-1}, stored as an int of n*n bits.

    Cell (i, j) is bit n*n-1-(i*n+j): row-major with (0, 0) as the most
    significant bit, so integer order is the order of the `key()` bytes.
    Values are immutable; `mat` is a read-only boolean matrix built on
    demand.
    """

    __slots__ = ("n", "bits")
    n: int
    bits: int

    def __init__(self, n: int, bits: int) -> None:
        n, bits = operator.index(n), operator.index(bits)
        if n < 0:
            raise CarrierMismatchError("carrier size must be non-negative")
        if bits < 0 or bits >> (n * n):
            raise CarrierMismatchError(
                f"relation bits do not fit {n} points")
        _set_n(self, n)
        _set_bits(self, bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BinRel is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("BinRel is immutable")

    def __reduce__(self):
        return (BinRel, (self.n, self.bits))

    # constructors

    @classmethod
    def from_matrix(cls, n: int, mat) -> "BinRel":
        """The relation of an n x n boolean matrix."""
        m = np.asarray(mat, dtype=bool)
        if m.shape != (n, n):
            raise CarrierMismatchError(f"matrix must be {n}x{n}")
        pad = -n * n % 8
        return _rel(n, int.from_bytes(np.packbits(m).tobytes(), "big") >> pad)

    @classmethod
    def empty(cls, n: int) -> "BinRel":
        return cls(n, 0)

    @classmethod
    def identity(cls, n: int) -> "BinRel":
        return cls.from_pairs(n, ((x, x) for x in range(n)))

    @classmethod
    def full(cls, n: int) -> "BinRel":
        return cls(n, (1 << n * n) - 1)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "BinRel":
        bits = 0
        for x, y in pairs:
            bits |= _cell(n, x, y)
        return cls(n, bits)

    @classmethod
    def from_function(cls, fn: Sequence[int]) -> "BinRel":
        """The graph {(x, fn(x))} of a function on {0..n-1}."""
        return cls.from_pairs(len(fn), enumerate(fn))

    # views

    @property
    def mat(self) -> np.ndarray:
        """Read-only n x n boolean matrix of the relation."""
        n = self.n
        packed = np.frombuffer(self.key(), dtype=np.uint8)
        return _freeze(np.unpackbits(packed, count=n * n)
                       .view(bool).reshape(n, n))

    def key(self) -> bytes:
        """The matrix packed row-major into bytes, zero-padded at the end."""
        pad = -self.n * self.n % 8
        return (self.bits << pad).to_bytes((self.n * self.n + pad) // 8, "big")

    # set-like behaviour

    def pairs(self) -> tuple[tuple[int, int], ...]:
        n, bits, top = self.n, self.bits, self.n * self.n - 1
        return tuple(divmod(p, n) for p in range(n * n) if bits >> (top - p) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        x, y = pair
        return bool(self.bits & _cell(self.n, x, y))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinRel):
            return NotImplemented
        return self.bits == other.bits and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __le__(self, other: "BinRel") -> bool:
        self._check(other)
        return not self.bits & ~other.bits

    def __lt__(self, other: "BinRel") -> bool:
        return self <= other and self != other

    def _check(self, other: "BinRel") -> None:
        if self.n != other.n:
            raise CarrierMismatchError(
                f"carrier sizes differ: {self.n} vs {other.n}")

    # relational operations

    def compose(self, other: "BinRel") -> "BinRel":
        self._check(other)
        return _rel(self.n, _compose(self.n, self.bits, other.bits))

    def converse(self) -> "BinRel":
        return _rel(self.n, _converse(self.n, self.bits))

    def union(self, other: "BinRel") -> "BinRel":
        self._check(other)
        return _rel(self.n, self.bits | other.bits)

    def intersection(self, other: "BinRel") -> "BinRel":
        self._check(other)
        return _rel(self.n, self.bits & other.bits)

    def complement_in(self, E: "BinRel") -> "BinRel":
        """Complement relative to E; requires self to lie within E."""
        self._check(E)
        return _rel(self.n, _complement(self.bits, E.bits))

    def __repr__(self) -> str:
        return f"BinRel({self.n}, {{{', '.join(map(str, self.pairs()))}}})"


_set_n = BinRel.n.__set__            # type: ignore[attr-defined]
_set_bits = BinRel.bits.__set__      # type: ignore[attr-defined]
_new = object.__new__


def _rel(n: int, bits: int) -> BinRel:
    """A BinRel from bits already known to fit n points (no checks)."""
    r = _new(BinRel)
    _set_n(r, n)
    _set_bits(r, bits)
    return r


# --- the kernel on relation bits ---------------------------------------------


def _cell(n: int, x: int, y: int) -> int:
    """The bit of cell (x, y); points outside 0..n-1 are rejected."""
    x, y = operator.index(x), operator.index(y)
    if not (0 <= x < n and 0 <= y < n):
        raise CarrierMismatchError(f"point ({x}, {y}) is outside 0..{n - 1}")
    return 1 << (n * n - 1 - (x * n + y))


_LOW_COLUMN: dict[int, int] = {}


def _compose(n: int, a: int, b: int) -> int:
    """Bits of a;b.  The k-th row of b from the bottom (row n-1-k) is ORed
    into each row of the result whose cell in column n-1-k of a is set: the
    shifted column of a has one bit at the foot of each selected row, and
    multiplying it by the row copies the row there without carries.  Only
    >>, &, * and | are used, so a and b may also be object arrays of ints,
    which broadcast like any ndarray (neither is modified)."""
    low = _LOW_COLUMN.get(n)
    if low is None:
        low = _LOW_COLUMN[n] = sum(1 << (n * i) for i in range(n))
    row = (1 << n) - 1
    out = 0
    for k in range(n):
        out |= ((a >> k) & low) * (b & row)
        b = b >> n
    return out


def _complement(r: int, e: int) -> int:
    """Bits of E - R; R must lie within E."""
    if r & ~e:
        raise CarrierMismatchError("complement_in requires a subrelation of E")
    return e & ~r


class _OrMap:
    """A map on relation bits that preserves unions, given by the image of
    each single bit (bit p counted from the least significant) and applied
    four bits at a time through 16-entry tables (small, since every
    structure keeps one)."""

    __slots__ = ("tables",)

    def __init__(self, images: Sequence[int]) -> None:
        self.tables = []
        for c in range(0, len(images), 4):
            table = [0]
            for image in images[c:c + 4]:
                table += [t | image for t in table]
            self.tables.append(table)

    def __call__(self, bits: int) -> int:
        out = 0
        for table in self.tables:
            out |= table[bits & 15]
            bits >>= 4
        return out


_CONVERSE: dict[int, _OrMap] = {}


def _converse(n: int, a: int) -> int:
    """Bits of the converse: bit p = n*n-1-(i*n+j) moves to the bit of (j, i)."""
    f = _CONVERSE.get(n)
    if f is None:
        top = n * n - 1
        f = _CONVERSE[n] = _OrMap([
            1 << (top - (q % n * n + q // n))
            for q in (top - p for p in range(n * n))])
    return f(a)


def _perm_witness(fn: Sequence[int], n: int) -> Optional[tuple[int, ...]]:
    """First position at which fn stops being a permutation of 0..n-1."""
    if len(fn) == n and sorted(fn) == list(range(n)):
        return None
    if len(fn) != n:
        return (min(len(fn), n - 1),)
    seen: set[int] = set()
    for x, v in enumerate(fn):
        if not 0 <= v < n or v in seen:
            return (x,)
        seen.add(v)
    return (0,)


@dataclass(frozen=True, eq=False)
class RelStructure:
    """Carrier with partial order, equivalence containing it, an order
    automorphism `alpha` and a self-inverse dual order automorphism `beta`
    satisfying beta = alpha;beta;alpha.

    The two maps are stored as permutations; their graphs are materialised
    on demand.
    """

    n: int
    leq: BinRel
    E: BinRel
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.leq.n != self.n or self.E.n != self.n:
            raise CarrierMismatchError("leq/E carrier does not match n")
        object.__setattr__(self, "alpha", tuple(int(v) for v in self.alpha))
        object.__setattr__(self, "beta", tuple(int(v) for v in self.beta))
        labels = tuple(self.labels) if self.labels else tuple(
            f"x{i}" for i in range(self.n))
        if len(labels) != self.n or len(set(labels)) != self.n:
            raise CarrierMismatchError("labels must be distinct, one per point")
        object.__setattr__(self, "labels", labels)

    @cached_property
    def alpha_rel(self) -> BinRel:
        return BinRel.from_function(self.alpha)

    @cached_property
    def beta_rel(self) -> BinRel:
        return BinRel.from_function(self.beta)

    @cached_property
    def alpha_inv(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for x, y in enumerate(self.alpha):
            inv[y] = x
        return tuple(inv)

    def point_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no point labelled {label!r}") from None

    def __repr__(self) -> str:
        return f"RelStructure(n={self.n}, |E|={len(self.E)})"

    # --- the pair poset (E, with (u,v) below (x,y) iff x <= u and v <= y) ---

    @cached_property
    def pair_list(self) -> tuple[tuple[int, int], ...]:
        return self.E.pairs()

    @cached_property
    def _pair_precedes(self) -> np.ndarray:
        """precedes[p, q]: pair p is below pair q in the pair poset."""
        pairs = self.pair_list
        L = self.leq.mat
        u = np.array([p[0] for p in pairs], dtype=np.intp)
        v = np.array([p[1] for p in pairs], dtype=np.intp)
        return L[u[None, :], u[:, None]] & L[v[:, None], v[None, :]]

    def is_upset(self, R: BinRel) -> bool:
        """R lies within E and is upward closed in the pair poset.  The
        upward closure of R is (leq ; R ; leq) restricted to E."""
        if not R <= self.E:
            return False
        return self._up_map(R.bits) == R.bits

    @cached_property
    def _up_map(self) -> _OrMap:
        """The upward closure X -> (leq ; X ; leq) restricted to E, on bits."""
        n, leq, e = self.n, self.leq.bits, self.E.bits
        return _OrMap([_compose(n, _compose(n, leq, 1 << p), leq) & e
                       for p in range(n * n)])

    def check_upset(self, R: BinRel, what: str = "relation") -> BinRel:
        if R.n != self.n:
            raise CarrierMismatchError(f"{what} carrier does not match structure")
        if not self.is_upset(R):
            raise NotAnUpsetError(f"{what} is not an upset of the pair poset")
        return R

    # --- upset enumeration -------------------------------------------------

    def count_upsets(self, cap: int = 1 << 20) -> int:
        """Number of upsets of the pair poset, by splitting on a maximal
        remaining pair (in or out) with memoisation on the remaining-pair
        mask.  Iterative, so the pair count sets no recursion limit."""
        strict = self._pair_precedes & ~np.eye(len(self.pair_list), dtype=bool)
        below = _row_masks(strict.T)
        strictly_above = _row_masks(strict)
        memo: dict[int, int] = {0: 1}
        full = (1 << len(self.pair_list)) - 1
        stack = [full]
        while stack:
            mask = stack.pop()
            if mask in memo:
                continue
            # split on the lowest-numbered maximal remaining pair
            m = mask
            while m and strictly_above[(m & -m).bit_length() - 1] & mask:
                m &= m - 1
            if not m:
                raise LawViolationError(
                    "pair order has no maximal pair; leq is not a partial order")
            x = (m & -m).bit_length() - 1
            rest = mask & ~(1 << x)
            keep = rest & ~below[x]
            if rest in memo and keep in memo:
                memo[mask] = memo[rest] + memo[keep]
            else:
                stack += (mask, keep, rest)
        total = memo[full]
        if total > cap:
            raise CapExceededError(
                f"{total} upsets exceed cap {cap}", count=total)
        return total

    def enumerate_upsets(self, cap: int = 1 << 20) -> list[BinRel]:
        """All upsets of the pair poset.  Counts first and refuses to start
        if the total exceeds the cap."""
        return [_rel(self.n, bits) for bits in self._upset_bits(cap)]

    def _upset_bits(self, cap: int) -> list[int]:
        """The relation bits of every upset, in enumeration order.  Counts
        first and refuses to start if the total exceeds the cap."""
        self.count_upsets(cap)
        return self._upsets_between(0, self.E.bits)

    def _upsets_between(self, lo: int, hi: int) -> list[int]:
        """The relation bits of every upset r with lo <= r <= hi, for upsets
        lo and hi: depth first from members lo with the pairs of hi & ~lo
        remaining, splitting on a maximal remaining pair, upsets containing
        it first.  Iterative, so the pair count sets no recursion limit."""
        if lo & ~hi:
            return []
        n = self.n
        pairs = self.pair_list
        k = len(pairs)
        prec = self._pair_precedes.tolist()
        below = [frozenset(p for p in range(k) if p != q and prec[p][q])
                 for q in range(k)]
        strictly_above = [frozenset(q for q in range(k) if q != p and prec[p][q])
                          for p in range(k)]
        bit = [_cell(n, x, y) for x, y in pairs]
        free = hi & ~lo

        out: list[int] = []
        stack = [(lo, frozenset(p for p in range(k) if bit[p] & free))]
        while stack:
            members, remaining = stack.pop()
            if not remaining:
                out.append(members)
                continue
            x = next(p for p in remaining
                     if strictly_above[p].isdisjoint(remaining))
            rest = remaining - {x}
            stack.append((members, rest - below[x]))
            stack.append((members | bit[x], rest))
        return out


# --- structure validation ---------------------------------------------------


def validate_structure(S: RelStructure) -> ValidationReport:
    """Exhaustively check every structure invariant, reporting witnesses."""
    n = S.n
    checks: list[LawCheck] = []
    L, E = S.leq.mat, S.E.mat

    def add(name, witness, detail=""):
        checks.append(LawCheck(name, witness is None, witness, detail))

    for name, bad in zip(("leq-reflexive", "leq-antisymmetric",
                          "leq-transitive"), _order_bad(L)):
        add(name, _first_bad(bad))
    erefl_bad, _, etr_bad = _order_bad(E)
    add("E-reflexive", _first_bad(erefl_bad))
    add("E-symmetric", _first_bad(E != E.T))
    add("E-transitive", _first_bad(etr_bad))
    add("leq-within-E", _first_bad(L & ~E), "leq is inside E")

    alpha_w = _perm_witness(S.alpha, n)
    add("alpha-permutation", alpha_w)
    beta_w = _perm_witness(S.beta, n)
    add("beta-permutation", beta_w)
    if alpha_w or beta_w:
        return ValidationReport(tuple(checks))

    a = np.array(S.alpha)
    b = np.array(S.beta)
    add("alpha-order-automorphism", _first_bad(L != L[a][:, a]),
        "x <= y iff alpha(x) <= alpha(y)")
    add("alpha-within-E", _first_bad(~E[np.arange(n), a]))
    add("beta-self-inverse", _first_bad(b[b] != np.arange(n)))
    add("beta-dual-automorphism", _first_bad(L != L[b][:, b].T),
        "x <= y iff beta(y) <= beta(x)")
    add("beta-within-E", _first_bad(~E[np.arange(n), b]))
    add("beta-alpha-compatible", _first_bad(a[b[a]] != b),
        "beta = alpha;beta;alpha")
    return ValidationReport(tuple(checks))


# --- the three negations and the residuals ----------------------------------


def _checked_upset(S: RelStructure, out: BinRel) -> BinRel:
    """A negation's result, which on a valid structure is always an upset."""
    if not S.is_upset(out):
        raise LawViolationError("negation left the upsets; invalid structure")
    return out


def _tilde_bits(S: RelStructure, r: int) -> int:
    """~R = converse-of-complement composed with alpha, on the bits of an
    upset R, unchecked."""
    n = S.n
    return _compose(n, _converse(n, S.E.bits & ~r), S.alpha_rel.bits)


def _minus_bits(S: RelStructure, r: int) -> int:
    """-R = alpha composed with converse-of-complement, unchecked."""
    n = S.n
    return _compose(n, S.alpha_rel.bits, _converse(n, S.E.bits & ~r))


def _neg_bits(S: RelStructure, r: int) -> int:
    """The third negation alpha;beta;R^c;beta, unchecked."""
    n = S.n
    ab = _compose(n, S.alpha_rel.bits, S.beta_rel.bits)
    return _compose(n, _compose(n, ab, S.E.bits & ~r), S.beta_rel.bits)


def lneg_tilde(S: RelStructure, R: BinRel) -> BinRel:
    """~R = converse-of-complement composed with alpha."""
    S.check_upset(R)
    return _checked_upset(S, _rel(S.n, _tilde_bits(S, R.bits)))


def lneg_minus(S: RelStructure, R: BinRel) -> BinRel:
    """-R = alpha composed with converse-of-complement."""
    S.check_upset(R)
    return _checked_upset(S, _rel(S.n, _minus_bits(S, R.bits)))


def neg(S: RelStructure, R: BinRel) -> BinRel:
    """The third negation alpha;beta;R^c;beta."""
    S.check_upset(R)
    return _checked_upset(S, _rel(S.n, _neg_bits(S, R.bits)))


def rel_residuals(S: RelStructure, R: BinRel, T: BinRel) -> tuple[BinRel, BinRel]:
    """(R\\T, T/R) computed by the complement-converse formulas."""
    S.check_upset(R)
    S.check_upset(T)
    n, e = S.n, S.E.bits
    rc = _converse(n, R.bits)
    tc = e & ~T.bits
    left = _complement(_compose(n, rc, tc), e)
    right = _complement(_compose(n, tc, rc), e)
    return _rel(n, left), _rel(n, right)


# --- extracting operation-table algebras ------------------------------------


@dataclass(frozen=True)
class ClosureResult:
    """A closed family of upsets with its operation-table algebra and the
    element-to-relation assignment (parallel to element indices)."""

    relations: tuple[BinRel, ...]
    algebra: FiniteDqRA
    structure: RelStructure

    @property
    def assignment(self) -> dict[int, BinRel]:
        return dict(enumerate(self.relations))


def _canonical_order(S: RelStructure, rels: Iterable[BinRel],
                     insertion: bool) -> list[BinRel]:
    """Empty relation first, the order relation second, then either insertion
    order (closures) or a size/bytes sort (full algebras)."""
    rels = list(rels)
    head = [S.leq]
    if S.leq.bits and any(not r.bits for r in rels):
        head.insert(0, BinRel.empty(S.n))
    head_bits = {r.bits for r in head}
    rest = [r for r in rels if r.bits not in head_bits]
    if not insertion:
        rest.sort(key=lambda r: (r.bits.bit_count(), r.bits))
    return head + rest


def _lookup(index: dict[int, int], results) -> np.ndarray:
    """The index of each relation int of `results` (a sequence or an object
    array) in `index`, -1 where it is absent, in the shape of `results`."""
    res = np.asarray(results, dtype=object)
    found = map(index.get, res.ravel().tolist(), repeat(-1))
    return np.fromiter(found, dtype=np.int64, count=res.size).reshape(res.shape)


def algebra_from_upsets(S: RelStructure, rels: Sequence[BinRel],
                        labels: Optional[Sequence[str]] = None) -> FiniteDqRA:
    """Operation tables for a family of upsets that is closed under the six
    operations, ordered by inclusion with the order relation as unit.

    The family's relation ints form an object array, so the order and
    product tables are the int kernel broadcast over the family grid and the
    negations are taken once per element.  Every result is mapped to its
    family index by one dictionary; a relation listed twice maps to its last
    occurrence.  Raises ValueError when some result is not in the family,
    that is, when the family is not closed under the operations.
    """
    rels = list(rels)
    n = S.n
    if any(r.n != n for r in rels):
        raise CarrierMismatchError("family carrier does not match structure")
    if S.leq not in rels:
        raise ValueError("the family must contain the order relation")
    bits = [r.bits for r in rels]
    index = {r: i for i, r in enumerate(bits)}
    col = np.array(bits, dtype=object)[:, None]
    row = col.T
    leq = (col & ~row) == 0
    tables = [_lookup(index, _compose(n, col, row))]
    for op in (_tilde_bits, _minus_bits, _neg_bits):
        tables.append(_lookup(index, [op(S, r) for r in bits]))
    if any((t < 0).any() for t in tables):
        raise ValueError("family is not closed under the operations")
    if labels is None:
        labels = tuple(f"r{i}" for i in range(len(rels)))
    return FiniteDqRA(len(rels), leq, *tables, rels.index(S.leq),
                      tuple(labels))


def dq_closure(S: RelStructure, generators: Sequence[BinRel],
               cap: int = 4096) -> ClosureResult:
    """Least family containing the generators and the order relation, closed
    under intersection, union, composition and the three negations.

    Element numbering is deterministic: a fixed worklist discipline feeds the
    canonical ordering (empty first, order second, insertion order after).
    Raises CapExceededError when the closure grows past `cap`.
    """
    for g in generators:
        S.check_upset(g, "generator")
    n = S.n
    seen: dict[int, None] = {}  # insertion-ordered set of relation bits
    work: deque[int] = deque()

    def push(r: int) -> None:
        if r not in seen:
            if len(seen) >= cap:
                raise CapExceededError(f"closure exceeded cap {cap}")
            seen[r] = None
            work.append(r)

    push(S.leq.bits)
    for g in generators:
        push(g.bits)
    while work:
        r = work.popleft()
        R = _rel(n, r)
        push(lneg_tilde(S, R).bits)
        push(lneg_minus(S, R).bits)
        push(neg(S, R).bits)
        for s in list(seen):
            push(r & s)
            push(r | s)
            push(_compose(n, r, s))
            push(_compose(n, s, r))
    ordered = _canonical_order(S, (_rel(n, r) for r in seen), insertion=True)
    algebra = algebra_from_upsets(S, ordered)
    return ClosureResult(tuple(ordered), algebra, S)


def full_dq_family(S: RelStructure, cap: int = 1 << 20) -> ClosureResult:
    """The algebra of all upsets of the pair poset, with the order relation
    as unit, and its element-to-upset assignment.  The upset count is checked
    against the cap before enumeration."""
    rels = _canonical_order(S, S.enumerate_upsets(cap), insertion=False)
    return ClosureResult(tuple(rels), algebra_from_upsets(S, rels), S)


def full_dq(S: RelStructure, cap: int = 1 << 20) -> FiniteDqRA:
    """The algebra of all upsets of the pair poset (see full_dq_family)."""
    return full_dq_family(S, cap).algebra


# --- structure enumeration and sampling -------------------------------------


def _all_posets(n: int) -> Iterator[np.ndarray]:
    """All partial orders on n labelled points (reflexive matrices)."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    both_ways = [1 << k | 1 << off.index((j, i))
                 for k, (i, j) in enumerate(off) if i < j]
    for bits in range(1 << len(off)):
        if any(bits & pair == pair for pair in both_ways):
            continue    # never antisymmetric; skipped before building it
        m = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(off):
            if bits >> k & 1:
                m[i, j] = True
        if not any(bad.any() for bad in _order_bad(m)):
            yield m


def _partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def enumerate_structures(n: int) -> Iterator[RelStructure]:
    """Every valid structure on n labelled points: all compatible choices of
    partial order, equivalence containing it, order automorphism and
    self-inverse dual order automorphism with beta = alpha;beta;alpha."""
    perms = list(permutations(range(n)))
    for L in _all_posets(n):
        for part in _partitions(list(range(n))):
            E = np.zeros((n, n), dtype=bool)
            for block in part:
                for i in block:
                    for j in block:
                        E[i, j] = True
            if (L & ~E).any():
                continue
            alphas = [p for p in perms
                      if np.array_equal(L, L[np.array(p)][:, np.array(p)])
                      and all(E[x, p[x]] for x in range(n))]
            betas = [p for p in perms
                     if all(p[p[x]] == x for x in range(n))
                     and np.array_equal(L, L[np.array(p)][:, np.array(p)].T)
                     and all(E[x, p[x]] for x in range(n))]
            for a in alphas:
                for b in betas:
                    if all(a[b[a[x]]] == b[x] for x in range(n)):
                        yield RelStructure(n, BinRel.from_matrix(n, L),
                                           BinRel.from_matrix(n, E), a, b)


def sample_structures(max_n: int, count: int, seed: int,
                      upset_cap: int = 512) -> list[RelStructure]:
    """Deterministic sample of valid structures with carrier size <= max_n
    whose upset count stays within the cap."""
    pool: list[RelStructure] = []
    for n in range(1, max_n + 1):
        for s in enumerate_structures(n):
            try:
                s.count_upsets(upset_cap)
            except CapExceededError:
                continue
            pool.append(s)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(pool), size=count)
    return [pool[int(i)] for i in picks]
