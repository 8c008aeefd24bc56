"""Calculus of binary relations over a finite carrier and the algebras of
upward-closed relations built from a partially ordered equivalence.

A structure bundles a partial order, an equivalence containing it, an order
automorphism and a self-inverse dual order automorphism compatible with it.
The set of upsets of the pair poset carries a distributive quasi relation
algebra structure; closures and the full algebra are extracted as operation
tables.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import (FiniteDqRA, LawCheck, LawViolationError,
                      ValidationReport, _count, _freeze, _integer,
                      _set_lattice_tables, _verdict, _zero_one, order_maps)


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
    Values are immutable, on at most three points one shared object each
    (`_rel`); `mat` is a read-only boolean matrix built on demand.  The
    size, the bits and the points of `from_pairs` are integers (through
    `operator.index`; bools refused) in range, else CarrierMismatchError.
    """

    __slots__ = ("n", "bits")
    n: int
    bits: int

    def __new__(cls, n: int, bits: int) -> "BinRel":
        i, b = _integer(n), _integer(bits)
        if i is None or i < 0:
            raise CarrierMismatchError(
                f"carrier size must be a non-negative integer: {n!r}")
        if b is None or b < 0 or b >> (i * i):
            raise CarrierMismatchError(
                f"relation bits {bits!r} are not an int fitting {i} points")
        return _rel(i, b)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BinRel is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("BinRel is immutable")

    def __reduce__(self):
        return (BinRel, (self.n, self.bits))

    # constructors

    @classmethod
    def from_matrix(cls, n: int, mat) -> "BinRel":
        """The relation of an n x n matrix of entries 0 and 1 (n as in
        `BinRel`; other entries as in `_zero_one`)."""
        try:
            m = np.asarray(mat)
        except ValueError:      # a ragged matrix
            m = None
        if m is None or m.shape != (n, n):
            raise CarrierMismatchError(f"matrix must be {n}x{n}")
        m = _zero_one(m, CarrierMismatchError, "matrix")
        bits = int.from_bytes(np.packbits(m).tobytes(), "big")
        return cls(n, bits >> -m.size % 8)

    @classmethod
    def empty(cls, n: int) -> "BinRel":
        return cls(n, 0)

    @staticmethod
    @cache
    def identity(n: int) -> "BinRel":
        return BinRel(n, sum(1 << k * (n + 1) for k in range(n)))

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
        """The cells of the relation row-major: its set bits, highest first."""
        n, top = self.n, self.n * self.n - 1
        return tuple(divmod(top - p, n) for p in _bit_indices(self.bits))

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
        try:
            if self.n != other.n:
                self._check(other)
            return not self.bits & ~other.bits
        except AttributeError:      # not a relation: Python raises TypeError
            return NotImplemented

    def __lt__(self, other: "BinRel") -> bool:
        if not isinstance(other, BinRel):
            return NotImplemented
        return self <= other and self != other

    def _check(self, other: "BinRel") -> None:
        if self.n != other.n:
            raise CarrierMismatchError(
                f"carrier sizes differ: {self.n} vs {other.n}")

    # relational operations

    def compose(self, other: "BinRel") -> "BinRel":
        """The product self;other: on at most three points the shared
        object (`_SHARED`) read off the carrier's product table
        (`_products`), beyond that `_compose`."""
        n = self.n
        if n != other.n:
            self._check(other)
        if n <= 3:
            table = _PRODUCTS.get(n) or _products(n)
            return _SHARED[n][table[self.bits << n * n | other.bits]]
        return _rel(n, _compose(n, self.bits, other.bits))

    def converse(self) -> "BinRel":
        return _rel(self.n, _converse(self.n, self.bits))

    def union(self, other: "BinRel") -> "BinRel":
        if self.n != other.n:
            self._check(other)
        return _rel(self.n, self.bits | other.bits)

    def intersection(self, other: "BinRel") -> "BinRel":
        if self.n != other.n:
            self._check(other)
        return _rel(self.n, self.bits & other.bits)

    def complement_in(self, E: "BinRel") -> "BinRel":
        """Complement relative to E; requires self to lie within E."""
        if self.n != E.n:
            self._check(E)
        if self.bits & ~E.bits:
            raise CarrierMismatchError(
                "complement_in requires a subrelation of E")
        return _rel(self.n, E.bits & ~self.bits)

    def __repr__(self) -> str:
        return f"BinRel({self.n}, {{{', '.join(map(str, self.pairs()))}}})"


_set_n = BinRel.n.__set__            # type: ignore[attr-defined]
_set_bits = BinRel.bits.__set__      # type: ignore[attr-defined]
_new = object.__new__


def _rel(n: int, bits: int) -> BinRel:
    """A BinRel from bits known to fit n points (no checks); shared if n <= 3."""
    if n <= 3:
        return _SHARED[n][bits]
    r = _new(BinRel)
    _set_n(r, n)
    _set_bits(r, bits)
    return r


# Every relation on at most three points as one shared object (1 + 2 + 16 +
# 512 = 531), so kernel results on small carriers allocate nothing; four
# points would make 65,536 (about 5.5 MB and 0.2 s at every import).
_SHARED = [[_new(BinRel) for _ in range(1 << n * n)] for n in range(4)]
for _n, _row in enumerate(_SHARED):
    for _bits, _r in enumerate(_row):
        _set_n(_r, _n)
        _set_bits(_r, _bits)
del _n, _row, _bits, _r


# --- the kernel on relation bits ---------------------------------------------


def _cell(n: int, x: int, y: int) -> int:
    """The bit of cell (x, y); points that are not integers in 0..n-1
    (`_integer`) are rejected."""
    i, j = _integer(x), _integer(y)
    if None in (i, j) or not (0 <= i < n and 0 <= j < n):
        raise CarrierMismatchError(
            f"({x!r}, {y!r}) is not a pair of points in 0..{n - 1}")
    return 1 << (n * n - 1 - (i * n + j))


_SHIFTS: dict[int, tuple[int, int, tuple[tuple[int, int], ...]]] = {}


def _compose(n: int, a: int, b: int) -> int:
    """Bits of a;b.  The k-th row of b from the bottom (row n-1-k) is ORed
    into each row of the result whose cell in column n-1-k of a is set: the
    shifted column of a has one bit at the foot of each selected row, and
    multiplying it by the row copies the row there without carries.  The
    per-carrier entry of `_SHIFTS`, filled on first use, holds the low
    column (bit 0 of each row), the row mask and the shift pairs (k, n*k)
    for k = 1..n-1.  Only >>, &, * and | are used, so a and b may also be
    arrays of relation ints (int64 when n*n <= 63: no product carries past
    bit n*n; object beyond), which broadcast like any ndarray (neither is
    modified)."""
    entry = _SHIFTS.get(n)
    if entry is None:
        entry = _SHIFTS[n] = (sum(1 << (n * i) for i in range(n)),
                              (1 << n) - 1,
                              tuple((k, n * k) for k in range(1, n)))
    low, row, steps = entry
    out = (a & low) * (b & row)    # on 0 points: zeros in the broadcast shape
    for k, s in steps:
        out |= (a >> k & low) * (b >> s & row)
    return out


# The product of every pair of relations on n <= 3 points, one table per
# carrier filled on the first product on n points (`_products`).
_PRODUCTS: dict[int, array] = {}


def _products(n: int) -> array:
    """The product table of n <= 3 points: an array('H') of 2^(2n*n)
    entries, entry a << n*n | b holding the bits of a;b (512 KB at n = 3).
    It is filled from `_compose` 64 rows of a at a time, so the build holds
    a few 64 x 2^(n*n) int64 blocks at once, and goes into `_PRODUCTS` only
    when complete: a thread reading `_PRODUCTS` finds no table or a whole
    one (threads that both build it store equal tables)."""
    rels = np.arange(1 << n * n, dtype=np.int64)
    table = array("H")
    for start in range(0, len(rels), 64):
        block = _compose(n, rels[start:start + 64, None], rels)
        table.frombytes(block.astype(np.uint16).tobytes())
    _PRODUCTS[n] = table
    return table


def _or_tables(images: Sequence[int]) -> list[list[int]]:
    """The tables of the map on relation bits that preserves unions and
    sends each single bit (bit p counted from the least significant) to
    images[p]: on at most 9 cells (three points, as `_SHARED`) one table
    over every relation of the carrier, beyond that table k holds the 16
    unions of the images of bits 4k to 4k + 3, the short last one padded
    with zeros; there is always one table, so a column has bits to index."""
    width = len(images) if len(images) <= 9 else 4
    tables = []
    for c in range(0, len(images) or 1, width or 1):
        table = [0]
        for image in images[c:c + width]:
            table += [t | image for t in table]
        tables.append(table + [0] * ((1 << width) - len(table)))
    return tables


def _or_map(tables: Sequence[list[int]], bits: int) -> int:
    """The map given by `_or_tables` applied to one relation int.  A
    one-table map (on at most three points) covers every relation of its
    carrier and is indexed by the whole int; a longer one is read four
    bits at a time."""
    if len(tables) == 1:
        return tables[0][bits]
    out = 0
    for table in tables:
        out |= table[bits & 15]
        bits >>= 4
    return out


def _column(n: int, bits) -> np.ndarray:
    """Relation ints on n points (or nested lists of them) as an array:
    int64 when a relation fits a machine word (n*n <= 63), object beyond."""
    return np.array(bits, dtype=np.int64 if n * n <= 63 else object)


def _map_columns(maps: Sequence[Sequence[list[int]]], bits: np.ndarray
                 ) -> list[np.ndarray]:
    """Each map (`_or_tables`, best stacked by `_column`) applied to a
    `_column` of relation ints (images of relations fit the same dtype):
    table k of a map reads the k-th run of log2(len) consecutive bits of
    the column, from the least significant, all tables in one `take`.  The
    maps must have equally many tables of one length (the maps `_or_tables`
    makes for one carrier do: one table on at most three points)."""
    size = len(maps[0][0])
    k = np.arange(len(maps[0]))[:, None]
    index = (bits >> (size.bit_length() - 1) * k & size - 1
             | size * k).astype(np.intp, copy=False)
    tables = np.asarray(maps, dtype=bits.dtype).reshape(len(maps), -1)
    return [np.bitwise_or.reduce(f.take(index), axis=0) for f in tables]


def _cell_map(n: int, f: Callable[..., list]) -> list[list[int]]:
    """The tables (`_or_tables`) of the map that sends the bit of each cell
    (x, y) of n points, bit n*n-1-(x*n+y), to the bits of the cells f(x, y)."""
    cells = (f(*divmod(n * n - 1 - p, n)) for p in range(n * n))
    return _or_tables([sum(1 << n * n - 1 - (i * n + j) for i, j in c)
                       for c in cells])


_CONVERSE: dict[int, list[list[int]]] = {}


def _converse(n: int, a: int) -> int:
    """Bits of the converse: cell (i, j) moves to (j, i)."""
    f = _CONVERSE.get(n)
    if f is None:
        f = _CONVERSE[n] = _cell_map(n, lambda i, j: [(j, i)])
    return _or_map(f, a)


def _order_faults(n: int, r: int) -> tuple[int, int, int]:
    """Bits of r breaking reflexivity (absent diagonal cells), antisymmetry
    (off-diagonal cells with their converse) and transitivity (r;r - r)."""
    diagonal = BinRel.identity(n).bits
    return (diagonal & ~r, r & _converse(n, r) & ~diagonal,
            _compose(n, r, r) & ~r)


def _conjugate(n: int, f: int, r: int) -> int:
    """Bits of f;r;f^-1 for the graph f of a map: (x, y) iff (fx, fy) in r."""
    return _compose(n, _compose(n, f, r), _converse(n, f))


def _first_cell(n: int, bits: int) -> tuple[int, int]:
    """The first row-major cell of relation bits: the highest set bit."""
    return divmod(n * n - bits.bit_length(), n)


def _bit_indices(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, highest first."""
    while mask:
        p = mask.bit_length() - 1
        yield p
        mask ^= 1 << p


def _perm_witness(fn: Sequence[int], n: int) -> Optional[tuple[int, ...]]:
    """First position at which fn stops being a permutation of 0..n-1."""
    if len(fn) != n:
        return (min(len(fn), n - 1),)
    seen: set[int] = set()
    for x, v in enumerate(fn):
        if not 0 <= v < n or v in seen:
            return (x,)
        seen.add(v)


_NEGATIONS: dict[tuple, tuple[tuple[list[list[int]], ...], Sequence]] = {}


def _up_tables(n: int, leq: int, e: int) -> list[list[int]]:
    """The upward closure X -> (leq ; X ; leq) within E on n points, as
    tables (`_or_tables`): on at most three points one table, so an
    upset test is one index."""
    return _or_tables([_compose(n, _compose(n, leq, 1 << p), leq) & e
                       for p in range(n * n)])


# The closures of the 64 orders and E on at most three points used last: a
# 512-entry table takes about 17 us to build at n = 3, and every fresh
# structure would pay it again.
_shared_up_tables = lru_cache(maxsize=64)(_up_tables)


@dataclass(frozen=True, eq=False)
class RelStructure:
    """Carrier with partial order, equivalence containing it, an order
    automorphism `alpha` and a self-inverse dual order automorphism `beta`
    satisfying beta = alpha;beta;alpha.

    The two maps are stored as permutations; their graphs are materialised
    on demand.  The carrier size `n` is an integer (bools refused) >= 0,
    else NotACountError; the entries of `alpha` and `beta` are integers
    (`_integer`), else CarrierMismatchError, and `validate_structure`
    reports those outside the points.
    """

    n: int
    leq: BinRel
    E: BinRel
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, "carrier size n"))
        if self.leq.n != self.n or self.E.n != self.n:
            raise CarrierMismatchError("leq/E carrier does not match n")
        for name in ("alpha", "beta"):
            given = tuple(getattr(self, name))
            fn = tuple(map(_integer, given))
            if None in fn:
                raise CarrierMismatchError(f"{name} entries must be integers,"
                                           f" not {given[fn.index(None)]!r}")
            object.__setattr__(self, name, fn)
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
    def _report(self) -> ValidationReport:
        """`validate_structure`'s report, kept with the frozen fields."""
        return ValidationReport(tuple(_validate_structure(self)))

    @cached_property
    def _negations(self) -> tuple[tuple[list[list[int]], ...], np.ndarray]:
        """~, - and the third negation as maps (`_cell_map` tables, one on
        at most three points) of the bits of the complement E - R, then the
        maps stacked for `_map_columns` in one array of `_column`'s dtype,
        built once for each n, alpha and beta and shared by every structure
        that has them.
        With R^c = E - R, ~R = (R^c)^-1;alpha sends cell (u, v) to
        (v, alpha(u)), -R = alpha;(R^c)^-1 sends it to each (x, u) with
        alpha(x) = v, and alpha;beta;R^c;beta sends it to each (x, beta(v))
        with beta(alpha(x)) = u: one cell each when alpha and beta are
        permutations of the points.  Maps that do not send the n points
        into themselves raise `LawViolationError`."""
        n, a, b = self.n, self.alpha, self.beta
        entry = _NEGATIONS.get((n, a, b))
        if entry is None:
            if not (len(a) == len(b) == n and all(0 <= v < n for v in a + b)):
                raise LawViolationError(
                    "alpha or beta maps outside the points; invalid structure")
            a_pre = [[] for _ in range(n)]     # the x with alpha(x) = v
            ba_pre = [[] for _ in range(n)]    # the x with beta(alpha(x)) = u
            for x, y in enumerate(a):
                a_pre[y].append(x)
                ba_pre[b[y]].append(x)
            maps = (
                _cell_map(n, lambda u, v: [(v, a[u])]),
                _cell_map(n, lambda u, v: [(x, u) for x in a_pre[v]]),
                _cell_map(n, lambda u, v: [(x, b[v]) for x in ba_pre[u]]))
            entry = _NEGATIONS[n, a, b] = maps, _column(n, maps)
        return entry

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
    def _pair_masks(self) -> tuple[list[int], list[int]]:
        """For each pair p of `pair_list`, the pairs strictly below p and the
        pairs strictly above p, as masks with bit q for pair q.  Built from
        the set cells of leq: the pairs (u, .) with x <= u and the pairs
        (., v) with v <= y meet in those below (x, y), and dually."""
        n = self.n
        first, second = [0] * n, [0] * n
        for q, (u, v) in enumerate(self.pair_list):
            first[u] |= 1 << q
            second[v] |= 1 << q
        up_first, up_second = [0] * n, [0] * n        # over u with x <= u
        down_first, down_second = [0] * n, [0] * n    # over u with u <= x
        for x, u in self.leq.pairs():    # x <= u
            up_first[x] |= first[u]
            up_second[x] |= second[u]
            down_first[u] |= first[x]
            down_second[u] |= second[x]
        below, above = [], []
        for p, (x, y) in enumerate(self.pair_list):
            bit = 1 << p
            below.append((up_first[x] & down_second[y] | bit) ^ bit)
            above.append((down_first[x] & up_second[y] | bit) ^ bit)
        return below, above

    def is_upset(self, R: BinRel) -> bool:
        """R lies within E and is upward closed in the pair poset.  The
        upward closure of R is (leq ; R ; leq) restricted to E, so
        up(R) == R puts R within E."""
        if R.n != self.n:
            R._check(self.E)
        return _or_map(self._up_map, R.bits) == R.bits

    @cached_property
    def _up_map(self) -> list[list[int]]:
        """The upward closure within E, as tables (`_up_tables`): on at
        most three points shared by the structures with the same order and
        E, beyond built for each structure."""
        args = self.n, self.leq.bits, self.E.bits
        return _shared_up_tables(*args) if self.n <= 3 else _up_tables(*args)

    def check_upset(self, R: BinRel, what: str = "relation") -> BinRel:
        if R.n != self.n:
            raise CarrierMismatchError(f"{what} carrier does not match structure")
        if _or_map(self._up_map, R.bits) != R.bits:
            raise NotAnUpsetError(f"{what} is not an upset of the pair poset")
        return R

    # --- upset enumeration -------------------------------------------------

    def count_upsets(self, cap: int = 1 << 20) -> int:
        """Number of upsets of the pair poset: the product of the counts of
        the connected components of the pair order.  A component is counted
        by splitting on a maximal remaining pair (in or out) with
        memoisation on the remaining-pair mask.  Iterative, so the pair
        count sets no recursion limit.  The cap is an integer (bools
        refused) >= 0, else NotACountError; a count above it raises
        CapExceededError."""
        cap = _count(cap, "upset cap")
        below, strictly_above = self._pair_masks
        total = 1
        remaining = (1 << len(below)) - 1
        while remaining:
            component = frontier = remaining & -remaining
            while frontier:
                grown = 0
                for p in _bit_indices(frontier):
                    grown |= below[p] | strictly_above[p]
                frontier = grown & ~component
                component |= frontier
            remaining ^= component
            memo: dict[int, int] = {0: 1}
            stack = [component]
            while stack:
                mask = stack.pop()
                if mask in memo:
                    continue
                # split on the lowest-numbered maximal remaining pair
                m = mask
                while m and strictly_above[(m & -m).bit_length() - 1] & mask:
                    m &= m - 1
                if not m:
                    raise LawViolationError("pair order has no maximal pair; "
                                            "leq is not a partial order")
                x = (m & -m).bit_length() - 1
                rest = mask & ~(1 << x)
                keep = rest & ~below[x]
                if rest in memo and keep in memo:
                    memo[mask] = memo[rest] + memo[keep]
                else:
                    stack += (mask, keep, rest)
            total *= memo[component]
        if total > cap:
            try:
                count = str(total)
            except ValueError:  # past the interpreter's int-to-decimal limit
                count = f"at least 2^{total.bit_length() - 1}"
            raise CapExceededError(f"{count} upsets exceed cap {cap}",
                                   count=total)
        return total

    @cached_property
    def _leq_is_order(self) -> bool:
        """Whether leq is reflexive, antisymmetric and transitive."""
        return not any(_order_faults(self.n, self.leq.bits))

    def _check_upset_cap(self, cap: int) -> None:
        """Raise what `count_upsets(cap)` raises, if anything: the upsets
        are bounded, then counted.  An upset is a subset of E, so there are
        at most 2^|E| of them; when leq is a partial order the pair order
        is one too, so the count always finds a maximal pair.  When both
        hold and 2^|E| <= cap the check cannot fail and nothing is
        counted.  A cap that is not an integer >= 0 raises
        NotACountError."""
        cap = _count(cap, "upset cap")
        if not (1 << len(self.E) <= cap and self._leq_is_order):
            self.count_upsets(cap)

    def enumerate_upsets(self, cap: int = 1 << 20) -> list[BinRel]:
        """All upsets of the pair poset.  Bounds, then counts them (see
        `_check_upset_cap`) and refuses to start if the total exceeds the
        cap (CapExceededError), or when the cap is not an integer >= 0
        (NotACountError)."""
        self._check_upset_cap(cap)
        return [_rel(self.n, bits)
                for bits in self._upsets_between(0, self.E.bits)]

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
        below, strictly_above = ([frozenset(_bit_indices(m)) for m in masks]
                                 for masks in self._pair_masks)
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
    """Exhaustively check every structure invariant, reporting witnesses.
    The fields are frozen, so the report is computed once per structure and
    kept on it."""
    return S._report


def _validate_structure(S: RelStructure) -> Iterator[LawCheck]:
    n, L, E = S.n, S.leq.bits, S.E.bits

    def cell(bad: int, per_point: bool = False) -> Optional[tuple[int, ...]]:
        if bad:    # the first row-major cell, or its row for per-point laws
            return _first_cell(n, bad)[:1 if per_point else 2]

    refl, anti, trans = _order_faults(n, L)
    yield _verdict("leq-reflexive", cell(refl, True))
    yield _verdict("leq-antisymmetric", cell(anti))
    yield _verdict("leq-transitive", cell(trans))
    e_refl, _, e_trans = _order_faults(n, E)
    yield _verdict("E-reflexive", cell(e_refl, True))
    yield _verdict("E-symmetric", cell(E ^ _converse(n, E)))
    yield _verdict("E-transitive", cell(e_trans))
    yield _verdict("leq-within-E", cell(L & ~E), "leq is inside E")

    perms = (_verdict("alpha-permutation", _perm_witness(S.alpha, n)),
             _verdict("beta-permutation", _perm_witness(S.beta, n)))
    yield from perms
    if not all(check.ok for check in perms):
        return      # the checks below read alpha and beta as relations

    a, b = S.alpha_rel.bits, S.beta_rel.bits
    yield _verdict("alpha-order-automorphism", cell(L ^ _conjugate(n, a, L)),
                   "x <= y iff alpha(x) <= alpha(y)")
    yield _verdict("alpha-within-E", cell(a & ~E, True))
    # a permutation graph is its own inverse iff it is symmetric
    yield _verdict("beta-self-inverse", cell(b ^ _converse(n, b), True))
    yield _verdict("beta-dual-automorphism", cell(
        L ^ _converse(n, _conjugate(n, b, L))), "x <= y iff beta(y) <= beta(x)")
    yield _verdict("beta-within-E", cell(b & ~E, True))
    yield _verdict("beta-alpha-compatible", cell(
        _compose(n, _compose(n, a, b), a) ^ b, True), "beta = alpha;beta;alpha")


# --- the three negations and the residuals ----------------------------------


def _negate(S: RelStructure, k: int, R: BinRel) -> BinRel:
    """Negation k (0 ~, 1 -, 2 the third) of an upset R over S's carrier,
    checked: R and the result (always, on a valid S) must be upsets, that is
    fixed points of the upward closure, whose images lie in E."""
    up, r = S._up_map, R.bits
    if not (R.n == S.n and _or_map(up, r) == r):
        S.check_upset(R)
    out = _or_map(S._negations[0][k], S.E.bits & ~r)
    if _or_map(up, out) != out:
        raise LawViolationError("negation left the upsets; invalid structure")
    return _rel(S.n, out)


def lneg_tilde(S: RelStructure, R: BinRel) -> BinRel:
    """~R = converse-of-complement composed with alpha."""
    return _negate(S, 0, R)


def lneg_minus(S: RelStructure, R: BinRel) -> BinRel:
    """-R = alpha composed with converse-of-complement."""
    return _negate(S, 1, R)


def neg(S: RelStructure, R: BinRel) -> BinRel:
    """The third negation alpha;beta;R^c;beta."""
    return _negate(S, 2, R)


def rel_residuals(S: RelStructure, R: BinRel, T: BinRel) -> tuple[BinRel, BinRel]:
    """(R\\T, T/R) computed by the complement-converse formulas,
    R\\T = E - (R^-1 ; (E - T)) and T/R = E - ((E - T) ; R^-1): on at most
    three points each product is one read of the product table
    (`_products`) and the upset tests one index of `_up_map`."""
    n, e, up = S.n, S.E.bits, S._up_map
    if not (R.n == n == T.n and _or_map(up, R.bits) == R.bits
            and _or_map(up, T.bits) == T.bits):
        S.check_upset(R)    # up(r) == r puts r in E: one of these raises
        S.check_upset(T)
    rc, tc = _converse(n, R.bits), e & ~T.bits
    if n <= 3:
        table = _PRODUCTS.get(n) or _products(n)
        left, right = table[rc << n * n | tc], table[tc << n * n | rc]
    else:
        left, right = _compose(n, rc, tc), _compose(n, tc, rc)
    if (left | right) & ~e:
        raise CarrierMismatchError("complement_in requires a subrelation of E")
    return _rel(n, e & ~left), _rel(n, e & ~right)


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


def _canonical_order(S: RelStructure, rels: Iterable[BinRel]) -> list[BinRel]:
    """Empty relation first, the order relation second, then the others in
    the order given."""
    rels = list(rels)
    head = [S.leq]
    if S.leq.bits and any(not r.bits for r in rels):
        head.insert(0, BinRel.empty(S.n))
    head_bits = {r.bits for r in head}
    return head + [r for r in rels if r.bits not in head_bits]


_THREAD = threading.local()    # holds each thread's `_lookup` table


def _lookup(family: np.ndarray, n: int, results: Sequence[np.ndarray]
            ) -> list[np.ndarray]:
    """Each array of relation ints on n points in `results` mapped to the
    indices of its relations in `family` (a column of distinct relation
    ints), -1 where absent, in the shape of the array.  For n*n <= 16 an
    int64 column writes its indices into its thread's table over the 2^16
    relations on at most 4 points, where each array is one `take`, and
    resets them to -1 before returning: O(m) for m relations, one family at
    a time in each thread.  A wider int64 column is resolved by binary
    search in its sorted keys, an object column through one dictionary."""
    if family.dtype == object:
        get = {r: i for i, r in enumerate(family.tolist())}.get
        return [np.fromiter(map(get, t.ravel().tolist(), repeat(-1)),
                            dtype=np.int64, count=t.size).reshape(t.shape)
                for t in results]
    if n * n <= 16:
        table = getattr(_THREAD, "table", None)
        if table is None:
            table = _THREAD.table = np.full(1 << 16, -1, dtype=np.int64)
        try:
            table[family] = np.arange(len(family))
            return [table.take(t) for t in results]
        finally:
            table[family] = -1
    order = family.argsort()
    keys = family[order]
    pos = [np.minimum(np.searchsorted(keys, t), len(keys) - 1)
           for t in results]
    return [np.where(keys[p] == t, order[p], -1) for p, t in zip(pos, results)]


def _family_tables(S: RelStructure, bits: Sequence[int]
                   ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The table-extraction kernel for a family of distinct upsets given by
    relation ints: the family as a `_column`; the family index (-1 outside
    the family) of every product, intersection and union and of each
    element's three negations, all six through one `_lookup`.  Every
    operation is the int kernel applied to the whole column (products
    broadcast over the family grid)."""
    col = _column(S.n, bits)
    r, s = col[:, None], col[None, :]
    negations = _map_columns(S._negations[1], S.E.bits & ~col)
    found = _lookup(col, S.n, [_compose(S.n, r, s), r & s, r | s, *negations])
    return col, found[:3], found[3:]


def algebra_from_upsets(S: RelStructure, rels: Sequence[BinRel]
                        ) -> FiniteDqRA:
    """Operation tables for a family of distinct upsets that is closed under
    the six operations, ordered by inclusion with the order relation as unit.

    The tables come from `_family_tables`.  Raises ValueError when the
    family lists a relation twice (naming both positions), and when some
    result is not in the family, that is, when the family is not closed
    under the operations.  The intersection and union tables go to
    `_set_lattice_tables`, which keeps them when they are total.
    """
    rels = list(rels)
    if any(r.n != S.n for r in rels):
        raise CarrierMismatchError("family carrier does not match structure")
    bits = [r.bits for r in rels]
    if len(set(bits)) < len(bits):
        i = next(i for i, r in enumerate(bits) if r in bits[:i])
        raise ValueError("the family lists a relation twice, at positions "
                         f"{bits.index(bits[i])} and {i}")
    if S.leq not in rels:
        raise ValueError("the family must contain the order relation")
    col, (product, meet, join), unary = _family_tables(S, bits)
    if (product < 0).any() or any((t < 0).any() for t in unary):
        raise ValueError("family is not closed under the operations")
    # fresh arrays, handed over read-only: FiniteDqRA shares them
    A = FiniteDqRA(len(rels), *map(_freeze, ((col[:, None] & ~col) == 0,
                                             product, *unary)),
                   rels.index(S.leq), tuple(f"r{i}" for i in range(len(rels))))
    _set_lattice_tables(A, meet, join)
    return A


def dq_closure(S: RelStructure, generators: Sequence[BinRel],
               cap: int = 4096) -> ClosureResult:
    """Least family containing the generators and the order relation, closed
    under intersection, union, composition and the three negations.

    Element numbering is deterministic and feeds the canonical ordering
    (empty first, order second, insertion order after): the members are
    walked in insertion order while the list grows.  Each member r adds its
    three negations, then, as one column over all members so far, r & s,
    r | s, r;s and s;r for each member s in turn; new results join in that
    order.  Raises CapExceededError when the closure grows past `cap`, and
    NotACountError when `cap` is not an integer (bools refused) >= 0.
    S is validated once, after the generators (LawViolationError if it
    fails; the report is kept on S), so the negations run unchecked.
    """
    cap = _count(cap, "closure cap")
    for g in generators:
        S.check_upset(g, "generator")
    validate_structure(S).raise_if_failed("structure does not validate")
    n, e, negations = S.n, S.E.bits, S._negations[0]
    members: list[int] = []   # relation bits in insertion order
    seen: set[int] = set()

    def add(results: Iterable[int]) -> None:
        new = [r for r in dict.fromkeys(results) if r not in seen]
        if len(members) + len(new) > cap:
            raise CapExceededError(f"closure exceeded cap {cap}")
        members.extend(new)
        seen.update(new)

    add([S.leq.bits, *(g.bits for g in generators)])
    for r in members:   # the loop reaches members added while it runs
        add([_or_map(f, e & ~r) for f in negations])
        col = _column(n, members)
        add(np.stack([r & col, r | col, _compose(n, r, col),
                      _compose(n, col, r)], axis=1).ravel().tolist())
    ordered = _canonical_order(S, (_rel(n, r) for r in members))
    algebra = algebra_from_upsets(S, ordered)
    return ClosureResult(tuple(ordered), algebra, S)


def full_dq_family(S: RelStructure, cap: int = 1 << 20) -> ClosureResult:
    """The algebra of all upsets of the pair poset, with the order relation
    as unit, and its element-to-upset assignment.  The upsets are bounded,
    then counted, against the cap before enumeration (`enumerate_upsets`:
    CapExceededError above it, NotACountError when it is not an integer
    >= 0), and taken in the order of (size, bits)."""
    rels = _canonical_order(S, sorted(
        S.enumerate_upsets(cap), key=lambda r: (r.bits.bit_count(), r.bits)))
    return ClosureResult(tuple(rels), algebra_from_upsets(S, rels), S)


def full_dq(S: RelStructure, cap: int = 1 << 20) -> FiniteDqRA:
    """The algebra of all upsets of the pair poset (see full_dq_family,
    which raises CapExceededError or NotACountError for the cap)."""
    return full_dq_family(S, cap).algebra


# --- structure enumeration and sampling -------------------------------------


def _all_posets(n: int) -> Iterator[np.ndarray]:
    """All partial orders on n labelled points (reflexive matrices), in the
    order of their off-diagonal cells read as bits (cell k of `off` at bit
    k).  Patterns are tested 2^16 at a time: those with a pair of opposite
    cells are dropped before any matrix is built, then the transitive ones
    are kept."""
    off = np.array([(i, j) for i in range(n) for j in range(n) if i != j],
                   dtype=np.intp).reshape(-1, 2)
    k = len(off)
    index = {(int(i), int(j)): b for b, (i, j) in enumerate(off)}
    both_ways = [1 << b | 1 << index[j, i]
                 for (i, j), b in index.items() if i < j]
    shifts = np.arange(k)
    width = 1 << min(k, 16)
    for start in range(0, 1 << k, width):
        bits = np.arange(start, start + width, dtype=np.int64)
        for pair in both_ways:
            bits = bits[bits & pair != pair]
        m = np.zeros((len(bits), n, n), dtype=np.uint8)
        m[:, np.arange(n), np.arange(n)] = 1
        m[:, off[:, 0], off[:, 1]] = bits[:, None] >> shifts & 1
        transitive = ~((m @ m > 0) & (m == 0)).any(axis=(1, 2))
        yield from m[transitive].astype(bool)


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
    self-inverse dual order automorphism with beta = alpha;beta;alpha.
    The first step raises NotACountError when n is not an integer (bools
    refused) >= 0."""
    n = _count(n, "carrier size n")
    equivalences = []
    for part in _partitions(list(range(n))):
        block = [0] * n
        for k, members in enumerate(part):
            for i in members:
                block[i] = k
        E = BinRel.from_matrix(n, np.equal.outer(block, block))
        equivalences.append((block, E))
    for L in _all_posets(n):
        leq = BinRel.from_matrix(n, L)
        autos = list(order_maps(L, L))
        duals = [p for p in order_maps(L, L, dual=True)
                 if all(p[p[x]] == x for x in range(n))]
        for block, E in equivalences:
            if leq.bits & ~E.bits:
                continue
            alphas = [p for p in autos
                      if all(block[x] == block[p[x]] for x in range(n))]
            betas = [p for p in duals
                     if all(block[x] == block[p[x]] for x in range(n))]
            for a in alphas:
                for b in betas:
                    if all(a[b[a[x]]] == b[x] for x in range(n)):
                        yield RelStructure(n, leq, E, a, b)


def sample_structures(max_n: int, count: int, seed: int,
                      upset_cap: int = 512) -> list[RelStructure]:
    """Deterministic sample of valid structures with carrier size <= max_n
    whose upset count stays within the cap.  NotACountError when max_n is
    not an integer (bools refused) >= 1, or count or upset_cap one >= 0;
    CapExceededError when count > 0 and every structure exceeds the cap."""
    max_n, count = _count(max_n, "max_n", 1), _count(count, "count")
    pool: list[RelStructure] = []
    for n in range(1, max_n + 1):
        for s in enumerate_structures(n):
            try:
                s.count_upsets(upset_cap)
            except CapExceededError:
                continue
            pool.append(s)
    if count and not pool:
        raise CapExceededError(f"every structure on at most {max_n} "
                               f"point(s) has more than {upset_cap} upsets")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(pool), size=count)
    return [pool[int(i)] for i in picks]
