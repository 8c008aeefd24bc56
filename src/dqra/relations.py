"""Calculus of binary relations over a finite carrier and the algebras of
upward-closed relations built from a partially ordered equivalence.

A structure bundles a partial order, an equivalence containing it, an order
automorphism and a self-inverse dual order automorphism compatible with it.
The set of upsets of the pair poset carries a distributive quasi relation
algebra structure; closures and the full algebra are extracted as operation
tables.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import (FiniteDqRA, LawCheck, LawViolationError,
                      ValidationReport, _freeze, _row_masks)


class CarrierMismatchError(ValueError):
    """Relations over different carriers were combined."""


class NotAnUpsetError(ValueError):
    """A relation fed to an upset-only operation is not an upset."""


class CapExceededError(RuntimeError):
    """An enumeration or closure exceeded its size cap."""

    def __init__(self, message: str, count: Optional[int] = None):
        super().__init__(message)
        self.count = count


@dataclass(frozen=True, eq=False)
class BinRel:
    """A binary relation over {0..n-1}, stored as a dense boolean matrix."""

    n: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=bool)
        if m.shape != (self.n, self.n):
            raise CarrierMismatchError(f"matrix must be {self.n}x{self.n}")
        object.__setattr__(self, "mat", _freeze(m))

    # constructors

    @classmethod
    def empty(cls, n: int) -> "BinRel":
        return cls(n, np.zeros((n, n), dtype=bool))

    @classmethod
    def identity(cls, n: int) -> "BinRel":
        return cls(n, np.eye(n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "BinRel":
        return cls(n, np.ones((n, n), dtype=bool))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "BinRel":
        m = np.zeros((n, n), dtype=bool)
        for x, y in pairs:
            m[x, y] = True
        return cls(n, m)

    @classmethod
    def from_function(cls, fn: Sequence[int]) -> "BinRel":
        """The graph {(x, fn(x))} of a function on {0..n-1}."""
        n = len(fn)
        m = np.zeros((n, n), dtype=bool)
        m[np.arange(n), np.asarray(fn)] = True
        return cls(n, m)

    # set-like behaviour

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((int(x), int(y)) for x, y in np.argwhere(self.mat))

    def __len__(self) -> int:
        return int(self.mat.sum())

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return bool(self.mat[pair])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinRel):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.mat, other.mat)

    def __hash__(self) -> int:
        return hash((self.n, self.mat.tobytes()))

    def __le__(self, other: "BinRel") -> bool:
        self._check(other)
        return bool((~self.mat | other.mat).all())

    def __lt__(self, other: "BinRel") -> bool:
        return self <= other and self != other

    def _check(self, other: "BinRel") -> None:
        if self.n != other.n:
            raise CarrierMismatchError(
                f"carrier sizes differ: {self.n} vs {other.n}")

    # relational operations

    def compose(self, other: "BinRel") -> "BinRel":
        self._check(other)
        prod = self.mat.astype(np.uint8) @ other.mat.astype(np.uint8)
        return BinRel(self.n, prod > 0)

    def converse(self) -> "BinRel":
        return BinRel(self.n, self.mat.T)

    def union(self, other: "BinRel") -> "BinRel":
        self._check(other)
        return BinRel(self.n, self.mat | other.mat)

    def intersection(self, other: "BinRel") -> "BinRel":
        self._check(other)
        return BinRel(self.n, self.mat & other.mat)

    def complement_in(self, E: "BinRel") -> "BinRel":
        """Complement relative to E; requires self to lie within E."""
        self._check(E)
        if not self <= E:
            raise CarrierMismatchError("complement_in requires a subrelation of E")
        return BinRel(self.n, E.mat & ~self.mat)

    def key(self) -> bytes:
        return np.packbits(self.mat).tobytes()

    def __repr__(self) -> str:
        return f"BinRel({self.n}, {{{', '.join(map(str, self.pairs()))}}})"


def _is_permutation(fn: Sequence[int], n: int) -> bool:
    return len(fn) == n and sorted(fn) == list(range(n))


def _perm_witness(fn: Sequence[int], n: int) -> Optional[tuple[int, ...]]:
    """First position at which fn stops being a permutation of 0..n-1."""
    if _is_permutation(fn, n):
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
        u = np.array([p[0] for p in pairs])
        v = np.array([p[1] for p in pairs])
        return L[u[None, :], u[:, None]] & L[v[:, None], v[None, :]]

    def is_upset(self, R: BinRel) -> bool:
        """R lies within E and is upward closed in the pair poset.  The
        upward closure of R is (leq ; R ; leq) restricted to E."""
        if not R <= self.E:
            return False
        up = self.leq.compose(R).compose(self.leq).intersection(self.E)
        return up == R

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
        self.count_upsets(cap)
        pairs = self.pair_list
        k = len(pairs)
        prec = self._pair_precedes
        below = [frozenset(p for p in range(k) if p != q and prec[p, q])
                 for q in range(k)]
        strictly_above = [frozenset(q for q in range(k) if q != p and prec[p, q])
                          for p in range(k)]

        results: list[int] = []

        def emit(mask_members: int, remaining: frozenset[int]) -> None:
            if not remaining:
                results.append(mask_members)
                return
            x = next(p for p in remaining if not (strictly_above[p] & remaining))
            rest = remaining - {x}
            emit(mask_members | (1 << x), rest)
            emit(mask_members, rest - below[x])

        emit(0, frozenset(range(k)))
        out = []
        for mask in results:
            m = np.zeros((self.n, self.n), dtype=bool)
            for p in range(k):
                if mask >> p & 1:
                    m[pairs[p]] = True
            out.append(BinRel(self.n, m))
        return out


# --- structure validation ---------------------------------------------------


def validate_structure(S: RelStructure) -> ValidationReport:
    """Exhaustively check every structure invariant, reporting witnesses."""
    n = S.n
    checks: list[LawCheck] = []
    L, E = S.leq.mat, S.E.mat

    def add(name, ok, witness=None, detail=""):
        checks.append(LawCheck(name, bool(ok), witness, detail))

    def first(bad: np.ndarray) -> Optional[tuple[int, ...]]:
        if not bad.any():
            return None
        return tuple(int(v) for v in np.argwhere(bad)[0])

    refl_bad = ~L.diagonal()
    add("leq-reflexive", not refl_bad.any(), first(refl_bad))
    anti_bad = L & L.T & ~np.eye(n, dtype=bool)
    add("leq-antisymmetric", not anti_bad.any(), first(anti_bad))
    Lu = L.astype(np.uint8)
    ltr_bad = ((Lu @ Lu) > 0) & ~L
    add("leq-transitive", not ltr_bad.any(), first(ltr_bad))

    erefl_bad = ~E.diagonal()
    add("E-reflexive", not erefl_bad.any(), first(erefl_bad))
    esym_bad = E != E.T
    add("E-symmetric", not esym_bad.any(), first(esym_bad))
    Eu = E.astype(np.uint8)
    etr_bad = ((Eu @ Eu) > 0) & ~E
    add("E-transitive", not etr_bad.any(), first(etr_bad))

    inc_bad = L & ~E
    add("leq-within-E", not inc_bad.any(), first(inc_bad), "leq is inside E")

    aperm = _is_permutation(S.alpha, n)
    add("alpha-permutation", aperm, _perm_witness(S.alpha, n))
    bperm = _is_permutation(S.beta, n)
    add("beta-permutation", bperm, _perm_witness(S.beta, n))
    if not (aperm and bperm):
        return ValidationReport(tuple(checks))

    a = np.array(S.alpha)
    b = np.array(S.beta)
    aauto_bad = L != L[a][:, a]
    add("alpha-order-automorphism", not aauto_bad.any(), first(aauto_bad),
        "x <= y iff alpha(x) <= alpha(y)")
    agraph_bad = ~E[np.arange(n), a]
    add("alpha-within-E", not agraph_bad.any(), first(agraph_bad))

    bself_bad = b[b] != np.arange(n)
    add("beta-self-inverse", not bself_bad.any(), first(bself_bad))
    bdual_bad = L != L[b][:, b].T
    add("beta-dual-automorphism", not bdual_bad.any(), first(bdual_bad),
        "x <= y iff beta(y) <= beta(x)")
    bgraph_bad = ~E[np.arange(n), b]
    add("beta-within-E", not bgraph_bad.any(), first(bgraph_bad))

    compat_bad = a[b[a]] != b
    add("beta-alpha-compatible", not compat_bad.any(), first(compat_bad),
        "beta = alpha;beta;alpha")
    return ValidationReport(tuple(checks))


# --- the three negations and the residuals ----------------------------------


def _checked_upset(S: RelStructure, out: BinRel) -> BinRel:
    """A negation's result, which on a valid structure is always an upset."""
    if not S.is_upset(out):
        raise LawViolationError("negation left the upsets; invalid structure")
    return out


def lneg_tilde(S: RelStructure, R: BinRel) -> BinRel:
    """~R = converse-of-complement composed with alpha."""
    S.check_upset(R)
    out = R.complement_in(S.E).converse().compose(S.alpha_rel)
    return _checked_upset(S, out)


def lneg_minus(S: RelStructure, R: BinRel) -> BinRel:
    """-R = alpha composed with converse-of-complement."""
    S.check_upset(R)
    out = S.alpha_rel.compose(R.complement_in(S.E).converse())
    return _checked_upset(S, out)


def neg(S: RelStructure, R: BinRel) -> BinRel:
    """The third negation alpha;beta;R^c;beta."""
    S.check_upset(R)
    out = (S.alpha_rel.compose(S.beta_rel)
           .compose(R.complement_in(S.E))
           .compose(S.beta_rel))
    return _checked_upset(S, out)


def rel_residuals(S: RelStructure, R: BinRel, T: BinRel) -> tuple[BinRel, BinRel]:
    """(R\\T, T/R) computed by the complement-converse formulas."""
    S.check_upset(R)
    S.check_upset(T)
    left = R.converse().compose(T.complement_in(S.E)).complement_in(S.E)
    right = T.complement_in(S.E).compose(R.converse()).complement_in(S.E)
    return left, right


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
    head = []
    empt = BinRel.empty(S.n)
    if empt in rels:
        head.append(empt)
    head.append(S.leq)
    rest = [r for r in rels if r not in head]
    if not insertion:
        rest.sort(key=lambda r: (len(r), r.key()))
    return head + rest


def algebra_from_upsets(S: RelStructure, rels: Sequence[BinRel],
                        labels: Optional[Sequence[str]] = None) -> FiniteDqRA:
    """Operation tables for a family of upsets that is closed under the six
    operations, ordered by inclusion with the order relation as unit.

    Every result matrix of a table is computed for all cells at once with
    stacked matrix kernels and mapped to its family index by one keyed
    lookup: each n x n matrix is packed row-major into a fixed-width byte
    key, the family's keys are sorted once, and all results are found with
    a binary search.  A relation listed twice maps to its last occurrence.
    Raises ValueError when some result is not in the family, that is, when
    the family is not closed under the operations.
    """
    rels = list(rels)
    if S.leq not in rels:
        raise ValueError("the family must contain the order relation")
    m = len(rels)
    n = S.n
    stack = np.stack([r.mat for r in rels])                # (m, n, n) bool

    def packed(mats: np.ndarray) -> np.ndarray:
        """(..., n, n) boolean stack -> (..., ceil(n*n/8)) packed rows."""
        flat = mats.reshape(mats.shape[:-2] + (n * n,))
        return np.packbits(flat, axis=-1)

    family = packed(stack)
    width = family.shape[-1]
    order = np.argsort(family.view(f"V{width}")[:, 0], kind="stable")
    sorted_keys = np.ascontiguousarray(family[order])
    sorted_void = sorted_keys.view(f"V{width}")[:, 0]

    def index_of(mats: np.ndarray) -> np.ndarray:
        """Map a (..., n, n) stack of boolean matrices to family indices."""
        query = np.ascontiguousarray(packed(mats).reshape(-1, width))
        pos = np.searchsorted(sorted_void, query.view(f"V{width}")[:, 0],
                              side="right") - 1
        hit = (pos >= 0) & (sorted_keys[pos] == query).all(axis=-1)
        if not hit.all():
            raise ValueError("family is not closed under the operations")
        return order[pos].reshape(mats.shape[:-2])

    bits = stack.reshape(m, n * n)
    leq = ~np.any(bits[:, None, :] & ~bits[None, :, :], axis=-1)
    st8 = stack.astype(np.uint8)
    mult = index_of((st8[:, None] @ st8[None, :]) > 0)     # (m, m, n, n)

    a = np.array(S.alpha)
    ainv = np.array(S.alpha_inv)
    b = np.array(S.beta)
    compl = S.E.mat[None, :, :] & ~stack                   # complements in E
    conv = compl.transpose(0, 2, 1)
    til = index_of(conv[:, :, ainv])                       # R^{c~};alpha
    mns = index_of(conv[:, a, :])                          # alpha;R^{c~}
    ngn = index_of(compl[:, b[a], :][:, :, b])             # alpha;beta;R^c;beta

    if labels is None:
        labels = tuple(f"r{i}" for i in range(m))
    return FiniteDqRA(m, leq, mult, til, mns, ngn, rels.index(S.leq),
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
    seen: dict[BinRel, None] = {}  # insertion-ordered set
    work: deque[BinRel] = deque()

    def push(r: BinRel) -> None:
        if r not in seen:
            if len(seen) >= cap:
                raise CapExceededError(f"closure exceeded cap {cap}")
            seen[r] = None
            work.append(r)

    push(S.leq)
    for g in generators:
        push(g)
    while work:
        r = work.popleft()
        push(lneg_tilde(S, r))
        push(lneg_minus(S, r))
        push(neg(S, r))
        for s in list(seen):
            push(r.intersection(s))
            push(r.union(s))
            push(r.compose(s))
            push(s.compose(r))
    ordered = _canonical_order(S, seen, insertion=True)
    algebra = algebra_from_upsets(S, ordered)
    return ClosureResult(tuple(ordered), algebra, S)


def full_dq(S: RelStructure, cap: int = 1 << 20) -> FiniteDqRA:
    """The algebra of all upsets of the pair poset, with the order relation
    as unit.  The upset count is checked against the cap before enumeration."""
    rels = _canonical_order(S, S.enumerate_upsets(cap), insertion=False)
    return algebra_from_upsets(S, rels)


def full_dq_family(S: RelStructure, cap: int = 1 << 20) -> ClosureResult:
    """Like full_dq but keeps the element-to-upset assignment."""
    rels = _canonical_order(S, S.enumerate_upsets(cap), insertion=False)
    return ClosureResult(tuple(rels), algebra_from_upsets(S, rels), S)


# --- structure enumeration and sampling -------------------------------------


def _all_posets(n: int) -> Iterator[np.ndarray]:
    """All partial orders on n labelled points (reflexive matrices)."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(off)):
        m = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(off):
            if bits >> k & 1:
                m[i, j] = True
        if (m & m.T & ~np.eye(n, dtype=bool)).any():
            continue
        mu = m.astype(np.uint8)
        if (((mu @ mu) > 0) & ~m).any():
            continue
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
                        yield RelStructure(n, BinRel(n, L), BinRel(n, E), a, b)


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
