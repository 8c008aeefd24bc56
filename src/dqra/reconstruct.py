"""Reconstruction of the named catalogue algebras by constraint search.

Each catalogue entry is known through a labelled lattice diagram annotated
with a handful of products and with the positions of the unit (and sometimes
the zero).  The full operation tables are recovered by searching all
assignments consistent with the diagram and the algebra laws:

* the first linear negation ranges over dual isomorphisms of the lattice,
  the second is forced to its inverse, and the third negation ranges over
  order-reversing involutions sending the unit to the zero;
* products are residuated, hence join preserving, so only products of join
  generators are branched on; the rest of the table follows by joins;
* every completed candidate must pass the full exhaustive validator.

A solution is accepted only when it is unique after deduplication.  Two
entries need documented extra steps:

* one four-element chain admits two lattices-with-tables under its diagram
  constraints, one of which coincides with a differently named entry of the
  same catalogue; since distinct entries denote distinct algebras, that
  table is excluded (`distinct_from`);
* one six-element diagram carries a product annotation that no residuated
  table can satisfy (a product of the top with an element a strictly above
  the annotated value can never drop below a); the annotation is dropped,
  the remaining constraints already pin a unique table, and the expected
  contraction of the result is cross-checked (`cross_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from .algebra import (FiniteDqRA, join_generators, lattice_tables,
                      validate_dqra)
from .isomorphism import algebras_isomorphic


@dataclass(frozen=True)
class Diagram:
    """A labelled lattice diagram with product annotations."""

    name: str
    labels: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    unit: str
    zero: Optional[str] = None
    products: tuple[tuple[str, str, str], ...] = ()   # (x, y, value)
    dropped_products: tuple[tuple[str, str, str], ...] = ()
    distinct_from: tuple[str, ...] = ()
    cross_check: Optional[tuple[str, str]] = None      # (psi label, target name)
    provenance: str = "constraint reconstruction from annotated lattice diagram"


@dataclass(frozen=True)
class ReconstructionOutcome:
    diagram: Diagram
    solutions: tuple[FiniteDqRA, ...]
    status: str          # "unique" | "ambiguous" | "unsatisfiable"
    note: str = ""

    @property
    def algebra(self) -> FiniteDqRA:
        if self.status != "unique":
            raise ValueError(
                f"{self.diagram.name}: reconstruction is {self.status}")
        return self.solutions[0]


_CHAIN = lambda *ls: tuple((ls[i], ls[i + 1]) for i in range(len(ls) - 1))

_SIX_32_COVERS = (("bot", "c"), ("c", "1"), ("c", "b"), ("1", "a"),
                  ("b", "a"), ("a", "top"))
_SIX_43_COVERS = (("bot", "0"), ("bot", "b"), ("0", "a"), ("b", "a"),
                  ("b", "1"), ("a", "top"), ("1", "top"))

DIAGRAMS: tuple[Diagram, ...] = (
    Diagram("D^3_{1,1}", ("bot", "a", "1"), _CHAIN("bot", "a", "1"), "1",
            products=(("a", "a", "bot"),)),
    Diagram("D^4_{1,1}", ("bot", "a", "b", "1"), _CHAIN("bot", "a", "b", "1"),
            "1", products=(("a", "a", "bot"), ("b", "a", "bot")),
            distinct_from=("D^4_{1,2}",)),
    Diagram("D^4_{1,2}", ("bot", "a", "b", "1"), _CHAIN("bot", "a", "b", "1"),
            "1", products=(("b", "b", "a"), ("a", "a", "bot"),
                           ("b", "a", "bot"))),
    Diagram("D^5_{1,4}", ("bot", "0", "a", "1", "top"),
            _CHAIN("bot", "0", "a", "1", "top"), "1", zero="0",
            products=(("a", "a", "0"), ("top", "0", "top"))),
    Diagram("D^5_{1,5}", ("bot", "0", "a", "1", "top"),
            _CHAIN("bot", "0", "a", "1", "top"), "1", zero="0",
            products=(("top", "0", "a"), ("top", "a", "a"),
                      ("a", "a", "bot"))),
    Diagram("D^4_{3,1}", ("bot", "1", "a", "top"),
            (("bot", "1"), ("bot", "a"), ("1", "top"), ("a", "top")), "1",
            zero="1", products=(("top", "a", "a"), ("a", "a", "bot")),
            cross_check=("top", "D^3_{1,1}")),
    Diagram("D^6_{3,2}", ("bot", "c", "1", "b", "a", "top"), _SIX_32_COVERS,
            "1", zero="1",
            products=(("a", "b", "b"), ("b", "c", "c"), ("b", "b", "c"),
                      ("a", "c", "c"), ("top", "c", "top")),
            cross_check=("a", "D^5_{1,4}")),
    Diagram("D^6_{3,4}", ("bot", "c", "1", "b", "a", "top"), _SIX_32_COVERS,
            "1", zero="1",
            products=(("a", "b", "b"), ("top", "b", "b"), ("a", "c", "c"),
                      ("b", "b", "bot")),
            dropped_products=(("top", "a", "b"),),
            cross_check=("a", "D^5_{1,5}")),
    Diagram("D^6_{4,3}", ("bot", "0", "b", "a", "1", "top"), _SIX_43_COVERS,
            "1", zero="0",
            products=(("0", "0", "a"), ("top", "a", "a"), ("top", "b", "b"),
                      ("a", "b", "bot")),
            cross_check=("top", "D^4_{1,1}")),
    Diagram("D^6_{4,4}", ("bot", "0", "b", "a", "1", "top"), _SIX_43_COVERS,
            "1", zero="0",
            products=(("top", "0", "a"), ("top", "a", "a"), ("0", "0", "b"),
                      ("a", "a", "b"), ("top", "b", "b"), ("a", "b", "bot")),
            cross_check=("top", "D^4_{1,2}")),
)

DIAGRAMS_BY_NAME = {d.name: d for d in DIAGRAMS}


def _closure_leq(n: int, covers: Sequence[tuple[int, int]]) -> np.ndarray:
    leq = np.eye(n, dtype=bool)
    for lo, hi in covers:
        leq[lo, hi] = True
    for k in range(n):
        leq |= leq[:, k][:, None] & leq[k, :][None, :]
    return leq


def _dual_isos(leq: np.ndarray) -> list[tuple[int, ...]]:
    n = leq.shape[0]
    out = []
    for p in permutations(range(n)):
        q = np.array(p)
        if np.array_equal(leq, leq[q][:, q].T):
            out.append(p)
    return out


def reconstruct(diagram: Diagram,
                resolved: Optional[dict[str, "ReconstructionOutcome"]] = None,
                ) -> ReconstructionOutcome:
    """Search all operation tables consistent with the diagram and the
    algebra laws; dedupe and apply the documented resolutions."""
    labels = diagram.labels
    n = len(labels)
    ix = {l: i for i, l in enumerate(labels)}
    leq = _closure_leq(n, [(ix[a], ix[b]) for a, b in diagram.covers])
    meet, join = lattice_tables(leq)
    if (meet < 0).any() or (join < 0).any():
        raise ValueError("diagram is not a lattice")
    unit = ix[diagram.unit]
    bot = next(a for a in range(n) if leq[a].all())
    gens = [g for g in join_generators(join) if g != bot]
    gen_below = [[g for g in gens if leq[g, a]] for a in range(n)]

    annot = {(ix[x], ix[y]): ix[v] for x, y, v in diagram.products}

    solutions: dict[bytes, FiniteDqRA] = {}
    duals = _dual_isos(leq)
    for til in duals:
        mns = [0] * n
        for a in range(n):
            mns[til[a]] = a
        if til[unit] != mns[unit]:
            continue
        zero = til[unit]
        if diagram.zero is not None and zero != ix[diagram.zero]:
            continue
        for ngn in duals:
            if any(ngn[ngn[a]] != a for a in range(n)):
                continue
            if ngn[unit] != zero:
                continue
            _search_products(
                n, leq, join, unit, bot, gens, gen_below, annot, til, mns,
                ngn, labels, solutions)

    sols = list(solutions.values())
    note = ""
    if diagram.distinct_from and resolved is not None:
        rivals = [resolved[o].algebra for o in diagram.distinct_from
                  if o in resolved and resolved[o].status == "unique"]
        kept = [s for s in sols
                if not any(algebras_isomorphic(s, r) for r in rivals)]
        if len(kept) < len(sols):
            note = (f"excluded {len(sols) - len(kept)} table(s) coinciding "
                    f"with {', '.join(diagram.distinct_from)}")
        sols = kept
    if not sols:
        return ReconstructionOutcome(diagram, (), "unsatisfiable", note)
    if len(sols) > 1:
        return ReconstructionOutcome(diagram, tuple(sols), "ambiguous", note)
    return ReconstructionOutcome(diagram, tuple(sols), "unique", note)


def _search_products(n, leq, join, unit, bot, gens, gen_below, annot,
                     til, mns, ngn, labels, solutions) -> None:
    """Backtrack over join-generator products for fixed unary tables."""
    m1 = mns[unit]
    slots = []
    for g in gens:
        for h in gens:
            if g == unit or h == unit:
                continue
            slots.append((g, h))
    # annotated slots first: they are forced
    slots.sort(key=lambda gh: gh not in annot)
    assign: dict[tuple[int, int], int] = {}

    def candidates(g: int, h: int) -> list[int]:
        if (g, h) in annot:
            return [annot[(g, h)]]
        out = []
        for v in range(n):
            # separation laws relate products to the order through the zero:
            # g.h <= -1 iff g <= -h iff h <= ~g
            if leq[v, m1] != leq[g, mns[h]]:
                continue
            if leq[v, m1] != leq[h, til[g]]:
                continue
            ok = True
            for (g2, h2), v2 in assign.items():
                if leq[g2, g] and leq[h2, h] and not leq[v2, v]:
                    ok = False
                    break
                if leq[g, g2] and leq[h, h2] and not leq[v, v2]:
                    ok = False
                    break
            if ok:
                out.append(v)
        return out

    def extend() -> Optional[np.ndarray]:
        mult = np.zeros((n, n), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                v = None
                for g in gen_below[a]:
                    for h in gen_below[b]:
                        if g == unit:
                            w = h
                        elif h == unit:
                            w = g
                        else:
                            w = assign[(g, h)]
                        v = w if v is None else join[v, w]
                mult[a, b] = bot if v is None else v
        return mult

    def leaf() -> None:
        mult = extend()
        # assigned generator products must survive the join extension
        for (g, h), v in assign.items():
            if mult[g, h] != v:
                return
        for (x, y), v in annot.items():
            if mult[x, y] != v:
                return
        cand = FiniteDqRA(n, leq, mult, til, mns, ngn, unit, labels)
        if validate_dqra(cand).ok:
            solutions.setdefault(cand.table_key(), cand)

    def bt(i: int) -> None:
        if i == len(slots):
            leaf()
            return
        g, h = slots[i]
        for v in candidates(g, h):
            assign[(g, h)] = v
            bt(i + 1)
            del assign[(g, h)]

    bt(0)


def reconstruct_catalogue() -> dict[str, ReconstructionOutcome]:
    """Reconstruct every diagram, honouring cross-entry resolutions."""
    resolved: dict[str, ReconstructionOutcome] = {}
    # entries without exclusions first so rivals are available
    for d in sorted(DIAGRAMS, key=lambda d: bool(d.distinct_from)):
        resolved[d.name] = reconstruct(d, resolved)
    return resolved
