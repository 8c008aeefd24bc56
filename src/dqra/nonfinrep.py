"""Obstructions that rule out representation over any finite poset.

Two scans: the basic pattern 0 < a < 1 with a.a <= 0, and its relativised
form p.b = b = b.p with -p < b < p and b.b <= -p for a positive symmetric
idempotent p.  The second specialises to the first at p = 1 because -1 = 0.
By the contraction theorem, the first inside every contraction pAp finds
something iff the second does on the parent; the tests check that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import FiniteDqRA, derived_zero, validate_dqra
from .contraction import Contraction, contract, psi_elements


@dataclass(frozen=True)
class Obstruction:
    """Witness data for a non-finite-representability verdict."""

    kind: str                   # "basic" or "contraction"
    b: int                      # the offending element
    p: Optional[int] = None     # the idempotent, for the relativised form
    note: str = ""

    def describe(self, A: FiniteDqRA) -> str:
        if self.kind == "basic":
            return (f"basic obstruction: 0 < {A.label(self.b)} < 1 "
                    f"and {A.label(self.b)}^2 <= 0")
        return (f"contraction obstruction at p={A.label(self.p)}: "
                f"-p < {A.label(self.b)} < p and {A.label(self.b)}^2 <= -p")


def basic_obstruction(A: FiniteDqRA) -> Optional[Obstruction]:
    """Least-index element a with 0 < a < 1 (strictly) and a.a <= 0, if any."""
    z = derived_zero(A)
    one = A.unit
    for a in range(A.size):
        if A.lt(z, a) and A.lt(a, one) and A.le(int(A.mult[a, a]), z):
            return Obstruction("basic", a)
    return None


def contraction_obstruction(A: FiniteDqRA) -> Optional[Obstruction]:
    """Least (p-index, b-index) pair with p a positive symmetric idempotent,
    p.b = b = b.p, -p < b < p and b.b <= -p, if any."""
    for p in psi_elements(A):
        mp = int(A.minus[p])
        for b in range(A.size):
            if int(A.mult[p, b]) != b or int(A.mult[b, p]) != b:
                continue
            if A.lt(mp, b) and A.lt(b, p) and A.le(int(A.mult[b, b]), mp):
                return Obstruction("contraction", b, p)
    return None


@dataclass(frozen=True)
class ContractionScanRow:
    p: int
    contraction: Contraction
    obstruction: Optional[Obstruction]   # basic obstruction inside pAp


@dataclass(frozen=True)
class ContractionScan:
    algebra: FiniteDqRA
    rows: tuple[ContractionScanRow, ...]

    @property
    def flagged(self) -> bool:
        return any(r.obstruction is not None for r in self.rows)

    def __str__(self) -> str:
        lines = []
        for r in self.rows:
            verdict = "clean"
            if r.obstruction is not None:
                inner = r.contraction.algebra
                verdict = f"basic witness {inner.label(r.obstruction.b)}"
            lines.append(
                f"p={self.algebra.label(r.p)} |pAp|={len(r.contraction.members)}"
                f" -> {verdict}")
        return "\n".join(lines)


def scan_contractions(A: FiniteDqRA) -> ContractionScan:
    """Contract at every positive symmetric idempotent and run the basic
    scan inside each contraction.

    A must validate, and is checked once up front, so that an invalid
    algebra is refused even when it has no such idempotent.  pAp has unit
    p and zero ~p = -p, so its basic scan is the relativised scan at p and
    the outcome agrees with `contraction_obstruction`.
    """
    validate_dqra(A).raise_if_failed("algebra does not validate")
    rows = []
    for p in psi_elements(A):
        c = contract(A, p)
        rows.append(ContractionScanRow(p, c, basic_obstruction(c.algebra)))
    return ContractionScan(A, tuple(rows))
