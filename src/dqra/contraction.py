"""Positive symmetric idempotents and the algebras they carve out.

The contraction theorem: for a positive symmetric idempotent p of a
distributive quasi relation algebra, {x : p.x.p = x} is closed under every
operation and is again one, with unit p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (FiniteDqRA, LawViolationError, _freeze,
                      _set_lattice_tables, validate_dqra)


class NotPsiError(ValueError):
    """The chosen element is not a positive symmetric idempotent."""


def is_psi(A: FiniteDqRA, p: int) -> bool:
    """True iff 1 <= p, the three unary images of p coincide, and p.p = p.
    Raises NotAnElementError unless p is an integer index in 0..size-1."""
    p = A._element(p)
    return bool(
        A.leq[A.unit, p]
        and int(A.tilde[p]) == int(A.minus[p]) == int(A.negn[p])
        and int(A.mult[p, p]) == p
    )


def psi_elements(A: FiniteDqRA) -> tuple[int, ...]:
    """All positive symmetric idempotents, in element-index order."""
    return tuple(p for p in range(A.size) if is_psi(A, p))


@dataclass(frozen=True)
class MembershipVerdict:
    """The three equivalent membership tests for pAp at one element."""

    in_pap: bool            # b = p.a.p for some a
    pbp_eq_b: bool          # p.b.p = b
    pb_and_bp_eq_b: bool    # p.b = b and b.p = b

    @property
    def verdict(self) -> bool:
        return self.pbp_eq_b


def membership_tfae(A: FiniteDqRA, p: int, b: int) -> MembershipVerdict:
    """Evaluate all three membership characterisations and check they agree.

    Disagreement means the ambient algebra is broken (p must be idempotent).
    Raises NotAnElementError unless p and b are integer indices in
    0..size-1.
    """
    p, b = A._element(p), A._element(b)
    if int(A.mult[p, p]) != p:
        raise NotPsiError(f"element {A.label(p)} is not idempotent")
    in_pap = any(
        int(A.mult[A.mult[p, a], p]) == b for a in range(A.size)
    )
    pbp = int(A.mult[A.mult[p, b], p]) == b
    pb_bp = int(A.mult[p, b]) == b and int(A.mult[b, p]) == b
    if not (in_pap == pbp == pb_bp):
        raise LawViolationError(
            f"membership characterisations disagree at p={A.label(p)}, "
            f"b={A.label(b)}: broken algebra"
        )
    return MembershipVerdict(in_pap, pbp, pb_bp)


@dataclass(frozen=True, eq=False)
class Contraction:
    """The algebra on {x : p.x.p = x} with unit p.

    `members` lists the surviving parent elements in parent index order and
    doubles as the inclusion map: contraction element k is parent element
    members[k].
    """

    parent: FiniteDqRA
    p: int
    members: tuple[int, ...]
    algebra: FiniteDqRA

    def member_index(self, parent_elt: int) -> int:
        return self.members.index(parent_elt)

    def __repr__(self) -> str:
        return (f"Contraction(p={self.parent.label(self.p)}, "
                f"size={len(self.members)})")


def contract(A: FiniteDqRA, p: int) -> Contraction:
    """Build the contraction at a positive symmetric idempotent p (an
    integer index in 0..size-1, else NotAnElementError, from `is_psi`).

    A must validate (its kept report is checked once, after p).  Then the
    contraction theorem makes every table, the parent's meet and join
    tables included, restrict to the members as it is, and the result is
    not revalidated.  Members follow parent index order, so output is
    stable.
    """
    if not is_psi(A, p):
        raise NotPsiError(
            f"element {A.label(p)} is not a positive symmetric idempotent")
    validate_dqra(A).raise_if_failed("algebra does not validate")
    sel = np.flatnonzero(A.mult[A.mult[p], p] == np.arange(A.size))
    members = tuple(sel.tolist())
    back = np.full(A.size, -1, dtype=np.int64)   # parent -> member index
    back[sel] = np.arange(len(members))
    labels = tuple(A.labels[x] for x in members)
    # fresh arrays, handed over read-only: FiniteDqRA shares them
    algebra = FiniteDqRA(len(members), *map(_freeze, (
        A.leq[sel][:, sel], back[A.mult[sel][:, sel]], back[A.tilde[sel]],
        back[A.minus[sel]], back[A.negn[sel]])), int(back[p]), labels)
    _set_lattice_tables(algebra, back[A.meet_table[sel][:, sel]],
                        back[A.join_table[sel][:, sel]])
    return Contraction(A, p, members, algebra)
