"""`check_di` against the row-loop version it replaced.

`loop_check_di` builds the `order-via-minus` matrix one row at a time, as
`check_di` did before it became a single gather.  Every single-cell mutant of
the product and unary tables of every catalogue algebra must get the same
report from both, witnesses included.
"""

import numpy as np

from dqra import FiniteDqRA, check_di
from dqra.algebra import LawCheck, ValidationReport, _first_bad

from conftest import ALL_NAMES


# --- the replaced code ---------------------------------------------------------


def loop_check_di(A: FiniteDqRA) -> ValidationReport:
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


# --- the comparison ------------------------------------------------------------


def single_cell_mutants(A: FiniteDqRA):
    """Every algebra that differs from A in one cell of one table."""
    n = A.size
    tables = {"mult": A.mult, "tilde": A.tilde, "minus": A.minus,
              "negn": A.negn}
    for name, table in tables.items():
        for cell in np.ndindex(table.shape):
            for v in range(n):
                if v == table[cell]:
                    continue
                changed = table.copy()
                changed[cell] = v
                fields = {**tables, name: changed}
                yield FiniteDqRA(n, A.leq, fields["mult"], fields["tilde"],
                                 fields["minus"], fields["negn"], A.unit)


def test_mutant_reports_match_the_loop_check(algebras):
    minus_witnesses = set()
    for name in ALL_NAMES:
        for B in single_cell_mutants(algebras[name]):
            report = check_di(B)
            assert str(report) == str(loop_check_di(B)), name
            minus_witnesses.add(report["order-via-minus"].witness)
    # the mutants exercise order-via-minus failures away from the diagonal
    # and the first row, where a transposed gather would show
    assert any(w is not None and w[0] != w[1] and w[0] > 0
               for w in minus_witnesses)
