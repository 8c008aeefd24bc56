"""Operations called from several threads at once give what one thread
alone gives.

Table extraction resolves each family through a direct-address table of
the 2^16 relations on at most 4 points (`relations._lookup`), filled for
one family and reset after it.  Two threads sharing one such table would
read each other's indices: wrong tables, or a spurious "not closed"
`ValueError`.  Each thread has its own.
"""

import sys
import threading
from itertools import islice

from dqra.relations import (algebra_from_upsets, enumerate_structures,
                            full_dq_family)


def tables(A) -> bytes:
    return A.table_key() + A.meet_table.tobytes() + A.join_table.tobytes()


def test_two_threads_extract_the_tables_that_one_thread_does():
    # 20 full upset algebras on 4 points (64 or 256 upsets each), extracted
    # 5 times over by each of two threads switching every microsecond
    families = list(islice(((S, full_dq_family(S).relations)
                             for S in enumerate_structures(4)
                             if S.count_upsets(1 << 16) <= 256), 20))
    want = [tables(algebra_from_upsets(S, rels)) for S, rels in families]
    counts = {"calls": 0, "wrong": 0, "errors": 0}
    lock = threading.Lock()

    def work() -> None:
        for _ in range(5):
            for (S, rels), expected in zip(families, want):
                wrong = errors = 0
                try:
                    wrong = tables(algebra_from_upsets(S, rels)) != expected
                except ValueError:
                    errors = 1
                with lock:
                    counts["calls"] += 1
                    counts["wrong"] += wrong
                    counts["errors"] += errors

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert counts == {"calls": 200, "wrong": 0, "errors": 0}
