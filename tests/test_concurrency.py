"""Operations called from several threads at once give what one thread
alone gives.

Table extraction resolves each family through a direct-address table of
the 2^16 relations on at most 4 points (`relations._lookup`), filled for
one family and reset after it.  Two threads sharing one such table would
read each other's indices: wrong tables, or a spurious "not closed"
`ValueError`.  Each thread has its own.

Products on at most three points are read from a table per carrier
(`relations._PRODUCTS`), built on the first product.  It is stored only
once complete, so a thread that reads it while another builds it sees no
table (and builds one of its own), never a partial one.
"""

import os
import subprocess
import sys
import threading
from itertools import islice
from pathlib import Path

import dqra
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


# run in a fresh interpreter, where no product table is built yet: in each
# of 20 rounds two threads, released together, make their first products
# on 3 points and count the pairs whose product is not `_compose`'s; the
# table is filled from its first row and they read from its last, so a
# partial table would fail them (the table is dropped after each round)
FIRST_PRODUCTS = """
import sys, threading
from dqra.relations import _PRODUCTS, _compose, BinRel
sys.setswitchinterval(1e-6)
counts = []

def work(offset):
    start.wait()
    tried = wrong = 0
    for a in range(511 - offset, -1, -3):
        for b in range(offset, 512, 37):
            tried += 1
            wrong += BinRel(3, a).compose(BinRel(3, b)).bits != _compose(3, a, b)
    counts.append((tried, wrong))

for _ in range(20):
    assert not _PRODUCTS
    start = threading.Barrier(2)
    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    _PRODUCTS.clear()
print(len(counts), sorted(set(counts)))
"""


def test_two_threads_making_the_first_products_read_whole_tables():
    src = str(Path(dqra.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, "-c", FIRST_PRODUCTS],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "40 [(2394, 0)]\n"
