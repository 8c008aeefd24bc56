"""The lookup tables of relations on at most three points against the
formulas they are read from.

On n <= 3 points `BinRel.compose` and `rel_residuals` read each product
from one table per carrier, `relations._PRODUCTS[n]` (entry a << n*n | b,
filled on the first product on n points), and every union-preserving bit
map (`_or_tables`: the converse, the three negations and the upward
closure `RelStructure._up_map`) is one table over every relation, so
applying it is one index; beyond three points a map is 16-entry tables,
one per four bits.  The product table must equal `_compose` on every pair,
and the one-table closure its definition (leq ; R ; leq) within E on every
relation; neither table may be built by importing the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dqra
from dqra import BinRel, RelStructure, enumerate_structures
from dqra.relations import (_CONVERSE, _PRODUCTS, _SHARED, _compose,
                            _converse, _products)


@pytest.mark.parametrize("n", range(4))
def test_product_table_is_compose_on_every_pair(n):
    # at n = 3 all 262,144 pairs, as one comparison
    _products(n)
    col = np.arange(1 << n * n, dtype=np.int64)
    want = _compose(n, col[:, None], col[None, :])
    assert _PRODUCTS[n].tolist() == want.ravel().tolist()


@pytest.mark.parametrize("n", range(4))
def test_compose_returns_the_shared_object_of_the_product(n):
    m = 1 << n * n
    col = np.arange(m, dtype=np.int64)
    want = _compose(n, col[:, None], col[None, :]).tolist()
    rels = _SHARED[n]
    assert all(rels[a].compose(rels[b]) is rels[want[a][b]]
               for a in range(m) for b in range(m))


def test_one_table_upward_closure_is_the_closure_formula():
    for n in range(4):
        for S in enumerate_structures(n):
            leq, e = S.leq.bits, S.E.bits
            up, = S._up_map
            assert up == [_compose(n, _compose(n, leq, r), leq) & e
                          for r in range(1 << n * n)]
            assert all(S.is_upset(R) == (up[R.bits] == R.bits)
                       for R in _SHARED[n])


@pytest.mark.parametrize("n", range(6))
def test_bit_maps_are_one_table_on_at_most_three_points(n):
    # the converse, the three negations and the upward closure: one table
    # of 2^(n*n) entries on at most three points, ceil(n*n/4) 16-entry
    # tables beyond
    leq = BinRel.from_pairs(n, [(i, j) for i in range(n) for j in range(i, n)])
    S = RelStructure(n, leq, BinRel.full(n), tuple(range(n)),
                     tuple(range(n))[::-1])
    _converse(n, 0)
    maps = [_CONVERSE[n], *S._negations[0], S._up_map]
    shape = [1 << n * n] if n <= 3 else [16] * -(-n * n // 4)
    for f in maps:
        assert [len(t) for t in f] == shape


def test_structures_with_one_order_and_E_share_the_one_table_closure():
    # the one-table closure is built once for each order and E, not for
    # each structure: alpha and beta do not enter it
    for n in range(4):
        for S in enumerate_structures(n):
            twin = RelStructure(n, S.leq, S.E, S.beta, S.alpha)
            assert twin._up_map is S._up_map


def test_importing_the_cli_builds_no_product_table():
    src = str(Path(dqra.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run(
        [sys.executable, "-c",
         "import dqra.cli, dqra.relations; print(dqra.relations._PRODUCTS)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "{}\n", "")
