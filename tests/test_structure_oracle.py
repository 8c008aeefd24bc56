"""Structure laws, the order test and Hasse covers on relation bits against
the matrix code they replaced, kept below as the reference.

The reference validator reads `BinRel.mat` and decides the laws with
`algebra._order_bad`, `algebra._first_bad` and numpy indexing; the
reference order test walks the rows of `leq.bits`; the reference covers come
from a boolean matrix product.  Reports (name, verdict, witness, detail and
printed text), `_leq_is_order`, `structure_dot` and `algebra_dot` must agree
on every structure with at most two points (in-range maps, which include
repeated values, and short, long and out-of-range ones), on every labelled
structure with one to four points, on 2,000 seeded random structures with
three to five points (valid or not), on a few with 17 to 33 points, on the
catalogue, on the full algebras of the acceptance 8a pool and on a
258-element chain.
"""

import random
from itertools import product

import numpy as np

from dqra import (BinRel, FiniteDqRA, RelStructure, catalogue_names,
                  enumerate_structures, full_dq_family, load_algebra,
                  load_representation, sample_structures, validate_structure)
from dqra.algebra import LawCheck, ValidationReport, _first_bad, _order_bad
from dqra.catalogue import antichain_example_structure
from dqra.dot import algebra_dot, structure_dot
from dqra.relations import _bit_indices, _perm_witness

SEED = 20250809    # acceptance criterion 8a


# --- the replaced code -------------------------------------------------------


def ref_validate_structure(S: RelStructure) -> ValidationReport:
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

    a = np.array(S.alpha, dtype=np.intp)
    b = np.array(S.beta, dtype=np.intp)
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


def ref_leq_is_order(S: RelStructure) -> bool:
    n, bits = S.n, S.leq.bits
    row = [bits >> n * (n - 1 - x) & ((1 << n) - 1) for x in range(n)]
    for x in range(n):
        own = 1 << (n - 1 - x)
        if not row[x] & own:
            return False
        for b in _bit_indices(row[x] ^ own):     # each y != x, x <= y
            y = n - 1 - b
            if row[y] & own or row[y] & ~row[x]:
                return False
    return True


def ref_covers(leq: np.ndarray) -> list[tuple[int, int]]:
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    via = strict @ strict       # a boolean product: path counts cannot wrap
    return [(int(i), int(j)) for i, j in np.argwhere(strict & ~via)]


def ref_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ref_algebra_dot(name: str, A: FiniteDqRA) -> str:
    out = [f"digraph {ref_quote(name)} {{", "  rankdir=BT;",
           "  node [shape=circle, fontsize=11];"]
    for i in range(A.size):
        out.append(f"  n{i} [label={ref_quote(A.labels[i])}];")
    for i, j in ref_covers(A.leq):
        out.append(f"  n{i} -> n{j} [arrowhead=none];")
    out.append("}")
    return "\n".join(out) + "\n"


def ref_structure_dot(name: str, S: RelStructure) -> str:
    out = [f"digraph {ref_quote(name)} {{", "  rankdir=BT;",
           "  node [shape=circle, fontsize=11];"]
    seen: set[int] = set()
    blocks = []
    for x in range(S.n):
        if x in seen:
            continue
        block = [y for y in range(S.n) if (x, y) in S.E]
        seen.update(block)
        blocks.append(block)
    for k, block in enumerate(blocks):
        out.append(f"  subgraph cluster_{k} {{")
        out.append("    style=rounded;")
        for x in block:
            out.append(f"    n{x} [label={ref_quote(S.labels[x])}];")
        out.append("  }")
    for i, j in ref_covers(S.leq.mat):
        out.append(f"  n{i} -> n{j} [arrowhead=none];")
    for x in range(S.n):
        out.append(f"  n{x} -> n{S.alpha[x]} [style=dashed];")
    for x in range(S.n):
        out.append(f"  n{x} -> n{S.beta[x]} [style=dotted];")
    out.append("}")
    return "\n".join(out) + "\n"


# --- the comparison ----------------------------------------------------------


def outcome(f, *args):
    """f's value, or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:    # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def rows(report: ValidationReport) -> list:
    return [(c.name, c.ok, c.witness, c.detail, str(c)) for c in report.checks]


def compare(S: RelStructure, dot: bool = True) -> bool:
    """Whether the bit code and the reference agree on S (on its picture
    too, if `dot`); returns the reference verdict."""
    want = ref_validate_structure(S)
    got = validate_structure(S)
    assert rows(got) == rows(want), S
    assert all(type(v) is int for c in got.checks for v in c.witness or ())
    assert S._leq_is_order == ref_leq_is_order(S), S
    if dot:
        assert (outcome(structure_dot, "s", S)
                == outcome(ref_structure_dot, "s", S)), S
    return want.ok


def odd_maps(n: int) -> list[tuple[int, ...]]:
    """Maps that are not maps of {0..n-1} into itself: one point short, one
    point long, and one value out of range at either end."""
    odd = [tuple(range(n)) + (0,)]
    if n:
        odd += [tuple(range(n - 1)), (-1,) + tuple(range(1, n)),
                tuple(range(n - 1)) + (n,)]
    return odd


def test_every_structure_on_at_most_two_points():
    """Every order and equivalence with every pair of maps of the points
    into themselves (repeated values included), pictured with the first
    pair only (the covers read only the order); the odd maps, which stop
    the report after the permutation checks, with every map, over the
    identity order and equivalence."""
    seen = set()
    for n in (0, 1, 2):
        fs = list(product(range(n), repeat=n))
        for leq, E in product(range(1 << n * n), repeat=2):
            for k, (alpha, beta) in enumerate(product(fs, fs)):
                S = RelStructure(n, BinRel(n, leq), BinRel(n, E), alpha, beta)
                seen.add(compare(S, dot=k == 0))
        eq = BinRel.identity(n)
        for alpha, beta in product(fs + odd_maps(n), repeat=2):
            seen.add(compare(RelStructure(n, eq, eq, alpha, beta)))
    assert seen == {True, False}


def test_every_labelled_structure_up_to_four_points():
    structures = [S for n in (1, 2, 3, 4) for S in enumerate_structures(n)]
    assert len(structures) == 652
    assert all(compare(S) for S in structures)


def random_order(rng: random.Random, n: int) -> int:
    """The bits of a random partial order: the reflexive transitive closure
    of random pairs that follow a random linear order."""
    rank = rng.sample(range(n), n)
    reach = [{x} for x in range(n)]
    for x, y in product(range(n), repeat=2):
        if rank[x] < rank[y] and rng.random() < 0.3:
            reach[x].add(y)
    for k, x, y in product(range(n), repeat=3):    # Warshall
        if k in reach[x] and y in reach[k]:
            reach[x].add(y)
    return BinRel.from_pairs(n, ((x, y) for x in range(n)
                                 for y in reach[x])).bits


def random_map(rng: random.Random, n: int) -> tuple[int, ...]:
    """Mostly a permutation (an involution half of the time), else any
    map, possibly short, long or out of range."""
    kind = rng.random()
    if kind < 0.4:
        return tuple(rng.sample(range(n), n))
    if kind < 0.8:
        p = list(range(n))
        rest = rng.sample(range(n), n)
        while len(rest) > 1:
            x, y = rest.pop(), rest.pop()
            p[x], p[y] = y, x
        return tuple(p)
    size = n + rng.choice((-1, 0, 0, 1))
    return tuple(rng.randint(-1, n) for _ in range(size))


def test_random_structures_on_three_to_five_points():
    rng = random.Random(SEED)
    seen = set()
    for _ in range(2000):
        n = rng.randint(3, 5)
        full = (1 << n * n) - 1
        leq = (random_order(rng, n) if rng.random() < 0.7
               else rng.getrandbits(n * n))
        E = full if rng.random() < 0.5 else rng.getrandbits(n * n) | leq
        S = RelStructure(n, BinRel(n, leq), BinRel(n, E),
                         random_map(rng, n), random_map(rng, n))
        seen.add(compare(S))
    assert seen == {True, False}


def test_structures_past_sixteen_points():
    """Carriers past the exhaustive and random sets: a reversed chain and
    random near-orders on 17, 20 and 33 points."""
    rng = random.Random(SEED + 1)
    seen = set()
    for n in (17, 20, 33):
        chain = BinRel.from_pairs(n, ((x, y) for x in range(n)
                                      for y in range(x, n)))
        reversal = tuple(range(n))[::-1]
        seen.add(compare(RelStructure(n, chain, BinRel.full(n),
                                      tuple(range(n)), reversal)))
        for _ in range(8):
            leq = random_order(rng, n) ^ (1 << rng.randrange(n * n))
            S = RelStructure(n, BinRel(n, leq), BinRel.full(n),
                             random_map(rng, n), random_map(rng, n))
            seen.add(compare(S))
    assert seen == {True, False}


def test_catalogue_pool_and_chain():
    structures = [antichain_example_structure()]
    algebras = []
    for name in catalogue_names():
        algebras.append(load_algebra(name))
        try:
            structures.append(load_representation(name).structure)
        except KeyError:    # shipped without a representation
            pass
    pool = sample_structures(4, 200, seed=SEED, upset_cap=256)
    structures += pool
    orders = {}    # a Hasse diagram reads only the order and the labels
    for S in pool:
        A = full_dq_family(S, cap=256).algebra
        orders.setdefault(A.leq.tobytes(), A)
    algebras += orders.values()
    n = 258
    idx = np.arange(n)
    algebras.append(FiniteDqRA(
        n, idx[:, None] <= idx[None, :], np.minimum.outer(idx, idx),
        idx[::-1], idx[::-1], idx[::-1], n - 1))
    assert all(compare(S) for S in structures)
    for A in algebras:
        assert algebra_dot("a", A) == ref_algebra_dot("a", A)
