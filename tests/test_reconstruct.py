"""Constraint reconstruction of the catalogue entries."""

import functools
import hashlib
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dqra
from dqra import (FiniteDqRA, algebras_isomorphic, contract, load_algebra,
                  validate_dqra)
from dqra.reconstruct import (
    DIAGRAMS,
    DIAGRAMS_BY_NAME,
    Diagram,
    _rotation_fails,
    reconstruct,
    reconstruct_catalogue,
)
from dqra.relations import BinRel, RelStructure, full_dq


@pytest.fixture(scope="module")
def outcomes():
    return reconstruct_catalogue()


def test_every_entry_reconstructs_uniquely(outcomes):
    for name, oc in outcomes.items():
        assert oc.status == "unique", f"{name}: {oc.status}"


def test_reconstructions_match_shipped_files(outcomes):
    for name, oc in outcomes.items():
        shipped = load_algebra(name)
        assert oc.algebra.table_key() == shipped.table_key(), name


def test_reconstructions_validate(outcomes):
    for oc in outcomes.values():
        assert validate_dqra(oc.algebra).ok


def test_annotated_products_hold(outcomes):
    for d in DIAGRAMS:
        A = outcomes[d.name].algebra
        for x, y, v in d.products:
            assert int(A.mult[A.index_of(x), A.index_of(y)]) == A.index_of(v)


def test_contraction_cross_checks(outcomes):
    for d in DIAGRAMS:
        if d.cross_check is None:
            continue
        p_label, target = d.cross_check
        A = outcomes[d.name].algebra
        c = contract(A, A.index_of(p_label))
        assert algebras_isomorphic(c.algebra, outcomes[target].algebra), d.name


def test_four_chain_needs_the_distinctness_resolution():
    d = DIAGRAMS_BY_NAME["D^4_{1,1}"]
    unresolved = reconstruct(Diagram(
        d.name, d.labels, d.covers, d.unit, d.zero, d.products))
    assert unresolved.status == "ambiguous"
    assert len(unresolved.solutions) == 2
    resolved = reconstruct_catalogue()[d.name]
    assert resolved.status == "unique"
    assert "excluded" in resolved.note
    # the excluded table is the proper-power one; the survivor is idempotent
    A = resolved.algebra
    b = A.index_of("b")
    assert int(A.mult[b, b]) == b


def test_dropped_annotation_is_genuinely_unsatisfiable():
    d = DIAGRAMS_BY_NAME["D^6_{3,4}"]
    assert d.dropped_products
    with_bad = reconstruct(Diagram(
        d.name, d.labels, d.covers, d.unit, d.zero,
        d.products + d.dropped_products))
    assert with_bad.status == "unsatisfiable"


def test_underconstrained_diagram_is_flagged_not_guessed():
    chain = Diagram("probe", ("bot", "a", "b", "1"),
                    (("bot", "a"), ("a", "b"), ("b", "1")), "1")
    outcome = reconstruct(chain)
    assert outcome.status == "ambiguous"
    assert len(outcome.solutions) > 1
    with pytest.raises(ValueError):
        _ = outcome.algebra


def test_relational_entry_matches_its_model(six):
    from dqra.catalogue import build_relational_entry
    algebra, _, _ = build_relational_entry()
    assert algebra.table_key() == six.table_key()


def test_regeneration_is_stable(tmp_path):
    from dqra.catalogue import CATALOGUE, regenerate, _read
    log = regenerate(tmp_path)
    assert not any(line.startswith("FLAGGED") for line in log)
    # every file of every entry: the relational entry's .struct and .assign
    # are written unverified, so they must match the shipped (and verified)
    # representation byte for byte
    files = [f for entry in CATALOGUE.values()
             for f in (entry.algebra_file, entry.structure_file,
                       entry.assignment_file) if f is not None]
    assert len(files) == 13
    for f in files:
        assert (tmp_path / f).read_text() == _read(f), f


def test_catalogue_module_writes_every_data_file(tmp_path):
    """`python -m dqra.catalogue --output-dir DIR` in a fresh interpreter
    runs once, with nothing on stderr, logs each file it writes, and writes
    the shipped data byte for byte."""
    from dqra.catalogue import data_dir
    src = str(Path(dqra.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = tmp_path / "data"
    run = subprocess.run(
        [sys.executable, "-m", "dqra.catalogue", "--output-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0 and run.stderr == ""
    logged = {name for line in run.stdout.splitlines()
              for name in line.removeprefix("wrote ").split(", ")}
    assert all(line.startswith("wrote ")
               for line in run.stdout.splitlines())
    written = {f.name for f in out.iterdir()}
    shipped = {f.name for f in data_dir().iterdir() if f.is_file()}
    assert logged == written == shipped and len(written) == 13
    for name in written:
        assert (out / name).read_bytes() == (data_dir() / name).read_bytes()


# --- the rotation-law pruning against the unpruned search --------------------


def summary(outcome):
    return (outcome.status, [A.table_key() for A in outcome.solutions],
            outcome.note)


def variants():
    """The unresolved four-chain, D^6_{3,4} with its dropped product
    restored, and every diagram with one product annotation dropped."""
    chain = DIAGRAMS_BY_NAME["D^4_{1,1}"]
    six = DIAGRAMS_BY_NAME["D^6_{3,4}"]
    out = [replace(chain, distinct_from=()),
           replace(six, products=six.products + six.dropped_products)]
    for d in DIAGRAMS:
        out += [replace(d, products=d.products[:k] + d.products[k + 1:])
                for k in range(len(d.products))]
    return out


def test_rotation_pruning_matches_the_unpruned_search(monkeypatch, outcomes):
    """Cutting prefixes on the rotation law changes no status, solution,
    solution order or note.  The reference lets every prefix through to
    the leaf and `validate_dqra`."""
    pruned = [summary(reconstruct(d, outcomes)) for d in variants()]
    monkeypatch.setattr("dqra.reconstruct._rotation_fails",
                        lambda *args: False)
    reference = reconstruct_catalogue()
    assert {name: summary(oc) for name, oc in reference.items()} == {
        name: summary(oc) for name, oc in outcomes.items()}
    assert [summary(reconstruct(d, outcomes)) for d in variants()] == pruned


def _residuation_holds(le, mult, til, mns) -> bool:
    """Both residuation laws on every triple, as the validator states them:
    a.b <= c iff a <= -(b.~c) iff b <= ~(-c.a)."""
    n = len(le)
    return all(le[mult[a][b]][c] == le[a][mns[mult[b][til[c]]]]
               == le[b][til[mult[mns[c]][a]]]
               for a in range(n) for b in range(n) for c in range(n))


def test_rotation_law_is_both_residuation_laws_when_tilde_is_not_minus():
    """On the full upset algebra of the two-point antichain whose alpha
    swaps the points, ~ is a dual automorphism of order 4, so - (its
    inverse) differs from it.  `_rotation_fails` over all m^3 cells fails
    exactly when a residuation law does: on the algebra's own product
    table, where both hold, and on tables with one cell changed."""
    S = RelStructure(2, BinRel.from_pairs(2, [(0, 0), (1, 1)]),
                     BinRel.full(2), (1, 0), (0, 1))
    A = full_dq(S)
    n, le = A.size, A.leq.tolist()
    til, mns, mult = A.tilde.tolist(), A.minus.tolist(), A.mult.tolist()
    assert [til[til[a]] for a in range(n)] != list(range(n))

    def fails(mult):
        return _rotation_fails(le, til, mns, (
            (a, ab, bc, c) for a in range(n)
            for b, ab in enumerate(mult[a]) for c, bc in enumerate(mult[b])))

    assert validate_dqra(A).ok and not fails(mult)
    assert _residuation_holds(le, mult, til, mns)
    rng = np.random.default_rng(38)
    for _ in range(30):
        changed = [row[:] for row in mult]
        a, b = rng.integers(0, n, size=2)
        changed[a][b] = (changed[a][b] + int(rng.integers(1, n))) % n
        assert fails(changed) is not _residuation_holds(le, changed, til, mns)


# --- a naive oracle over every generator-product table -----------------------


def _order(d):
    """The diagram's order as nested lists: the reflexive-transitive
    closure of its covers."""
    n, ix = len(d.labels), {l: i for i, l in enumerate(d.labels)}
    le = [[a == b for b in range(n)] for a in range(n)]
    for lo, hi in d.covers:
        le[ix[lo]][ix[hi]] = True
    for k in range(n):
        for a in range(n):
            for b in range(n):
                le[a][b] = le[a][b] or le[a][k] and le[k][b]
    return le


def _naive_solutions(d):
    """The table keys of every algebra on the diagram: the negations range
    over the lattice's dual automorphisms as in `reconstruct` (- the inverse
    of ~; neg an involution with neg(1) = ~1 = -1, the zero); each
    join-irreducible product other than the unit's takes every value with
    no filter; the table follows by joins and is validated in full."""
    n, ix = len(d.labels), {l: i for i, l in enumerate(d.labels)}
    le, unit = _order(d), ix[d.unit]
    join = [[next(u for u in range(n) if le[a][u] and le[b][u] and all(
        le[u][w] for w in range(n) if le[a][w] and le[b][w]))
        for b in range(n)] for a in range(n)]
    bot = next(a for a in range(n) if all(le[a]))

    def lower_covers(j):
        below = [x for x in range(n) if le[x][j] and x != j]
        return [x for x in below
                if not any(le[x][y] and x != y for y in below)]

    J = [j for j in range(n) if len(lower_covers(j)) == 1]
    duals = [p for p in itertools.permutations(range(n))
             if all(le[a][b] == le[p[b]][p[a]]
                    for a in range(n) for b in range(n))]
    free = [(g, h) for g in J for h in J if unit not in (g, h)]
    keys = set()
    for til in duals:
        mns = [til.index(a) for a in range(n)]
        zero = til[unit]
        if mns[unit] != zero or d.zero is not None and zero != ix[d.zero]:
            continue
        for ngn in duals:
            if ngn[unit] != zero or any(ngn[ngn[a]] != a for a in range(n)):
                continue
            for values in itertools.product(range(n), repeat=len(free)):
                gp = dict(zip(free, values))
                gp.update({(unit, j): j for j in J})
                gp.update({(j, unit): j for j in J})
                mult = [[functools.reduce(
                    lambda v, gh: join[v][gp[gh]],
                    [(g, h) for g in J if le[g][a] for h in J if le[h][b]],
                    bot) for b in range(n)] for a in range(n)]
                if any(mult[ix[x]][ix[y]] != ix[v] for x, y, v in d.products):
                    continue
                A = FiniteDqRA(n, np.array(le), mult, til, mns, ngn, unit,
                               d.labels)
                if validate_dqra(A).ok:
                    keys.add(A.table_key())
    return keys


@pytest.mark.parametrize("name", ["D^3_{1,1}", "D^4_{1,1}", "D^4_{1,2}",
                                  "D^4_{3,1}"])
def test_reconstruct_finds_what_the_naive_oracle_finds(name):
    d = DIAGRAMS_BY_NAME[name]
    found = reconstruct(d)      # unresolved: no entry is excluded
    assert found.solutions
    assert {A.table_key() for A in found.solutions} == _naive_solutions(d)


# --- the unannotated census diagrams ------------------------------------------

_SIX = ("bot", "a", "b", "c", "d", "top")

# (covers, solutions per unit position in label order, sha256 of the table
# keys of every solution in the order found), recorded from the search that
# checked only completed tables, before the rotation-law cut; with the cut,
# each lattice takes well under a second over all six unit positions
_CENSUS = {
    "the 6-chain": (
        tuple(zip(_SIX, _SIX[1:])), [0, 3, 2, 1, 4, 7],
        "35807339e6b676eb599d2b6ae96410feed583deb74669b7aea52833519d901f3"),
    "down-set sizes 1,2,3,3,5,6": (
        (("bot", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
         ("d", "top")), [0, 8, 6, 6, 4, 8],
        "aa40c86e015dfe95b41ca1941975c4d889c2db0086bcdd962b26fba27c9d5286"),
}


@pytest.mark.parametrize("lattice", sorted(_CENSUS))
def test_unannotated_six_element_lattices(lattice):
    covers, counts, digest = _CENSUS[lattice]
    found, keys = [], hashlib.sha256()
    for unit in _SIX:
        outcome = reconstruct(Diagram(lattice, _SIX, covers, unit))
        found.append(len(outcome.solutions))
        for A in outcome.solutions:
            assert validate_dqra(A).ok
            keys.update(A.table_key())
    assert found == counts
    assert keys.hexdigest() == digest
