"""Constraint reconstruction of the catalogue entries."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dqra
from dqra import algebras_isomorphic, contract, load_algebra, validate_dqra
from dqra.reconstruct import (
    DIAGRAMS,
    DIAGRAMS_BY_NAME,
    Diagram,
    reconstruct,
    reconstruct_catalogue,
)


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


# --- the verdict gate against the ungated search -----------------------------


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


def test_verdict_gate_matches_the_ungated_search(monkeypatch, outcomes):
    """Rejecting candidates on the exact verdicts before the full validator
    changes no status, solution, solution order or note.  The reference
    lets every candidate through to `validate_dqra`."""
    gated = [summary(reconstruct(d, outcomes)) for d in variants()]
    monkeypatch.setattr("dqra.reconstruct._law_verdicts",
                        lambda A: (True, True, True, True))
    reference = reconstruct_catalogue()
    assert {name: summary(oc) for name, oc in reference.items()} == {
        name: summary(oc) for name, oc in outcomes.items()}
    assert [summary(reconstruct(d, outcomes)) for d in variants()] == gated
