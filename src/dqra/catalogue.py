"""The shipped catalogue of small named algebras and the one shipped
representation.

Ten entries are reconstructed by constraint search from their annotated
lattice diagrams (see `reconstruct`); the six-element algebra with two
non-trivial positive symmetric idempotents is instead rebuilt from its
four-point relational model, which makes its tables ground truth by
computation.  Every file embeds its provenance note as comments.

Run ``python -m dqra.catalogue`` to regenerate the data files in place.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .algebra import FiniteDqRA
from .relations import BinRel, RelStructure, dq_closure
from .representation import Embedding
from .reconstruct import DIAGRAMS, reconstruct_catalogue
from .textio import (
    emit_algebra,
    emit_assignment,
    emit_structure,
    parse_algebra,
    parse_assignment,
    parse_structure,
)

RELATIONAL_ENTRY = "D^6_{3,5,2}"

_RELATIONAL_PROVENANCE = (
    "relational reconstruction: closure of two symmetric reflexive relations "
    "over the four-point antichain model; tables are ground truth by "
    "computation"
)
_CONSTRAINT_PROVENANCE = (
    "constraint reconstruction: unique operation tables satisfying the "
    "algebra laws, the annotated products and the labelled lattice"
)


@dataclass(frozen=True)
class CatalogueEntry:
    """A named algebra file plus, when available, its representation."""

    name: str
    algebra_file: str
    structure_file: Optional[str] = None
    assignment_file: Optional[str] = None


def _slug(name: str) -> str:
    return (name.replace("^", "").replace("{", "_").replace("}", "")
            .replace(",", "_").replace("__", "_").lower())


def _entries() -> dict[str, CatalogueEntry]:
    out = {}
    for d in DIAGRAMS:
        out[d.name] = CatalogueEntry(d.name, _slug(d.name) + ".dqra")
    slug = _slug(RELATIONAL_ENTRY)
    out[RELATIONAL_ENTRY] = CatalogueEntry(
        RELATIONAL_ENTRY, slug + ".dqra", slug + ".struct", slug + ".assign")
    return out


CATALOGUE: dict[str, CatalogueEntry] = _entries()


def catalogue_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOGUE, key=lambda n: (len(n), n)))


_DATA = resources.files("dqra") / "data"    # resolved once


def _read(filename: str) -> str:
    return (_DATA / filename).read_text(encoding="utf-8")


def load_algebra(name: str) -> FiniteDqRA:
    entry = CATALOGUE[name]
    parsed_name, algebra = parse_algebra(_read(entry.algebra_file))
    if parsed_name != name:
        raise ValueError(f"file {entry.algebra_file} carries name {parsed_name}")
    return algebra


def load_structure(name: str) -> RelStructure:
    entry = CATALOGUE[name]
    if entry.structure_file is None:
        raise KeyError(f"{name} ships without a representation")
    return parse_structure(_read(entry.structure_file))[1]


def load_representation(name: str) -> Embedding:
    """The shipped embedding of a catalogue algebra into the upset algebra
    of its shipped structure."""
    entry = CATALOGUE[name]
    if entry.assignment_file is None:
        raise KeyError(f"{name} ships without a representation")
    algebra = load_algebra(name)
    structure = load_structure(name)
    return parse_assignment(_read(entry.assignment_file), algebra, structure)[1]


# --- construction of the relational entry -------------------------------------


def antichain_example_structure() -> RelStructure:
    """Four-point antichain with total equivalence, the double-transposition
    order automorphism and the complementary dual automorphism."""
    n = 4
    return RelStructure(
        n, BinRel.identity(n), BinRel.full(n),
        (1, 0, 3, 2), (2, 3, 0, 1), ("w", "x", "y", "z"))


def antichain_example_generators(S: RelStructure) -> tuple[BinRel, BinRel]:
    """The two reflexive symmetric generators of the six-element closure."""
    w, x, y, z = range(4)
    ra = BinRel.from_pairs(4, [(w, w), (x, x), (y, y), (z, z),
                               (w, y), (y, w), (x, z), (z, x)])
    rb = BinRel.from_pairs(4, [(w, w), (x, x), (y, y), (z, z),
                               (w, z), (z, w), (x, y), (y, x)])
    return ra, rb


def build_relational_entry() -> tuple[FiniteDqRA, RelStructure, Embedding]:
    """Rebuild the six-element algebra from its relational model, together
    with the witnessing embedding."""
    S = antichain_example_structure()
    ra, rb = antichain_example_generators(S)
    result = dq_closure(S, [ra, rb])
    if len(result.relations) != 6:
        raise RuntimeError("closure of the antichain model must have size 6")
    algebra = result.algebra.relabel(("bot", "1", "a", "b", "0", "top"))
    embedding = Embedding(algebra, S, result.relations)
    return algebra, S, embedding


# --- regeneration --------------------------------------------------------------


def data_dir() -> Path:
    return Path(str(_DATA))


def regenerate(directory: Optional[Path] = None) -> list[str]:
    """Reconstruct every entry and (re)write the data files.  Entries whose
    reconstruction is not unique are skipped with a flag in the return log
    instead of being written."""
    directory = Path(directory) if directory is not None else data_dir()
    directory.mkdir(parents=True, exist_ok=True)
    log: list[str] = []

    outcomes = reconstruct_catalogue()
    for d in DIAGRAMS:
        oc = outcomes[d.name]
        if oc.status != "unique":
            log.append(f"FLAGGED {d.name}: reconstruction {oc.status}; "
                       f"{len(oc.solutions)} solution(s); file not written")
            continue
        comments = [f"{d.name}: {_CONSTRAINT_PROVENANCE}"]
        if d.dropped_products:
            drops = ", ".join(f"{x}.{y}={v}" for x, y, v in d.dropped_products)
            comments.append(
                f"dropped diagram annotation(s) inconsistent with "
                f"residuation: {drops}")
        if oc.note:
            comments.append(oc.note)
        text = emit_algebra(d.name, oc.algebra, comments)
        (directory / (_slug(d.name) + ".dqra")).write_text(
            text, encoding="utf-8")
        log.append(f"wrote {_slug(d.name)}.dqra")

    algebra, S, embedding = build_relational_entry()
    slug = _slug(RELATIONAL_ENTRY)
    comments = [f"{RELATIONAL_ENTRY}: {_RELATIONAL_PROVENANCE}"]
    (directory / (slug + ".dqra")).write_text(
        emit_algebra(RELATIONAL_ENTRY, algebra, comments), encoding="utf-8")
    (directory / (slug + ".struct")).write_text(
        emit_structure(RELATIONAL_ENTRY, S,
                       ["four-point antichain model used to represent "
                        + RELATIONAL_ENTRY]), encoding="utf-8")
    (directory / (slug + ".assign")).write_text(
        emit_assignment(RELATIONAL_ENTRY, embedding,
                        ["embedding witnessing representability of "
                         + RELATIONAL_ENTRY]), encoding="utf-8")
    log.append(f"wrote {slug}.dqra, {slug}.struct, {slug}.assign")
    return log


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the shipped catalogue data files")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="target directory (default: package data dir)")
    args = parser.parse_args(argv)
    for line in regenerate(args.output_dir):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
