"""Plain-text formats for algebras, structures and embedding assignments.

One format family, versioned by its header token (`dqra`, `struct`,
`assign` are the version-1 tokens; an incompatible revision would introduce
a new token).  Lines starting with `#` are comments; blank lines are
ignored.

Algebra files::

    dqra <name> <size>
    order
    <size rows of 0/1, spaces optional>
    mult
    <size rows of <size> element refs>
    tilde <size refs>
    minus <size refs>
    neg <size refs>
    unit <ref>
    labels <size names>          # optional

Structure files::

    struct <name> <n>
    leq
    <n rows of 0/1>
    E
    <n rows of 0/1>
    alpha <n point refs>
    beta <n point refs>
    labels <n names>             # optional

Assignment files list one relation per algebra element::

    assign <name>
    <element ref>: {(x,y), (x,y), ...}

An element or point ref is a label when it matches one, otherwise a decimal
index (labels win over digits).  Emission is canonical: labels everywhere,
0/1 rows without spaces, single spaces between tokens.  Parsing rejects
partial tables and reports positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import FiniteDqRA, _freeze
from .relations import BinRel, RelStructure
from .representation import Embedding


class ParseError(ValueError):
    """Malformed input text, with 1-based line (and column) position."""

    def __init__(self, message: str, line: int, col: Optional[int] = None):
        pos = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{pos}: {message}")
        self.line = line
        self.col = col


@dataclass
class _Lines:
    """Comment-stripped logical lines with their original line numbers."""

    items: list[tuple[int, str]]
    pos: int = 0

    @classmethod
    def from_text(cls, text: str) -> "_Lines":
        items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                items.append((no, body))
        return cls(items)

    def peek(self) -> Optional[tuple[int, str]]:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self, what: str) -> tuple[int, str]:
        got = self.peek()
        if got is None:
            last = self.items[-1][0] if self.items else 1
            raise ParseError(f"unexpected end of file, expected {what}", last)
        self.pos += 1
        return got

    def done(self) -> None:
        got = self.peek()
        if got is not None:
            raise ParseError(f"unexpected trailing content {got[1]!r}", got[0])


def _index(token: str) -> Optional[int]:
    """The decimal index a token spells, or None.  ASCII digits only, since
    `str.isdigit` also accepts digits such as '³' that `int` rejects, and
    no longer than `int` converts (4300 digits by default)."""
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:
        return None


def _label_index(labels: Sequence[str]) -> dict[str, int]:
    """Each label's index, the first one where a label repeats."""
    return dict(zip(labels[::-1], range(len(labels) - 1, -1, -1)))


def _resolve(token: str, index: dict[str, int], size: int, line: int,
             what: str) -> int:
    if token in index:
        return index[token]
    v = _index(token)
    if v is not None:
        if v < size:
            return v
        raise ParseError(f"{what} index {v} out of range 0..{size - 1}", line)
    raise ParseError(f"unknown {what} reference {token!r}", line)


def _parse_bit_rows(lines: _Lines, n: int, block: str) -> np.ndarray:
    """n rows of n 0/1 characters; the matrix is built only once every row
    has been read, so a huge declared size fails on the missing rows."""
    out = []
    for i in range(n):
        no, body = lines.take(f"row {i + 1} of {n} in the {block} block")
        bits = body.replace(" ", "")
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ParseError(
                f"{block} row {i + 1} must have exactly {n} characters 0/1",
                no)
        out.append([c == "1" for c in bits])
    return np.array(out, dtype=bool).reshape(n, n)


def _split_header(lines: _Lines, token: str) -> tuple[str, int]:
    no, body = lines.take(f"'{token}' header")
    parts = body.split()
    if len(parts) != 3 or parts[0] != token:
        raise ParseError(f"expected header '{token} <name> <size>'", no)
    size = _index(parts[2])
    if not size:
        raise ParseError("size must be a positive integer", no)
    return parts[1], size


def _keyword_row(lines: _Lines, keyword: str, n: int) -> tuple[int, list[str]]:
    no, body = lines.take(f"'{keyword}' line")
    parts = body.split()
    if not parts or parts[0] != keyword:
        raise ParseError(f"expected '{keyword}' line, found {body!r}", no)
    if len(parts) != n + 1:
        raise ParseError(
            f"'{keyword}' line needs {n} entries, found {len(parts) - 1}", no)
    return no, parts[1:]


def _maybe_labels(lines: _Lines, n: int, banned: str) -> Optional[list[str]]:
    got = lines.peek()
    if got is None or got[1].split()[0] != "labels":
        return None
    no, toks = _keyword_row(lines, "labels", n)
    if len(set(toks)) != n:
        raise ParseError("labels must be distinct", no)
    if any(c in t for t in toks for c in banned):  # assignment delimiters
        raise ParseError(f"labels may not use the characters {banned!r}", no)
    return toks


def _check_tokens(what: str, tokens: Sequence, banned: str = "") -> None:
    """Raise ValueError naming each of `tokens` that the matching parser
    cannot read back: a token is a str with `s.split() == [s]`, without
    '#' (which starts a comment) or any character of `banned`."""
    bad = [t for t in tokens if not isinstance(t, str) or t.split() != [t]
           or any(c in t for c in "#" + banned)]
    if bad:
        raise ValueError(f"cannot write {what} " + ", ".join(map(repr, bad))
                         + ": a token is a nonempty str without whitespace, "
                         + ", ".join(map(repr, "#" + banned)))


# --- algebra files -----------------------------------------------------------


def parse_algebra(text: str) -> tuple[str, FiniteDqRA]:
    """Parse an algebra file; returns (name, algebra)."""
    lines = _Lines.from_text(text)
    name, n = _split_header(lines, "dqra")

    no, body = lines.take("'order' block")
    if body != "order":
        raise ParseError(f"expected 'order', found {body!r}", no)
    leq = _parse_bit_rows(lines, n, "order")

    no, body = lines.take("'mult' block")
    if body != "mult":
        raise ParseError(f"expected 'mult', found {body!r}", no)
    mult_rows: list[tuple[int, list[str]]] = []
    for i in range(n):
        no, body = lines.take(f"mult row {i + 1} of {n}")
        parts = body.split()
        if len(parts) != n:
            raise ParseError(
                f"mult row {i + 1} needs {n} entries, found {len(parts)}", no)
        mult_rows.append((no, parts))

    til_row = _keyword_row(lines, "tilde", n)
    mns_row = _keyword_row(lines, "minus", n)
    ngn_row = _keyword_row(lines, "neg", n)
    unit_no, unit_toks = _keyword_row(lines, "unit", 1)
    labels = _maybe_labels(lines, n, ":")
    lines.done()

    lab = labels if labels is not None else [f"e{i}" for i in range(n)]
    index = _label_index(lab)
    mult = np.zeros((n, n), dtype=np.int64)
    for i, (no, toks) in enumerate(mult_rows):
        mult[i] = [_resolve(t, index, n, no, "element") for t in toks]

    def unary(row: tuple[int, list[str]]) -> np.ndarray:
        no, toks = row
        return _freeze(np.array(
            [_resolve(t, index, n, no, "element") for t in toks], np.int64))

    unit = _resolve(unit_toks[0], index, n, unit_no, "element")
    # fresh arrays, handed over read-only: FiniteDqRA shares them
    algebra = FiniteDqRA(n, _freeze(leq), _freeze(mult), unary(til_row),
                         unary(mns_row), unary(ngn_row), unit, tuple(lab))
    return name, algebra


def emit_algebra(name: str, A: FiniteDqRA,
                 comments: Sequence[str] = ()) -> str:
    _check_tokens("name", [name])
    _check_tokens("element labels", A.labels, ":")
    out = [f"# {c}" for c in comments]
    out.append(f"dqra {name} {A.size}")
    out.append("order")
    for i in range(A.size):
        out.append("".join("1" if A.leq[i, j] else "0" for j in range(A.size)))
    out.append("mult")
    for i in range(A.size):
        out.append(" ".join(A.labels[int(v)] for v in A.mult[i]))
    for kw, tab in (("tilde", A.tilde), ("minus", A.minus), ("neg", A.negn)):
        out.append(f"{kw} " + " ".join(A.labels[int(v)] for v in tab))
    out.append(f"unit {A.labels[A.unit]}")
    out.append("labels " + " ".join(A.labels))
    return "\n".join(out) + "\n"


# --- structure files ---------------------------------------------------------


def parse_structure(text: str) -> tuple[str, RelStructure]:
    """Parse a structure file; returns (name, structure)."""
    lines = _Lines.from_text(text)
    name, n = _split_header(lines, "struct")

    no, body = lines.take("'leq' block")
    if body != "leq":
        raise ParseError(f"expected 'leq', found {body!r}", no)
    leq = _parse_bit_rows(lines, n, "leq")
    no, body = lines.take("'E' block")
    if body != "E":
        raise ParseError(f"expected 'E', found {body!r}", no)
    E = _parse_bit_rows(lines, n, "E")

    alpha_row = _keyword_row(lines, "alpha", n)
    beta_row = _keyword_row(lines, "beta", n)
    labels = _maybe_labels(lines, n, ",()")
    lines.done()

    lab = labels if labels is not None else [f"x{i}" for i in range(n)]
    index = _label_index(lab)

    def perm(row: tuple[int, list[str]]) -> tuple[int, ...]:
        no, toks = row
        return tuple(_resolve(t, index, n, no, "point") for t in toks)

    structure = RelStructure(n, BinRel.from_matrix(n, leq),
                             BinRel.from_matrix(n, E),
                             perm(alpha_row), perm(beta_row), tuple(lab))
    return name, structure


def emit_structure(name: str, S: RelStructure,
                   comments: Sequence[str] = ()) -> str:
    _check_tokens("name", [name])
    _check_tokens("point labels", S.labels, ",()")
    out = [f"# {c}" for c in comments]
    out.append(f"struct {name} {S.n}")
    for block, rel in (("leq", S.leq), ("E", S.E)):
        out.append(block)
        out.extend("".join("1" if v else "0" for v in row) for row in rel.mat)
    out.append("alpha " + " ".join(S.labels[v] for v in S.alpha))
    out.append("beta " + " ".join(S.labels[v] for v in S.beta))
    out.append("labels " + " ".join(S.labels))
    return "\n".join(out) + "\n"


# --- assignment files --------------------------------------------------------

_PAIR_RE = re.compile(r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)")


def _parse_pair_set(body: str, no: int, S: RelStructure,
                    points: dict[str, int]) -> BinRel:
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError("relation must be written as {(x,y), ...}", no)
    inner = body[1:-1].strip()
    pairs = []
    if inner:
        consumed = 0
        for m in _PAIR_RE.finditer(inner):
            x = _resolve(m.group(1), points, S.n, no, "point")
            y = _resolve(m.group(2), points, S.n, no, "point")
            pairs.append((x, y))
            consumed += 1
        leftovers = _PAIR_RE.sub("", inner).replace(",", "").strip()
        if leftovers:
            raise ParseError(
                f"unparseable pair text {leftovers!r} in relation", no)
        if not consumed:
            raise ParseError("no pairs found in non-empty relation body", no)
    return BinRel.from_pairs(S.n, pairs)


def _emit_pair_set(R: BinRel, S: RelStructure) -> str:
    """R as `{(x,y), ...}` with point labels, as `_parse_pair_set` reads it."""
    return "{" + ", ".join(f"({S.labels[x]},{S.labels[y]})"
                           for x, y in R.pairs()) + "}"


def parse_relation_list(text: str,
                        S: RelStructure) -> tuple[str, list[tuple[str, BinRel, int]]]:
    """Parse an `assign`-format file as a bare list of named relations over
    the structure; returns (name, [(token, relation, line_no), ...])."""
    lines = _Lines.from_text(text)
    no, body = lines.take("'assign' header")
    parts = body.split()
    if len(parts) != 2 or parts[0] != "assign":
        raise ParseError("expected header 'assign <name>'", no)
    name = parts[1]
    points = _label_index(S.labels)
    rels: list[tuple[str, BinRel, int]] = []
    while lines.peek() is not None:
        no, body = lines.take("relation line")
        if ":" not in body:
            raise ParseError("expected '<name>: {(x,y), ...}'", no)
        tok, rhs = body.split(":", 1)
        rels.append((tok.strip(), _parse_pair_set(rhs, no, S, points), no))
    return name, rels


def parse_assignment(text: str, A: FiniteDqRA,
                     S: RelStructure) -> tuple[str, Embedding]:
    """Parse an assignment file against a given algebra and structure;
    every element must receive exactly one relation."""
    name, rels = parse_relation_list(text, S)
    images: dict[int, BinRel] = {}
    last = 1
    index = _label_index(A.labels)
    for tok, rel, no in rels:
        elt = _resolve(tok, index, A.size, no, "element")
        if elt in images:
            raise ParseError(f"element {A.labels[elt]!r} assigned twice", no)
        images[elt] = rel
        last = no
    missing = [A.labels[a] for a in range(A.size) if a not in images]
    if missing:
        raise ParseError(
            "assignment is partial; missing elements: " + ", ".join(missing),
            last)
    assignment = tuple(images[a] for a in range(A.size))
    return name, Embedding(A, S, assignment)


def emit_assignment(name: str, e: Embedding,
                    comments: Sequence[str] = ()) -> str:
    _check_tokens("name", [name])
    _check_tokens("element labels", e.algebra.labels, ":")
    _check_tokens("point labels", e.structure.labels, ",()")
    out = [f"# {c}" for c in comments]
    out.append(f"assign {name}")
    for a in range(e.algebra.size):
        out.append(f"{e.algebra.labels[a]}: "
                   f"{_emit_pair_set(e.assignment[a], e.structure)}")
    return "\n".join(out) + "\n"
