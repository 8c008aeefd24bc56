"""Round-trip laws and diagnostics for the text formats."""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dqra import (CATALOGUE, Embedding, FiniteDqRA, RelStructure,
                  load_algebra, load_structure)
from dqra.catalogue import _read
from dqra.textio import (
    ParseError,
    emit_algebra,
    emit_assignment,
    emit_structure,
    parse_algebra,
    parse_assignment,
    parse_relation_list,
    parse_structure,
)

from conftest import ALL_NAMES, SIX


def canonicalize_algebra(text: str) -> str:
    name, A = parse_algebra(text)
    return emit_algebra(name, A)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_algebra_round_trip(name):
    raw = _read(CATALOGUE[name].algebra_file)
    canon = canonicalize_algebra(raw)
    assert canonicalize_algebra(canon) == canon
    again = parse_algebra(canon)[1]
    first = parse_algebra(raw)[1]
    assert first.table_key() == again.table_key()
    assert first.labels == again.labels


def test_structure_round_trip_and_validation():
    from dqra import validate_structure
    raw = _read(CATALOGUE[SIX].structure_file)
    name, S = parse_structure(raw)
    assert validate_structure(S).ok
    canon = emit_structure(name, S)
    name2, S2 = parse_structure(canon)
    assert name2 == name
    assert emit_structure(name2, S2) == canon


def test_assignment_round_trip(six, six_embedding):
    text = emit_assignment("probe", six_embedding)
    name, again = parse_assignment(text, six, six_embedding.structure)
    assert name == "probe"
    assert again.assignment == six_embedding.assignment


def test_truncated_mult_table_names_the_row():
    raw = _read(CATALOGUE[SIX].algebra_file)
    lines = raw.splitlines()
    mult_at = lines.index("mult")
    clipped = "\n".join(lines[:mult_at + 4])   # drop rows 4..6 of the table
    with pytest.raises(ParseError) as exc:
        parse_algebra(clipped)
    assert "mult row 4" in str(exc.value)


def test_truncated_order_block_rejected():
    raw = _read(CATALOGUE[SIX].algebra_file)
    lines = raw.splitlines()
    order_at = lines.index("order")
    clipped = lines[:order_at + 3] + lines[order_at + 7:]
    with pytest.raises(ParseError):
        parse_algebra("\n".join(clipped))


def test_bad_element_reference_position():
    text = ("dqra tiny 2\norder\n11\n01\nmult\ne0 e0\ne0 mystery\n"
            "tilde e1 e0\nminus e1 e0\nneg e1 e0\nunit e1\n")
    with pytest.raises(ParseError) as exc:
        parse_algebra(text)
    assert "mystery" in str(exc.value)
    assert "line 7" in str(exc.value)


def test_labels_shadow_indices():
    # an element named "1" wins over the numeric reading of the token
    text = ("dqra shadow 2\norder\n11\n01\nmult\n0 0\n0 1\n"
            "tilde 1 0\nminus 1 0\nneg 1 0\nunit 1\nlabels 1 0\n")
    _, A = parse_algebra(text)
    # label "1" is element 0, so unit resolves to index 0
    assert A.unit == 0
    assert A.labels == ("1", "0")


def test_comments_and_blank_lines_ignored():
    raw = _read(CATALOGUE[SIX].algebra_file)
    noisy = "# leading comment\n\n" + raw.replace("mult", "# noise\nmult", 1)
    assert parse_algebra(noisy)[1].table_key() == parse_algebra(raw)[1].table_key()


def test_partial_assignment_rejected(six, six_embedding):
    text = emit_assignment("probe", six_embedding)
    clipped = "\n".join(text.splitlines()[:-1])
    with pytest.raises(ParseError) as exc:
        parse_assignment(clipped, six, six_embedding.structure)
    assert "missing elements" in str(exc.value)


def test_duplicate_assignment_rejected(six, six_embedding):
    text = emit_assignment("probe", six_embedding)
    doubled = text + text.splitlines()[-1] + "\n"
    with pytest.raises(ParseError) as exc:
        parse_assignment(doubled, six, six_embedding.structure)
    assert "twice" in str(exc.value)


def test_relation_list_allows_arbitrary_names(example_structure):
    text = "assign gens\nfirst: {(w,y), (y,w)}\nsecond: {}\n"
    name, rels = parse_relation_list(text, example_structure)
    assert name == "gens"
    assert [t for t, _, _ in rels] == ["first", "second"]
    assert len(rels[0][1]) == 2 and len(rels[1][1]) == 0


def test_garbled_pair_text_rejected(example_structure):
    with pytest.raises(ParseError):
        parse_relation_list("assign g\nr: {(w,y), junk}\n", example_structure)


def test_unknown_point_rejected(example_structure):
    with pytest.raises(ParseError) as exc:
        parse_relation_list("assign g\nr: {(w,q)}\n", example_structure)
    assert "q" in str(exc.value)


def test_boundary_messages(example_structure):
    two = ("dqra two 2\norder\n11\n01\nmult\n0 0\n0 1\n"
           "tilde 1 0\nminus 1 0\nneg 1 0\nunit 1\n")
    with pytest.raises(ParseError, match="line 12: labels must be distinct"):
        parse_algebra(two + "labels a a\n")
    with pytest.raises(ParseError,
                       match="line 6: element index 2 out of range 0..1"):
        parse_algebra(two.replace("mult\n0 0", "mult\n0 2"))
    with pytest.raises(ParseError, match="point index 4 out of range 0..3"):
        parse_relation_list("assign g\nr: {(w,4)}\n", example_structure)
    with pytest.raises(ParseError, match="line 10: labels must be distinct"):
        parse_structure("struct s 2\nleq\n10\n01\nE\n11\n11\n"
                        "alpha 0 1\nbeta 0 1\nlabels p p\n")
    with pytest.raises(ParseError,
                       match="line 2: no pairs found in non-empty relation"):
        parse_relation_list("assign g\nr: {,}\n", example_structure)


def relabelled(text: str, old: str, new: str) -> str:
    """The text with every token `old` outside comments replaced by `new`."""
    return "\n".join(line if line.startswith("#") else " ".join(
        new if t == old else t for t in line.split())
        for line in text.splitlines()) + "\n"


@pytest.mark.parametrize("char", [",", "(", ")"])
def test_point_labels_must_fit_the_pair_syntax(char):
    # `a,b` and `c)` were accepted, and `find-embedding --output` then wrote
    # `{(a,b,a,b), (c),c))}`, which the assignment reader rejects
    text = relabelled(_read(CATALOGUE[SIX].structure_file), "x", f"x{char}y")
    with pytest.raises(ParseError, match="line 15: labels may not use the "
                                         "characters ',\\(\\)'"):
        parse_structure(text)


def test_element_labels_must_fit_the_name_syntax():
    # `x:y` was accepted, and its assignment line `x:y: {...}` then split
    # at the first colon
    text = relabelled(_read(CATALOGUE[SIX].algebra_file), "a", "x:y")
    with pytest.raises(ParseError, match="line 21: labels may not use the "
                                         "characters ':'"):
        parse_algebra(text)


def test_assignment_round_trip_with_unusual_labels(six, six_embedding):
    """Labels may hold every other character: the algebra, structure and
    assignment written with them read back to the same embedding."""
    S = six_embedding.structure
    elements = ("f(x)", "a,b", "[1]", "{b}", "0;", "t-p")
    points = ("w:1", "[x]", "{y}", "z;")
    A = FiniteDqRA(six.size, six.leq, six.mult, six.tilde, six.minus,
                   six.negn, six.unit, elements)
    T = RelStructure(S.n, S.leq, S.E, S.alpha, S.beta, points)
    e = Embedding(A, T, six_embedding.assignment)
    A_read = parse_algebra(emit_algebra("six", A))[1]
    T_read = parse_structure(emit_structure("six", T))[1]
    assert A_read.labels == elements and T_read.labels == points
    name, again = parse_assignment(emit_assignment("probe", e), A_read, T_read)
    assert name == "probe"
    assert again.assignment == e.assignment


@pytest.mark.parametrize("label", ["a b", "a#b", "", "x:y", 7])
def test_element_labels_the_parser_cannot_read_are_not_written(
        six, six_embedding, label):
    # `a b` was written as two tokens (mult row 1 found 6 entries), `a#b`
    # and `` as one, `x:y` as a label the reader refuses, 7 raised
    # TypeError from str.join
    labels = (label,) + six.labels[1:]
    A = six.relabel(labels)
    e = Embedding(A, six_embedding.structure, six_embedding.assignment)
    for emit in (lambda: emit_algebra("six", A),
                 lambda: emit_assignment("probe", e)):
        with pytest.raises(ValueError, match=f"^cannot write element labels "
                                             f"{re.escape(repr(label))}: "):
            emit()


@pytest.mark.parametrize("label", ["a b", "#", "a,b", "(", "c)", 7])
def test_point_labels_the_parser_cannot_read_are_not_written(
        six, six_embedding, label):
    S = six_embedding.structure
    T = RelStructure(S.n, S.leq, S.E, S.alpha, S.beta,
                     (label,) + S.labels[1:])
    e = Embedding(six, T, six_embedding.assignment)
    for emit in (lambda: emit_structure("six", T),
                 lambda: emit_assignment("probe", e)):
        with pytest.raises(ValueError, match=f"^cannot write point labels "
                                             f"{re.escape(repr(label))}: "):
            emit()


@pytest.mark.parametrize("name", ["my six", "six#2", "", "\tsix", 6])
def test_names_the_parser_cannot_read_are_not_written(six, six_embedding,
                                                      name):
    for emit in (lambda: emit_algebra(name, six),
                 lambda: emit_structure(name, six_embedding.structure),
                 lambda: emit_assignment(name, six_embedding)):
        with pytest.raises(ValueError, match=f"^cannot write name "
                                             f"{re.escape(repr(name))}: "):
            emit()


def test_every_bad_token_is_named():
    A = FiniteDqRA(3, [[1, 0, 0], [1, 1, 0], [1, 1, 1]],
                   [[0, 0, 0], [0, 1, 1], [0, 1, 2]], [2, 1, 0], [2, 1, 0],
                   [2, 1, 0], 2, ("a b", "ok", "x:y"))
    with pytest.raises(ValueError, match="^cannot write element labels "
                                         "'a b', 'x:y': "):
        emit_algebra("chain", A)


def test_wrong_header_token():
    with pytest.raises(ParseError):
        parse_structure("dqra x 2\n")
    with pytest.raises(ParseError):
        parse_algebra("struct x 2\n")


# --- mutated inputs raise only ParseError --------------------------------------

# characters and tokens the formats are made of, plus a few foreign ones
_PIECES = list("01 \n\t{}(),:#-") + [
    "order", "mult", "tilde", "minus", "neg", "unit", "labels", "leq", "E",
    "alpha", "beta", "dqra", "struct", "assign", "a", "b", "w", "x", "top",
    "7", "-1", "999999999999", "é", "\x00"]


@st.composite
def mutated(draw, text: str) -> str:
    """The text after one to four random edits: a piece inserted, a span
    deleted or replaced, a line dropped, doubled or swapped, or a cut."""
    for _ in range(draw(st.integers(1, 4))):
        lines = text.split("\n")
        kind = draw(st.sampled_from(
            ["insert", "delete", "replace", "drop", "double", "swap", "cut"]))
        at = draw(st.integers(0, len(text)))
        span = draw(st.integers(1, 6))
        piece = draw(st.sampled_from(_PIECES))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if kind == "insert":
            text = text[:at] + piece + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + span:]
        elif kind == "replace":
            text = text[:at] + piece + text[at + span:]
        elif kind == "cut":
            text = text[:at]
        else:
            if kind == "drop":
                del lines[i]
            elif kind == "double":
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _parses_or_parse_error(parse, text: str, *args) -> None:
    try:
        parse(text, *args)
    except ParseError:
        pass


@_FUZZ
@given(st.data())
def test_mutated_algebra_text_raises_only_parse_error(data):
    name = data.draw(st.sampled_from(ALL_NAMES))
    text = data.draw(mutated(_read(CATALOGUE[name].algebra_file)))
    _parses_or_parse_error(parse_algebra, text)


@_FUZZ
@given(mutated(_read(CATALOGUE[SIX].structure_file)))
def test_mutated_structure_text_raises_only_parse_error(text):
    _parses_or_parse_error(parse_structure, text)


@_FUZZ
@given(mutated(_read(CATALOGUE[SIX].assignment_file)))
def test_mutated_assignment_text_raises_only_parse_error(text):
    _parses_or_parse_error(parse_assignment, text, load_algebra(SIX),
                           load_structure(SIX))


def test_huge_declared_size_fails_on_the_missing_rows():
    # nothing is allocated from the declared size before the rows are read
    with pytest.raises(ParseError):
        parse_structure("struct x 9999999999999\nleq\n0\n")
    with pytest.raises(ParseError):
        parse_algebra("dqra x 9999999999999\norder\n0\n")
