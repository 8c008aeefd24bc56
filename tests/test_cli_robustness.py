"""Robustness of the command line: on mutated catalogue files (algebras, and
the structure and assignment of D^6_{3,5,2}) and mutated `-p` tokens, every
subcommand ends with a documented exit code (argparse usage errors count as
2) and never with a traceback."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dqra import CATALOGUE
from dqra.catalogue import _read
from dqra.cli import main

from conftest import ALL_NAMES, SIX

# tokens of the algebra format, a few foreign ones, and digits that
# `str.isdigit` accepts but ASCII does not contain
_PIECES = ["0", "1", "2", "3", "7", "12", "-1", "999999999999", "²", "³",
           "٣", "1²", "a", "b", "c", "bot", "top", "order", "mult", "tilde",
           "neg", "unit", "labels", "dqra", " ", "\n", "#", "é"]

_COMMANDS = ["validate", "psi-list", "contract", "dot", "check-nonfinrep",
             "scan-contractions"]

# tokens of the structure and assignment formats
_FILE_PIECES = _PIECES + ["struct", "leq", "E", "alpha", "beta", "assign",
                          "w", "x", "y", "z", "1111", "0000", "10", "{}", "{",
                          "}", "(w,w)", "(x,y)", "(z,w", ",", ":", "bot:"]

_FILE_COMMANDS = ["build-dq", "closure", "verify-embedding", "find-embedding",
                  "quotient", "validate", "dot"]


@st.composite
def mutated(draw, text: str, pieces: list[str] = _PIECES) -> str:
    """The text after one to three edits: a whitespace-separated token
    replaced, a piece inserted, a span deleted, or a line dropped."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["token", "insert", "delete", "drop"]))
        piece = draw(st.sampled_from(pieces))
        if kind == "token":
            lines = [line.split(" ") for line in text.split("\n")]
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = piece
            text = "\n".join(" ".join(line) for line in lines)
        elif kind == "drop":
            lines = text.split("\n")
            del lines[draw(st.integers(0, len(lines) - 1))]
            text = "\n".join(lines)
        else:
            at = draw(st.integers(0, len(text)))
            span = 0 if kind == "insert" else draw(st.integers(1, 6))
            text = text[:at] + (piece if kind == "insert" else "") + \
                text[at + span:]
    return text


def _p_tokens(name: str):
    """Labels and indices of the algebra, and pieces glued to them."""
    labels = _read(CATALOGUE[name].algebra_file).split("labels", 1)[1].split()
    base = st.sampled_from(labels + [str(i) for i in range(len(labels) + 1)])
    return st.one_of(base, st.sampled_from(_PIECES).filter(str.strip),
                     st.tuples(base, st.sampled_from(_PIECES)).map("".join))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def _exit_code(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_inputs_end_with_a_documented_exit_code(workdir, data):
    name = data.draw(st.sampled_from(ALL_NAMES))
    command = data.draw(st.sampled_from(_COMMANDS))
    text = data.draw(st.one_of(st.just(_read(CATALOGUE[name].algebra_file)),
                               mutated(_read(CATALOGUE[name].algebra_file))))
    path = workdir / "input.dqra"
    path.write_text(text)
    argv = [command, str(path)]
    if command == "contract":
        argv += ["-p", data.draw(_p_tokens(name))]
    code, err = _exit_code(argv)
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err


def _file_text(path: str):
    """A catalogue file as it is, or mutated."""
    text = _read(path)
    return st.one_of(st.just(text), mutated(text, _FILE_PIECES))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_structure_files_end_with_a_documented_exit_code(workdir, data):
    entry = CATALOGUE[SIX]
    command = data.draw(st.sampled_from(_FILE_COMMANDS))
    struct, assign = workdir / "input.struct", workdir / "input.assign"
    struct.write_text(data.draw(_file_text(entry.structure_file)))
    assign.write_text(data.draw(_file_text(entry.assignment_file)))
    if command in ("validate", "dot", "build-dq"):
        argv = [command, str(struct)]
    elif command == "closure":
        argv = [command, str(struct), str(assign)]
    elif command == "find-embedding":
        argv = [command, SIX, str(struct), "--budget", "50"]
    else:
        argv = [command, SIX, str(struct), str(assign)]
        if command == "quotient":
            argv += ["-p", data.draw(_p_tokens(SIX))]
    code, err = _exit_code(argv)
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err
