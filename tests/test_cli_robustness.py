"""Robustness of the command line: on mutated catalogue files and mutated
`-p` tokens, every read-only subcommand ends with a documented exit code
(argparse usage errors count as 2) and never with a traceback."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dqra import CATALOGUE
from dqra.catalogue import _read
from dqra.cli import main

from conftest import ALL_NAMES

# tokens of the algebra format, a few foreign ones, and digits that
# `str.isdigit` accepts but ASCII does not contain
_PIECES = ["0", "1", "2", "3", "7", "12", "-1", "999999999999", "²", "³",
           "٣", "1²", "a", "b", "c", "bot", "top", "order", "mult", "tilde",
           "neg", "unit", "labels", "dqra", " ", "\n", "#", "é"]

_COMMANDS = ["validate", "psi-list", "contract", "dot", "check-nonfinrep",
             "scan-contractions"]


@st.composite
def mutated(draw, text: str) -> str:
    """The text after one to three edits: a whitespace-separated token
    replaced, a piece inserted, a span deleted, or a line dropped."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["token", "insert", "delete", "drop"]))
        piece = draw(st.sampled_from(_PIECES))
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
