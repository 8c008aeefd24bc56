"""Library checks must raise, not assert: `python -O` strips assert statements.

This test states its own checks with `pytest.fail`, so it still fails under
`python -O`, which strips the asserts of test modules too."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dqra"


def test_no_assert_statements_in_library():
    files = sorted(SRC.glob("*.py"))
    if not files:
        pytest.fail(f"no library files under {SRC}")
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    if found:
        pytest.fail("assert statements in the library: " + ", ".join(found))
