"""Golden digests of the command line: one SHA-256 of (exit code, stdout,
stderr) per call, over every read-only subcommand on every catalogue entry,
the quotient at every idempotent of the shipped representation, the shipped
structure, and the closure, embedding check and embedding searches around
the shipped representation.

Refactors must leave every output byte-identical, so the digests are
compared exactly.  Re-record them only when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from dqra import CATALOGUE, catalogue_names, load_algebra, psi_elements
from dqra.catalogue import data_dir
from dqra.cli import main

DIGESTS = Path(__file__).with_name("cli_golden_digests.json")
SIX = "D^6_{3,5,2}"


def golden_calls() -> list[list[str]]:
    """Every call, with catalogue names as file arguments so no output
    depends on where the data lives."""
    calls = []
    for name in catalogue_names():
        A = load_algebra(name)
        calls += [["validate", name], ["psi-list", name]]
        calls += [["contract", name, "-p", A.labels[p]]
                  for p in psi_elements(A)]
        calls += [["scan-contractions", name], ["check-nonfinrep", name],
                  ["dot", name]]
    six = load_algebra(SIX)
    struct = str(data_dir() / CATALOGUE[SIX].structure_file)
    assign = str(data_dir() / CATALOGUE[SIX].assignment_file)
    calls += [["quotient", SIX, struct, assign, "-p", six.labels[p],
               "--output", "-", "--embedding-output", "-"]
              for p in psi_elements(six)]
    calls += [[cmd, struct] for cmd in ("validate", "dot", "build-dq")]
    calls += [
        ["closure", struct, assign],
        ["verify-embedding", SIX, struct, assign],
        ["find-embedding", SIX, struct],
        ["find-embedding", "D^3_{1,1}", "--max-size", "3"],
        ["find-embedding", SIX, "--max-size", "4", "--budget", "2000",
         "--output", "-"],
    ]
    return calls


def call_id(argv: list[str]) -> str:
    """The argument list with data paths reduced to file names."""
    return " ".join(Path(a).name if "/" in a else a for a in argv)


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {call_id(argv): digest(argv) for argv in golden_calls()}


def test_cli_outputs_match_golden_digests():
    recorded = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert sorted(got) == sorted(recorded)
    changed = [k for k in recorded if got[k] != recorded[k]]
    assert not changed, f"outputs changed for {changed}"


if __name__ == "__main__":
    digests = current_digests()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
