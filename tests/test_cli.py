"""Command-line behaviour: outputs, formats, exit codes."""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dqra
from dqra import (CATALOGUE, CapExceededError, Embedding, load_algebra,
                  validate_dqra)
from dqra.catalogue import _read, data_dir
from dqra.cli import main
from dqra.textio import (emit_assignment, emit_structure, parse_algebra,
                         parse_assignment, parse_structure)


def data_path(name: str, which: str = "algebra") -> str:
    entry = CATALOGUE[name]
    fname = {"algebra": entry.algebra_file,
             "structure": entry.structure_file,
             "assignment": entry.assignment_file}[which]
    return str(data_dir() / fname)


SIX = "D^6_{3,5,2}"


def test_validate_algebra_ok(capsys):
    assert main(["validate", data_path(SIX)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "FAIL" not in out


def test_validate_structure_ok(capsys):
    assert main(["validate", data_path(SIX, "structure")]) == 0


def test_validate_broken_file_exits_3(tmp_path, capsys):
    bad = _read(CATALOGUE[SIX].algebra_file).replace(
        "tilde top 0 a b 1 bot", "tilde top 0 a b 1 top")
    p = tmp_path / "bad.dqra"
    p.write_text(bad)
    assert main(["validate", str(p)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_missing_file_exits_5(capsys):
    assert main(["validate", "no/such/file.dqra"]) == 5


def test_parse_error_exits_5(tmp_path, capsys):
    p = tmp_path / "junk.dqra"
    p.write_text("dqra broken 3\norder\n111\n")
    assert main(["validate", str(p)]) == 5
    assert "parse error" in capsys.readouterr().err


def test_labels_that_assignments_cannot_read_exit_5(tmp_path, capsys):
    # before, the structure validated and `find-embedding --output` wrote
    # `{(a,b,a,b), (c),c))}`; the algebra's `x:y: {...}` line split at the
    # first colon
    p = tmp_path / "t.struct"
    p.write_text("struct t 2\nleq\n10\n01\nE\n10\n01\n"
                 "alpha a,b c)\nbeta a,b c)\nlabels a,b c)\n")
    assert main(["validate", str(p)]) == 5
    assert capsys.readouterr().err == (
        "parse error: line 10: labels may not use the characters ',()'\n")
    q = tmp_path / "t.dqra"
    q.write_text(_read(CATALOGUE[SIX].algebra_file).replace(
        "labels bot 1 a b 0 top", "labels bot 1 x:y b 0 top"))
    assert main(["validate", str(q)]) == 5
    assert capsys.readouterr().err == (
        "parse error: line 21: labels may not use the characters ':'\n")


def test_psi_list(capsys):
    assert main(["psi-list", data_path(SIX)]) == 0
    assert capsys.readouterr().out.split() == ["1", "a", "b", "top"]


def test_contract_emits_algebra_with_inclusion_comment(tmp_path, capsys):
    out = tmp_path / "aAa.dqra"
    assert main(["contract", data_path(SIX), "-p", "a",
                 "--output", str(out)]) == 0
    text = out.read_text()
    assert "inclusion map" in text
    name, sub = parse_algebra(text)
    assert sub.size == 3
    assert validate_dqra(sub).ok


def test_contract_rejects_non_psi(capsys):
    assert main(["contract", data_path(SIX), "-p", "0"]) == 3


def test_build_dq(tmp_path):
    # build the full algebra over the shipped four-point model is too big;
    # use the quotient-sized structure emitted below instead
    struct = tmp_path / "two.struct"
    struct.write_text(
        "struct two 2\nleq\n11\n01\nE\n11\n11\nalpha 0 1\nbeta 1 0\n")
    out = tmp_path / "dq.dqra"
    assert main(["build-dq", str(struct), "--output", str(out)]) == 0
    _, A = parse_algebra(out.read_text())
    assert A.size == 6
    assert validate_dqra(A).ok


def test_build_dq_cap_exceeded(tmp_path, capsys):
    assert main(["build-dq", data_path(SIX, "structure"), "--cap", "100"]) == 4
    assert "cap" in capsys.readouterr().err


def _antichain_file(tmp_path, n: int) -> Path:
    """An n-point antichain with full E: n*n incomparable pairs, 2^(n*n)
    upsets."""
    rows = ["".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
    ident = " ".join(map(str, range(n)))
    struct = tmp_path / "wide.struct"
    struct.write_text("\n".join([f"struct wide {n}", "leq", *rows, "E",
                                 *["1" * n] * n, f"alpha {ident}",
                                 f"beta {ident}"]) + "\n")
    return struct


def test_build_dq_cap_checked_on_a_wide_pair_poset(tmp_path, capsys):
    struct = _antichain_file(tmp_path, 32)
    assert main(["build-dq", str(struct), "--cap", "4096"]) == 4
    err = capsys.readouterr().err
    assert "cap exceeded" in err and "Traceback" not in err


def test_cap_exceeded_past_the_int_decimal_limit(tmp_path, capsys):
    # 2^2209 upsets has 665 decimal digits, past a limit lowered to 640
    struct = _antichain_file(tmp_path, 47)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        _, S = parse_structure(struct.read_text())
        with pytest.raises(CapExceededError) as exc:
            S.count_upsets(1 << 16)
        assert exc.value.count == 1 << 2209
        for argv, cap in ((["build-dq", str(struct)], 4096),
                          (["find-embedding", "D^3_{1,1}", str(struct)],
                           1 << 16)):
            assert main(argv) == 4
            assert capsys.readouterr().err == (
                f"cap exceeded: at least 2^2209 upsets exceed cap {cap}\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_150_point_antichain_fails_fast(tmp_path, capsys):
    # 22,500 incomparable pairs: 2^22500 upsets, whose decimal form is past
    # the interpreter's default limit.  Both commands refuse before building
    # anything the size of the pair order (each takes well under a second)
    struct = _antichain_file(tmp_path, 150)
    for argv, cap in ((["build-dq", str(struct)], 4096),
                      (["find-embedding", "D^3_{1,1}", str(struct)], 1 << 16)):
        start = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - start < 30
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == (
            f"cap exceeded: at least 2^22500 upsets exceed cap {cap}\n")


INVALID_STRUCTURES = [
    # alpha swaps the points of a chain: no order automorphism
    ("struct swap 2\nleq\n11\n01\nE\n11\n11\nalpha 1 0\nbeta 0 1\n",
     "alpha-order-automorphism"),
    # E is not transitive
    ("struct loose 3\nleq\n100\n010\n001\nE\n110\n111\n011\n"
     "alpha 0 1 2\nbeta 0 1 2\n", "E-transitive"),
    # leq is not reflexive; its closure once exited 0 with an invalid algebra
    ("struct skew 2\nleq\n01\n10\nE\n11\n11\nalpha 0 1\nbeta 0 1\n",
     "leq-reflexive witness=(0,)\n"),
]


@pytest.mark.parametrize("text,check", INVALID_STRUCTURES)
def test_build_dq_rejects_an_invalid_structure(tmp_path, capsys, text, check):
    struct = tmp_path / "bad.struct"
    struct.write_text(text)
    assert main(["build-dq", str(struct)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid input: FAIL " + check)
    assert "Traceback" not in err


def test_closure_command(tmp_path):
    gens = tmp_path / "gens.assign"
    gens.write_text("assign gens\nra: {(w,w),(x,x),(y,y),(z,z),"
                    "(w,y),(y,w),(x,z),(z,x)}\n"
                    "rb: {(w,w),(x,x),(y,y),(z,z),(w,z),(z,w),(x,y),(y,x)}\n")
    out = tmp_path / "closure.dqra"
    assert main(["closure", data_path(SIX, "structure"), str(gens),
                 "--output", str(out)]) == 0
    text = out.read_text()
    _, A = parse_algebra(text)
    assert A.size == 6
    assert "element" in text   # the assignment rides along as comments


@pytest.mark.parametrize("text,check", INVALID_STRUCTURES)
def test_closure_rejects_an_invalid_structure(tmp_path, capsys, text, check):
    # the closure over an invalid structure need not be an algebra
    struct = tmp_path / "bad.struct"
    struct.write_text(text)
    gens = tmp_path / "none.assign"
    gens.write_text("assign none\n")
    assert main(["closure", str(struct), str(gens)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: FAIL " + check)


def test_verify_embedding_ok(capsys):
    assert main(["verify-embedding", data_path(SIX),
                 data_path(SIX, "structure"), data_path(SIX, "assignment")]) == 0


def test_verify_embedding_rejects_mutation(tmp_path, capsys):
    text = _read(CATALOGUE[SIX].assignment_file)
    mutated = text.replace("bot: {}", "bot: {(w,w)}")
    p = tmp_path / "bad.assign"
    p.write_text(mutated)
    assert main(["verify-embedding", data_path(SIX),
                 data_path(SIX, "structure"), str(p)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_find_embedding_single_structure(tmp_path, capsys):
    out = tmp_path / "found.assign"
    assert main(["find-embedding", data_path(SIX),
                 data_path(SIX, "structure"), "--output", str(out)]) == 0
    A = load_algebra(SIX)
    _, S = parse_structure(_read(CATALOGUE[SIX].structure_file))
    _, e = parse_assignment(out.read_text(), A, S)
    from dqra import verify_embedding
    assert verify_embedding(e).ok


def test_find_embedding_single_structure_writes_the_structure(tmp_path,
                                                               capsys):
    found, struct = tmp_path / "found.assign", tmp_path / "found.struct"
    assert main(["find-embedding", SIX, data_path(SIX, "structure"),
                 "--output", str(found), "--structure-output",
                 str(struct)]) == 0
    _, S = parse_structure(_read(CATALOGUE[SIX].structure_file))
    assert struct.read_text() == emit_structure(SIX + "_structure", S)
    _, e = parse_assignment(found.read_text(), load_algebra(SIX),
                            parse_structure(struct.read_text())[1])
    assert dqra.verify_embedding(e).ok
    # nothing found, nothing written
    missing = tmp_path / "none.struct"
    assert main(["find-embedding", "D^3_{1,1}", data_path(SIX, "structure"),
                 "--structure-output", str(missing)]) == 4
    assert not missing.exists()

def test_find_embedding_not_found(tmp_path, capsys):
    assert main(["find-embedding", data_path("D^3_{1,1}"),
                 "--max-size", "2"]) == 4
    assert "not-found-definitive" in capsys.readouterr().out


def test_find_embedding_requires_target(capsys):
    assert main(["find-embedding", data_path(SIX)]) == 2


def test_find_embedding_takes_a_structure_or_max_size_not_both(capsys):
    assert main(["find-embedding", data_path(SIX)]) == 2
    assert capsys.readouterr().err == (
        "find-embedding: give a structure file or --max-size\n")
    assert main(["find-embedding", data_path(SIX), data_path(SIX, "structure"),
                 "--max-size", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "find-embedding: give a structure file or --max-size, not both\n")


def test_find_embedding_refutes_d3_over_four_points(capsys):
    # acceptance criterion 7 one size up: every structure with n <= 4
    assert main(["find-embedding", data_path("D^3_{1,1}"),
                 "--max-size", "4"]) == 4
    assert capsys.readouterr().out == (
        "not-found-definitive over all 652 structure(s) "
        "with at most 4 point(s)\n")


def test_find_embedding_sweep_writes_the_structure_it_found(capsys):
    assert main(["find-embedding", data_path(SIX), "--max-size", "4",
                 "--budget", "2000", "--structure-output", "-"]) == 0
    head, text = capsys.readouterr().out.split("\n", 1)
    assert head == ("found over a structure with 4 point(s) "
                    "after 88 structure(s)")
    name, S = parse_structure(text)
    assert name == SIX + "_structure"
    assert dqra.find_embedding(load_algebra(SIX), S, budget=2000).found


def test_find_embedding_sweep_reports_an_exhausted_budget(capsys):
    assert main(["find-embedding", data_path(SIX), "--max-size", "4",
                 "--budget", "1"]) == 4
    assert capsys.readouterr().out == (
        "budget-exhausted on some of the 652 structure(s)\n")


@pytest.mark.parametrize("name", ["D^3_{1,1}", "D^4_{1,1}", SIX])
@pytest.mark.parametrize("text,check", INVALID_STRUCTURES)
def test_find_embedding_rejects_an_invalid_structure(tmp_path, capsys, name,
                                                     text, check):
    # a search over an invalid structure would claim a definitive not-found
    struct = tmp_path / "bad.struct"
    struct.write_text(text)
    assert main(["find-embedding", data_path(name), str(struct)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: FAIL " + check)
    assert "Traceback" not in err


INVALID_ALGEBRAS = [
    # three incomparable elements: no meets, so no lattice
    ("dqra anti 3\norder\n100\n010\n001\nmult\nx y z\ny y z\nz z z\n"
     "tilde x y z\nminus x y z\nneg x y z\nunit x\nlabels x y z\n",
     "meets-exist"),
    # a 3-chain with (a.bot).a = a but a.(bot.a) = bot
    ("dqra skew 3\norder\n111\n011\n001\nmult\nbot a bot\nbot bot a\n"
     "bot a 1\ntilde 1 a bot\nminus 1 a bot\nneg 1 a bot\nunit 1\n"
     "labels bot a 1\n", "monoid-associative"),
]


@pytest.mark.parametrize("mode", ["structure", "max-size"])
@pytest.mark.parametrize("text,check", INVALID_ALGEBRAS)
def test_find_embedding_rejects_an_invalid_algebra(tmp_path, capsys, mode,
                                                   text, check):
    # a search for an invalid algebra would claim a definitive not-found
    alg = tmp_path / "bad.dqra"
    alg.write_text(text)
    target = ([data_path(SIX, "structure")] if mode == "structure"
              else ["--max-size", "2"])
    assert main(["find-embedding", str(alg), *target]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: FAIL " + check)
    assert "Traceback" not in err


# the one-element algebra, whose unit goes to the structure's order
ONE = ("dqra one 1\norder\n1\nmult\nu\ntilde u\nminus u\nneg u\nunit u\n"
       "labels u\n")
EMBEDDING_COMMANDS = [["verify-embedding"], ["quotient", "-p", "u"]]


def embedding_args(tmp_path, command, algebra, structure, assignment):
    files = []
    for name, text in (("a.dqra", algebra), ("s.struct", structure),
                       ("e.assign", assignment)):
        (tmp_path / name).write_text(text)
        files.append(str(tmp_path / name))
    return command[:1] + files + command[1:]


@pytest.mark.parametrize("command", EMBEDDING_COMMANDS)
@pytest.mark.parametrize("text,check", INVALID_STRUCTURES)
def test_embedding_commands_reject_an_invalid_structure(tmp_path, capsys,
                                                        command, text, check):
    _, A = parse_algebra(ONE)
    _, S = parse_structure(text)
    images = emit_assignment("order", Embedding(A, S, (S.leq,)))
    assert main(embedding_args(tmp_path, command, ONE, text, images)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: structure does not validate: FAIL "
                          + check.rstrip("\n"))
    assert "Traceback" not in err


# the four-element algebra of the quotient oracle: its order is neither
# reflexive nor transitive, and the unit u is no unit (u.u = p)
MEETLESS = ("dqra meetless 4\norder\n1111\n0011\n0101\n0001\n"
            "mult\nz z z z\nz p u t\nz u p t\nz t t t\n"
            "tilde t p u z\nminus t p u z\nneg t p u z\nunit u\n"
            "labels z u p t\n")


@pytest.mark.parametrize("command", [["verify-embedding"],
                                     ["quotient", "-p", "p"]])
def test_embedding_commands_reject_an_order_that_breaks_its_meet(
        tmp_path, capsys, command):
    # the four-element algebra over the structure whose order is the swap:
    # its derived meets and joins are the intersections and unions of the
    # images
    structure = INVALID_STRUCTURES[2][0]
    images = ("assign images\nz: {}\nu: {(x0,x1),(x1,x0)}\n"
              "p: {(x0,x0),(x1,x1)}\nt: {(x0,x0),(x0,x1),(x1,x0),(x1,x1)}\n")
    assert main(embedding_args(tmp_path, command, MEETLESS, structure,
                               images)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: algebra does not validate: "
                          "FAIL order-reflexive witness=(1,)")
    assert "Traceback" not in err


def test_quotient_command(tmp_path):
    struct_out = tmp_path / "q.struct"
    emb_out = tmp_path / "q.assign"
    alg_out = tmp_path / "q.dqra"
    assert main(["quotient", data_path(SIX), data_path(SIX, "structure"),
                 data_path(SIX, "assignment"), "-p", "a",
                 "--output", str(struct_out),
                 "--embedding-output", str(emb_out),
                 "--contraction-output", str(alg_out)]) == 0
    _, Q = parse_structure(struct_out.read_text())
    assert Q.n == 2
    _, C = parse_algebra(alg_out.read_text())
    assert C.size == 3
    _, psi = parse_assignment(emb_out.read_text(), C, Q)
    from dqra import verify_embedding
    assert verify_embedding(psi).ok


def test_quotient_command_builds_the_quotient_once(tmp_path, monkeypatch):
    import dqra.cli
    import dqra.representation
    calls = []
    build = dqra.representation.quotient_representation

    def counting(e, p):
        calls.append(p)
        return build(e, p)

    for module in (dqra.cli, dqra.representation):
        monkeypatch.setattr(module, "quotient_representation", counting)
    assert main(["quotient", data_path(SIX), data_path(SIX, "structure"),
                 data_path(SIX, "assignment"), "-p", "a",
                 "--output", str(tmp_path / "q.struct"),
                 "--embedding-output", str(tmp_path / "q.assign")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name,expected", [
    ("D^3_{1,1}", "not-finrep(basic, a)"),
    ("D^4_{3,1}", "not-finrep(contraction, p=top, b=a)"),
    ("D^6_{3,5,2}", "finrep-unknown"),
])
def test_check_nonfinrep_verdicts(capsys, name, expected):
    assert main(["check-nonfinrep", data_path(name)]) == 0
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize("text,check", INVALID_ALGEBRAS)
def test_check_nonfinrep_rejects_an_invalid_algebra(tmp_path, capsys, text,
                                                    check):
    alg = tmp_path / "bad.dqra"
    alg.write_text(text)
    assert main(["check-nonfinrep", str(alg)]) == 3
    out, err = capsys.readouterr()
    report = validate_dqra(parse_algebra(text)[1])
    assert out == ""
    assert err == f"input algebra is invalid\n{report}\n"
    assert "FAIL " + check in err


# each invalid algebra with a positive symmetric idempotent to contract at:
# the unit of each of INVALID_ALGEBRAS, p of the four-element algebra
INVALID_WITH_PSI = [(*INVALID_ALGEBRAS[0], "x"), (*INVALID_ALGEBRAS[1], "1"),
                    (MEETLESS, "order-reflexive witness=(1,)", "p")]


@pytest.mark.parametrize("command", ["psi-list", "contract",
                                     "scan-contractions"])
@pytest.mark.parametrize("text,check,psi", INVALID_WITH_PSI)
def test_contraction_commands_reject_an_invalid_algebra(tmp_path, capsys,
                                                        command, text, check,
                                                        psi):
    alg = tmp_path / "bad.dqra"
    alg.write_text(text)
    element = ["-p", psi] if command == "contract" else []
    assert main([command, str(alg), *element]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid input: algebra does not validate: FAIL "
                          + check)
    assert "Traceback" not in err


def test_scan_contractions_output(capsys):
    assert main(["scan-contractions", data_path("D^6_{3,2}")]) == 0
    out = capsys.readouterr().out
    assert "p=a" in out and "basic witness" in out


def test_dot_algebra(capsys):
    assert main(["dot", data_path(SIX)]) == 0
    assert "digraph" in capsys.readouterr().out


def test_dot_structure(capsys):
    assert main(["dot", data_path(SIX, "structure")]) == 0
    out = capsys.readouterr().out
    assert "style=dashed" in out and "cluster_0" in out


def test_catalogue_name_shortcut(capsys):
    # catalogue names double as file arguments
    assert main(["psi-list", SIX]) == 0
    assert capsys.readouterr().out.split() == ["1", "a", "b", "top"]


# --- non-ASCII digits, --max-size bounds, one parser per process ---------------


@pytest.mark.parametrize("edit", [
    ("dqra D^3_{1,1} 3", "dqra D^3_{1,1} ³"),   # the size field
    ("unit 1", "unit ²"),                      # an element reference
])
def test_non_ascii_digits_in_a_file_are_a_parse_error(tmp_path, capsys, edit):
    # '³'.isdigit() holds but int('³') raises: a reference must be ASCII
    p = tmp_path / "digits.dqra"
    p.write_text(_read(CATALOGUE["D^3_{1,1}"].algebra_file).replace(*edit))
    assert main(["validate", str(p)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("parse error: line ") and "Traceback" not in err


@pytest.mark.parametrize("token", ["²", "٣"])
def test_non_ascii_digit_p_is_invalid_input(capsys, token):
    assert main(["contract", data_path(SIX), "-p", token]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid input: \"no element '{token}' in the algebra\"\n"


@pytest.mark.parametrize("size", ["0", "-1"])
def test_find_embedding_rejects_max_size_below_one(capsys, size):
    with pytest.raises(SystemExit) as exc:
        main(["find-embedding", data_path("D^3_{1,1}"), "--max-size", size])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"argument --max-size: must be at least 1: {size}\n")


@pytest.mark.parametrize("argv", [
    ["build-dq", data_path(SIX, "structure"), "--cap"],
    ["closure", data_path(SIX, "structure"), data_path(SIX, "assignment"),
     "--cap"],
    ["find-embedding", data_path(SIX), "--max-size", "1", "--budget"],
    ["find-embedding", data_path(SIX), "--max-size", "1", "--upset-cap"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"argument {argv[-1]}: must be non-negative: -1\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["many"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"argument {argv[-1]}: invalid int value: 'many'\n")


@pytest.mark.parametrize("argv,code", [
    (["build-dq", data_path(SIX, "structure"), "--cap", "0"], 4),
    (["find-embedding", data_path(SIX), data_path(SIX, "structure"),
      "--budget", "0"], 4),
    (["find-embedding", data_path(SIX), data_path(SIX, "structure"),
      "--upset-cap", "0"], 4),
])
def test_zero_counts_stay_valid(capsys, argv, code):
    assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


def test_reused_parser_forgets_an_earlier_output_option(tmp_path, capsys):
    out = tmp_path / "aAa.dqra"
    argv = ["contract", data_path(SIX), "-p", "a"]
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_reused_parser_after_a_usage_error(capsys):
    argv = ["check-nonfinrep", data_path("D^4_{3,1}")]
    assert main(argv) == 0
    alone = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["contract", data_path(SIX), "--bogus"])
    assert exc.value.code == 2
    assert "usage: dqra" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr() == alone


def _run_module(*argv: str, env=None, **run):
    """`python -m dqra.cli` in a fresh interpreter, with this checkout's
    sources first on the path, one BLAS thread and the variables of `env`;
    `run` goes to `subprocess.run` (text output unless it says otherwise)."""
    src = str(Path(dqra.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    child = dict(os.environ,
                 PYTHONPATH=src + (os.pathsep + path if path else ""),
                 OPENBLAS_NUM_THREADS="1", **(env or {}))
    return subprocess.run([sys.executable, "-m", "dqra.cli", *argv],
                          **{"capture_output": True, "text": True,
                             "env": child, "timeout": 120, **run})


def _limit_address_space() -> None:
    """4 GiB of address space for the child: enough for the interpreter and
    numpy, so a larger request fails at once whatever the machine holds."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_a_family_too_large_for_memory_exits_4():
    # the full algebra of the shipped four-point antichain has 2^16 upsets:
    # its product grid alone would take 32 GiB
    got = _run_module("build-dq", data_path(SIX, "structure"),
                      "--cap", "65536", preexec_fn=_limit_address_space)
    assert got.returncode == 4
    assert got.stdout == "" and "Traceback" not in got.stderr
    assert got.stderr.startswith("out of memory: ")


def test_module_entry_point_in_a_real_process(tmp_path):
    ok = _run_module("validate", "D^3_{1,1}")
    assert ok.returncode == 0
    assert ok.stdout.startswith("D^3_{1,1}: valid\n") and ok.stderr == ""
    bad = tmp_path / "digits.dqra"
    bad.write_text("dqra x ³\n")
    failed = _run_module("validate", str(bad))
    assert failed.returncode == 5
    assert failed.stdout == ""
    assert failed.stderr == "parse error: line 1: size must be a positive integer\n"


def test_a_byte_order_mark_is_read_past(tmp_path, capsys):
    text = _read(CATALOGUE[SIX].algebra_file).encode()
    marked = tmp_path / "marked.dqra"
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert main(["validate", str(marked)]) == 0
    assert capsys.readouterr().out.startswith(f"{SIX}: valid\n")
    assert main(["psi-list", str(marked)]) == 0
    assert capsys.readouterr().out.split() == ["1", "a", "b", "top"]
    # a bad byte after the mark is counted from the start of the file
    marked.write_bytes(b"\xef\xbb\xbf\xff" + text)
    assert main(["validate", str(marked)]) == 5
    assert capsys.readouterr().err == (
        f"parse error: line 1: {marked} is not UTF-8 text "
        "(invalid start byte at byte 3)\n")


def test_output_is_utf8_whatever_the_stream_encoding(tmp_path):
    text = _read(CATALOGUE["D^3_{1,1}"].algebra_file)
    cafe = tmp_path / "café.dqra"
    cafe.write_text(text.replace("dqra D^3_{1,1} 3", "dqra café 3"),
                    encoding="utf-8")
    ascii_streams = {"PYTHONIOENCODING": "ascii"}
    ok = _run_module("validate", str(cafe), env=ascii_streams, text=False)
    assert ok.returncode == 0 and ok.stderr == b""
    assert ok.stdout.startswith("café: valid\n".encode())
    # a report on stderr names the file in UTF-8 too
    cafe.write_bytes(b"\xff")
    bad = _run_module("validate", str(cafe), env=ascii_streams, text=False)
    assert bad.returncode == 5 and bad.stdout == b""
    assert bad.stderr == (f"parse error: line 1: {cafe} is not UTF-8 text "
                          "(invalid start byte at byte 0)\n").encode()
