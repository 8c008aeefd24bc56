"""Command-line behaviour: outputs, formats, exit codes."""

import pytest

from dqra import CATALOGUE, load_algebra, validate_dqra
from dqra.catalogue import _read, data_dir
from dqra.cli import main
from dqra.textio import parse_algebra, parse_assignment, parse_structure


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


def test_build_dq_cap_checked_on_a_wide_pair_poset(tmp_path, capsys):
    # 32-point antichain with full E: 1024 incomparable pairs, 2^1024 upsets
    n = 32
    rows = ["".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
    ident = " ".join(map(str, range(n)))
    struct = tmp_path / "wide.struct"
    struct.write_text("\n".join([f"struct wide {n}", "leq", *rows, "E",
                                 *["1" * n] * n, f"alpha {ident}",
                                 f"beta {ident}"]) + "\n")
    assert main(["build-dq", str(struct), "--cap", "4096"]) == 4
    err = capsys.readouterr().err
    assert "cap exceeded" in err and "Traceback" not in err


INVALID_STRUCTURES = [
    # alpha swaps the points of a chain: no order automorphism
    ("struct swap 2\nleq\n11\n01\nE\n11\n11\nalpha 1 0\nbeta 0 1\n",
     "alpha-order-automorphism"),
    # E is not transitive
    ("struct loose 3\nleq\n100\n010\n001\nE\n110\n111\n011\n"
     "alpha 0 1 2\nbeta 0 1 2\n", "E-transitive"),
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


def test_find_embedding_not_found(tmp_path, capsys):
    assert main(["find-embedding", data_path("D^3_{1,1}"),
                 "--max-size", "2"]) == 4
    assert "not-found-definitive" in capsys.readouterr().out


def test_find_embedding_requires_target(capsys):
    assert main(["find-embedding", data_path(SIX)]) == 2


def test_find_embedding_refutes_d3_over_four_points(capsys):
    # acceptance criterion 7 one size up: every structure with n <= 4
    assert main(["find-embedding", data_path("D^3_{1,1}"),
                 "--max-size", "4"]) == 4
    assert capsys.readouterr().out == (
        "not-found-definitive over all 652 structure(s) "
        "with at most 4 point(s)\n")


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


@pytest.mark.parametrize("name,expected", [
    ("D^3_{1,1}", "not-finrep(basic, a)"),
    ("D^4_{3,1}", "not-finrep(contraction, p=top, b=a)"),
    ("D^6_{3,5,2}", "finrep-unknown"),
])
def test_check_nonfinrep_verdicts(capsys, name, expected):
    assert main(["check-nonfinrep", data_path(name)]) == 0
    assert capsys.readouterr().out.strip() == expected


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
