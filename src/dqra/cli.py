"""Command-line surface.

Exit codes: 0 success, 2 usage error, 3 validation failure (including broken
preconditions), 4 search failure (nothing found, budget or cap exceeded),
5 input/output or parse failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from .algebra import (FiniteDqRA, LawViolationError, MalformedAlgebraError,
                      NotACountError, NotAnElementError, ValidationReport,
                      _count as _count_rule, validate_dqra)
from .catalogue import CATALOGUE, _read as _read_data
from .contraction import NotPsiError, contract, psi_elements
from .dot import algebra_dot, structure_dot
from .nonfinrep import basic_obstruction, contraction_obstruction, scan_contractions
from .relations import (
    CapExceededError,
    CarrierMismatchError,
    NotAnUpsetError,
    RelStructure,
    dq_closure,
    enumerate_structures,
    full_dq,
    validate_structure,
)
from .representation import (
    SearchStatus,
    _induced_embedding,
    find_embedding,
    quotient_representation,
    verify_embedding,
)
from .textio import (
    ParseError,
    _emit_pair_set,
    _index,
    emit_algebra,
    emit_assignment,
    emit_structure,
    parse_algebra,
    parse_assignment,
    parse_relation_list,
    parse_structure,
)

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_SEARCH = 4
EXIT_IO = 5


def _read(path: str) -> str:
    if path in CATALOGUE:
        # catalogue names double as file arguments for convenience
        return _read_data(CATALOGUE[path].algebra_file)
    return Path(path).read_text()


def _write(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _load_either(path: str) -> tuple[str, FiniteDqRA | RelStructure]:
    """An algebra or a structure file, told apart by its first token."""
    text = _read(path)
    bodies = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    kind = next((body[0] for body in bodies if body), "")
    if kind == "dqra":
        return parse_algebra(text)
    if kind == "struct":
        return parse_structure(text)
    raise ParseError(f"unrecognised header token {kind!r}", 1)


def _count(text: str, least: int = 0) -> int:
    """An int option under the library's count rule (`algebra._count`);
    other text fails as under type=int."""
    try:
        return _count_rule(int(text), "", least)
    except NotACountError as exc:
        raise argparse.ArgumentTypeError(str(exc).lstrip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _elt(A: FiniteDqRA, token: str) -> int:
    if token in A.labels:
        return A.index_of(token)
    v = _index(token)
    if v is not None and v < A.size:
        return v
    raise KeyError(f"no element {token!r} in the algebra")


# --- command handlers ---------------------------------------------------------


def cmd_validate(args) -> int:
    name, X = _load_either(args.file)
    report = (validate_dqra(X) if isinstance(X, FiniteDqRA)
              else validate_structure(X))
    print(f"{name}: {'valid' if report.ok else 'INVALID'}")
    print(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_psi_list(args) -> int:
    _, A = parse_algebra(_read(args.file))
    validate_dqra(A).raise_if_failed("algebra does not validate")
    for p in psi_elements(A):
        print(A.labels[p])
    return EXIT_OK


def cmd_contract(args) -> int:
    name, A = parse_algebra(_read(args.file))
    p = _elt(A, args.p)
    c = contract(A, p)
    inclusion = ", ".join(
        f"{c.algebra.labels[k]} -> {A.labels[x]}" for k, x in enumerate(c.members))
    comments = [
        f"contraction of {name} at p={A.labels[p]}",
        f"inclusion map: {inclusion}",
    ]
    _write(emit_algebra(f"{name}_contraction_{A.labels[p]}", c.algebra, comments),
           args.output)
    return EXIT_OK


def _invalid(report: ValidationReport) -> bool:
    """Print an input's first failing check, if any, as invalid input."""
    if not report.ok:
        print(f"invalid input: {report.failures[0]}", file=sys.stderr)
    return not report.ok


def cmd_build_dq(args) -> int:
    name, S = parse_structure(_read(args.file))
    if _invalid(validate_structure(S)):
        return EXIT_VALIDATION
    A = full_dq(S, cap=args.cap)
    _write(emit_algebra(f"Dq_{name}", A,
                        [f"full upset algebra of {name} ({A.size} elements)"]),
           args.output)
    return EXIT_OK


def cmd_closure(args) -> int:
    sname, S = parse_structure(_read(args.structure))
    if _invalid(validate_structure(S)):
        return EXIT_VALIDATION
    gname, named = parse_relation_list(_read(args.generators), S)
    gens = [rel for _, rel, _ in named]
    result = dq_closure(S, gens, cap=args.cap)
    comments = [f"closure of {len(gens)} generator(s) from {gname} over {sname}"]
    for i, rel in enumerate(result.relations):
        comments.append(
            f"element {result.algebra.labels[i]} = {_emit_pair_set(rel, S)}")
    _write(emit_algebra(f"closure_{gname}", result.algebra, comments),
           args.output)
    return EXIT_OK


def cmd_verify_embedding(args) -> int:
    aname, A = parse_algebra(_read(args.algebra))
    _, S = parse_structure(_read(args.structure))
    ename, e = parse_assignment(_read(args.assignment), A, S)
    report = verify_embedding(e)
    print(f"{ename}: {'valid embedding' if report.ok else 'NOT an embedding'}")
    print(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_find_embedding(args) -> int:
    aname, A = parse_algebra(_read(args.algebra))
    if (args.structure is None) == (args.max_size is None):
        both = "" if args.structure is None else ", not both"
        print(f"find-embedding: give a structure file or --max-size{both}",
              file=sys.stderr)
        return 2
    if _invalid(validate_dqra(A)):
        return EXIT_VALIDATION
    if args.structure is not None:
        _, S = parse_structure(_read(args.structure))
        if _invalid(validate_structure(S)):
            return EXIT_VALIDATION
        result = find_embedding(A, S, budget=args.budget,
                                upset_cap=args.upset_cap)
        if result.found:
            _write(emit_assignment(
                f"{aname}_embedding", result.embedding,
                [f"found after {result.nodes} nodes"]), args.output)
            return EXIT_OK
        print(f"{result.status.value} after {result.nodes} nodes")
        return EXIT_SEARCH
    # exhaustive mode over every structure up to --max-size
    tried = 0
    budget_hit = False
    for n in range(1, args.max_size + 1):
        for S in enumerate_structures(n):
            tried += 1
            result = find_embedding(A, S, budget=args.budget,
                                    upset_cap=args.upset_cap)
            if result.found:
                print(f"found over a structure with {n} point(s) "
                      f"after {tried} structure(s)")
                if args.structure_output:
                    _write(emit_structure(f"{aname}_structure", S),
                           args.structure_output)
                if args.output:
                    _write(emit_assignment(f"{aname}_embedding",
                                           result.embedding), args.output)
                return EXIT_OK
            if result.status is SearchStatus.BUDGET_EXHAUSTED:
                budget_hit = True
    if budget_hit:
        print(f"budget-exhausted on some of the {tried} structure(s)")
    else:
        print(f"not-found-definitive over all {tried} structure(s) "
              f"with at most {args.max_size} point(s)")
    return EXIT_SEARCH


def cmd_quotient(args) -> int:
    aname, A = parse_algebra(_read(args.algebra))
    _, S = parse_structure(_read(args.structure))
    _, e = parse_assignment(_read(args.assignment), A, S)
    p = _elt(A, args.p)
    q = quotient_representation(e, p)
    classes = ", ".join(
        f"{S.labels[x]} -> {q.quotient.labels[q.class_map[x]]}"
        for x in range(S.n))
    _write(emit_structure(
        f"{aname}_quotient_{A.labels[p]}", q.quotient,
        [f"quotient of the representation of {aname} at p={A.labels[p]}",
         f"class map: {classes}"]), args.output)
    psi = None
    if args.embedding_output:
        psi = _induced_embedding(e, p, q)
        _write(emit_assignment(
            f"{aname}_induced_{A.labels[p]}", psi,
            ["induced embedding of the contraction into the quotient"]),
            args.embedding_output)
    if args.contraction_output:
        # the induced embedding's algebra is the contraction at p
        sub = contract(A, p).algebra if psi is None else psi.algebra
        _write(emit_algebra(f"{aname}_contraction_{A.labels[p]}", sub),
               args.contraction_output)
    return EXIT_OK


def cmd_check_nonfinrep(args) -> int:
    name, A = parse_algebra(_read(args.file))
    report = validate_dqra(A)
    if not report.ok:
        print("input algebra is invalid", file=sys.stderr)
        print(report, file=sys.stderr)
        return EXIT_VALIDATION
    basic = basic_obstruction(A)
    if basic is not None:
        print(f"not-finrep(basic, {A.labels[basic.b]})")
        return EXIT_OK
    relative = contraction_obstruction(A)
    if relative is not None:
        print(f"not-finrep(contraction, p={A.labels[relative.p]}, "
              f"b={A.labels[relative.b]})")
        return EXIT_OK
    print("finrep-unknown")
    return EXIT_OK


def cmd_scan_contractions(args) -> int:
    name, A = parse_algebra(_read(args.file))
    scan = scan_contractions(A)
    print(scan)
    return EXIT_OK


def cmd_dot(args) -> int:
    name, X = _load_either(args.file)
    dot = algebra_dot if isinstance(X, FiniteDqRA) else structure_dot
    _write(dot(name, X), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call:
    parsing keeps no state in it (no append actions, no mutable
    defaults)."""
    parser = argparse.ArgumentParser(
        prog="dqra",
        description="computing with finite distributive quasi relation algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every law of an algebra or structure file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("psi-list", help="list positive symmetric idempotents")
    p.add_argument("file")
    p.set_defaults(fn=cmd_psi_list)

    p = sub.add_parser("contract", help="emit the contraction at an idempotent")
    p.add_argument("file")
    p.add_argument("-p", required=True, help="element label or index")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("build-dq", help="emit the full upset algebra of a structure")
    p.add_argument("file")
    p.add_argument("--cap", type=_count, default=4096)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_build_dq)

    p = sub.add_parser("closure", help="close generator relations under all operations")
    p.add_argument("structure")
    p.add_argument("generators", help="assign-format file of generator relations")
    p.add_argument("--cap", type=_count, default=4096)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("verify-embedding", help="verify an assignment file as an embedding")
    p.add_argument("algebra")
    p.add_argument("structure")
    p.add_argument("assignment")
    p.set_defaults(fn=cmd_verify_embedding)

    p = sub.add_parser("find-embedding", help="search for an embedding")
    p.add_argument("algebra")
    p.add_argument("structure", nargs="?", default=None)
    p.add_argument("--max-size", type=functools.partial(_count, least=1),
                   default=None,
                   help="search every structure with at most this many points")
    p.add_argument("--budget", type=_count, default=200_000)
    p.add_argument("--upset-cap", type=_count, default=1 << 16)
    p.add_argument("--output", default=None)
    p.add_argument("--structure-output", default=None)
    p.set_defaults(fn=cmd_find_embedding)

    p = sub.add_parser("quotient", help="quotient a representation at an idempotent")
    p.add_argument("algebra")
    p.add_argument("structure")
    p.add_argument("assignment")
    p.add_argument("-p", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--embedding-output", default=None)
    p.add_argument("--contraction-output", default=None)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("check-nonfinrep",
                       help="machine-readable non-finite-representability verdict")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check_nonfinrep)

    p = sub.add_parser("scan-contractions",
                       help="run the basic obstruction inside every contraction")
    p.add_argument("file")
    p.set_defaults(fn=cmd_scan_contractions)

    p = sub.add_parser("dot", help="emit a DOT diagram for an algebra or structure")
    p.add_argument("file")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except (MalformedAlgebraError, LawViolationError, NotPsiError,
            NotAnElementError, NotAnUpsetError, CarrierMismatchError,
            KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
