"""The four benchmark workloads: inputs from a seed, items, known answers.

Each workload's set-up builds its inputs from the seed and returns a
`cycle()` function.  A cycle is a fixed list of slots; each slot takes the
next member of one stratum (a seeded permutation of inputs of equal cost),
so the mix of work is fixed and the seed chooses only the members.  Every
cycle repeats the same inputs, as fresh copies.  An item's
`run` is the timed work, its `check` compares the output with a known answer
outside the timed region, and its `shadow` (traced runs only) repeats inner
library calls on their own so that the outer call's self time can be derived
(see spans.py).

Inputs are fresh copies per item, so cached properties never carry over from
one item or cycle to the next.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from dqra import (
    FiniteDqRA,
    RelStructure,
    SearchStatus,
    algebras_isomorphic,
    basic_obstruction,
    contract,
    contraction_obstruction,
    dq_closure,
    find_embedding,
    full_dq_family,
    induced_embedding,
    lneg_minus,
    lneg_tilde,
    load_algebra,
    load_structure,
    neg,
    psi_elements,
    quotient_representation,
    rel_residuals,
    scan_contractions,
    validate_dqra,
    verify_embedding,
)
from dqra.catalogue import CATALOGUE, catalogue_names, data_dir
from dqra.cli import main as cli_main
from dqra.dot import algebra_dot
from dqra.reconstruct import reconstruct_catalogue
from dqra.relations import (
    CapExceededError,
    algebra_from_upsets,
    enumerate_structures,
)
from dqra.textio import (
    ParseError,
    emit_algebra,
    emit_assignment,
    emit_structure,
    parse_algebra,
    parse_assignment,
    parse_structure,
)

from spans import Span, Tracer

# Obstruction census of the shipped catalogue (acceptance criterion 6):
# chains carry a basic obstruction, table parents only a relative one.
CHAIN_NAMES = ("D^3_{1,1}", "D^4_{1,1}", "D^4_{1,2}", "D^5_{1,4}", "D^5_{1,5}")
TABLE_PARENTS = ("D^4_{3,1}", "D^6_{3,2}", "D^6_{3,4}", "D^6_{4,3}",
                 "D^6_{4,4}")
SIX = "D^6_{3,5,2}"
TABLE_ROWS = (
    ("D^4_{3,1}", "top", "D^3_{1,1}"),
    ("D^6_{3,2}", "a", "D^5_{1,4}"),
    ("D^6_{3,4}", "a", "D^5_{1,5}"),
    ("D^6_{4,3}", "top", "D^4_{1,1}"),
    ("D^6_{4,4}", "top", "D^4_{1,2}"),
)
SIX_IDEMPOTENTS = ("1", "a", "b", "top")
SIX_CONTRACTION_SIZES = (6, 3, 3, 2)
SIX_QUOTIENT_CLASSES = (4, 2, 2, 1)

FULLALG_CAP = 256          # the upset cap of acceptance criterion 8a
FULLALG_SMALL = 64         # classes up to here get FULLALG_SMALL_PASSES slots
FULLALG_SMALL_PASSES = 8
KERNEL_ROWS_PER_PAIR = 4
KERNEL_CLOSURE_CLASS = 40  # every generator pair closes to all 40 upsets
SEARCH_HUGE = 1 << 16     # 100 of the 597 labelled 4-point structures
SEARCH_LARGE = 6 ** 5     # 48 more, the only other class costing >= 0.1 s
SEARCH_REST_PER_CYCLE = 4  # pairs with one of the other 449 structures


@dataclass
class Item:
    id: str
    run: Callable[[Tracer], Any]
    # check(output) -> (digest bytes, problems, verdict label)
    check: Callable[[Any], tuple[bytes, list[str], str]]
    shadow: Optional[Callable[[Tracer, Any], None]] = None


@dataclass
class Workload:
    name: str
    input_size: str
    cycle: Callable[[], list[Item]]
    # wall seconds of one untraced cycle, checks included, at the seed
    # commit on a 2-core VM; fixes how many cycles a run makes (worker.py)
    cycle_s: float


# --- helpers -------------------------------------------------------------------


def fresh_structure(S: RelStructure) -> RelStructure:
    return RelStructure(S.n, S.leq, S.E, S.alpha, S.beta, S.labels)


def fresh_algebra(A: FiniteDqRA) -> FiniteDqRA:
    return FiniteDqRA(A.size, A.leq, A.mult, A.tilde, A.minus, A.negn,
                      A.unit, A.labels)


def table_bytes(A: FiniteDqRA) -> bytes:
    """The operation tables as bytes (not `table_key`, which is limited to
    fewer than 256 elements)."""
    head = np.array([A.size, A.unit], dtype="<i8").tobytes()
    return b"".join([head, np.packbits(A.leq).tobytes()] + [
        np.asarray(t, dtype="<i8").tobytes()
        for t in (A.mult, A.tilde, A.minus, A.negn)])


def rel_bytes(R) -> bytes:
    return np.packbits(R.mat).tobytes()


def shuffled(members: list, seed: int, key: str) -> list:
    out = list(members)
    random.Random(f"{seed}:{key}").shuffle(out)
    return out


def draw(strata: dict[str, list], slots: list[str]) -> list[tuple[str, Any]]:
    """The cycle's inputs, in slot order: the j-th slot of a stratum takes
    member j of its permutation (wrapping round)."""
    seen: dict[str, int] = defaultdict(int)
    out = []
    for key in slots:
        members = strata[key]
        out.append((key, members[seen[key] % len(members)]))
        seen[key] += 1
    return out


def structures_by_upsets(tr: Tracer, sizes, cap: int) -> dict[int, list]:
    """Every labelled structure with n in `sizes`, grouped by upset count;
    structures over the cap are left out, as in `sample_structures`."""
    by_count: dict[int, list] = defaultdict(list)
    with tr.span("relations.enumerate_structures") as sp:
        for n in sizes:
            for S in enumerate_structures(n):
                sp.add("structures", 1)
                try:
                    by_count[S.count_upsets(cap)].append(S)
                except CapExceededError:
                    continue
    return by_count


def load_catalogue(tr: Tracer) -> dict[str, FiniteDqRA]:
    with tr.span("catalogue.load"):
        return {name: load_algebra(name) for name in catalogue_names()}


def validate_span(tr: Tracer, A: FiniteDqRA, parent: Optional[Span] = None):
    """Touch the cached lattice tables first, so the validator's span
    excludes them; returns the report."""
    with tr.span("algebra.lattice", parent):
        A.meet_table, A.join_table, A.join_generators
    with tr.span("algebra.validate_dqra", parent) as sp:
        report = validate_dqra(A)
        sp.add("cells", A.size * A.size)
    return report


# --- fullalg ---------------------------------------------------------------------


def setup_fullalg(seed: int, tr: Tracer) -> Workload:
    """Full upset algebras of labelled structures with n <= 4 and at most 256
    upsets (the pool of acceptance criterion 8a), drawn stratified by upset
    count: each cycle visits every class of at most 64 upsets eight times
    and every larger class (70 to 256 upsets) once."""
    pool = structures_by_upsets(tr, (1, 2, 3, 4), FULLALG_CAP)
    strata = {str(k): shuffled(v, seed, f"fullalg:{k}")
              for k, v in pool.items()}
    small = [str(k) for k in sorted(pool) if k <= FULLALG_SMALL]
    slots = small * FULLALG_SMALL_PASSES + [
        str(k) for k in sorted(pool) if k > FULLALG_SMALL]
    inputs = draw(strata, slots)

    def item(j: int, upsets: int, S0: RelStructure) -> Item:
        S = fresh_structure(S0)

        def run(tr: Tracer):
            with tr.span("relations.full_dq_family"):
                fam = full_dq_family(S, cap=FULLALG_CAP)
            A = fam.algebra
            ok = validate_span(tr, A).ok
            rels = fam.relations
            with tr.span("relations.kernel") as sp:
                bad = [i for i, R in enumerate(rels)
                       if not (lneg_tilde(S, R) == rels[int(A.tilde[i])]
                               and lneg_minus(S, R) == rels[int(A.minus[i])]
                               and neg(S, R) == rels[int(A.negn[i])])]
                sp.add("ops", 3 * len(rels))
            return fam, ok, bad

        def check(out) -> tuple[bytes, list[str], str]:
            fam, ok, bad = out
            A = fam.algebra
            problems = []
            if not ok:
                problems.append("full algebra fails validate_dqra")
            if A.size != upsets:
                problems.append(f"size {A.size} != count_upsets {upsets}")
            if bad:
                problems.append(f"negations disagree with tables at {bad[:3]}")
            return (table_bytes(A) + bytes([ok]), problems,
                    "valid" if ok else "invalid")

        def shadow(tr: Tracer, out) -> None:
            fam = out[0]
            outer = tr.last("relations.full_dq_family")
            S2 = fresh_structure(S0)
            with tr.span("relations.enumerate_upsets", outer) as sp:
                sp.add("upsets", len(S2.enumerate_upsets(FULLALG_CAP)))
            m = len(fam.relations)
            with tr.span("relations.algebra_from_upsets", outer) as sp:
                algebra_from_upsets(S2, fam.relations)
                sp.add("cells", m * m + 3 * m)

        return Item(f"fullalg:{j}", run, check, shadow)

    def cycle() -> list[Item]:
        return [item(j, int(k), S) for j, (k, S) in enumerate(inputs)]

    return Workload(
        "fullalg",
        f"{sum(map(len, pool.values()))} structures (n <= 4, <= 256 upsets) "
        f"in {len(pool)} upset-count classes; {len(slots)} items per cycle",
        cycle, cycle_s=5.0)


# --- kernel ----------------------------------------------------------------------


def setup_kernel(seed: int, tr: Tracer) -> Workload:
    """Rows of the exhaustive residuation census over every order/equivalence
    pair from structures with n <= 3 (four rows per pair per cycle, R drawn
    by seed), plus one dq_closure per cycle of a seeded generator pair on a
    4-point structure with 40 upsets."""
    pairs = []
    seen = set()
    with tr.span("relations.enumerate_structures") as sp:
        small = [S for n in (1, 2, 3) for S in enumerate_structures(n)]
        sp.add("structures", len(small))
    for S in small:
        key = (S.leq.key(), S.E.key())
        if key not in seen:     # residuals do not involve alpha or beta
            seen.add(key)
            pairs.append(S)
    census = []
    for S in pairs:
        with tr.span("relations.enumerate_upsets") as sp:
            ups = S.enumerate_upsets(1 << 10)
            sp.add("upsets", len(ups))
        bits = np.array([u.mat.ravel() for u in ups])
        subs = ~np.any(bits[:, None, :] & ~bits[None, :, :], axis=-1)
        index = {u.mat.tobytes(): i for i, u in enumerate(ups)}
        census.append((S, ups, subs, index))

    k = KERNEL_CLOSURE_CLASS
    members = []
    for s, S in enumerate(structures_by_upsets(tr, (4,), k)[k]):
        with tr.span("relations.enumerate_upsets") as sp:
            ups = S.enumerate_upsets(k)
            sp.add("upsets", len(ups))
        members += [(s, S, ups[i], ups[j])
                    for i in range(k) for j in range(i + 1, k)]
    strata = {f"row{p}": shuffled(list(range(len(ups))), seed, f"kernel:row{p}")
              for p, (_, ups, _, _) in enumerate(census)}
    strata["closure"] = shuffled(members, seed, "kernel:closure")
    slots = [f"row{p}" for p in range(len(census))] * KERNEL_ROWS_PER_PAIR
    slots.append("closure")
    inputs = draw(strata, slots)

    def row_item(p: int, i: int) -> Item:
        S, ups, subs, index = census[p]
        R = ups[i]

        def run(tr: Tracer):
            with tr.span("relations.kernel") as sp:
                right = [R.compose(T) for T in ups]
                left = [T.compose(R) for T in ups]
                res = [rel_residuals(S, R, T) for T in ups]
                le = [R <= T for T in ups]
                sp.add("ops", 4 * len(ups))
            return right, left, res, le

        def check(out) -> tuple[bytes, list[str], str]:
            right, left, res, le = out
            try:
                rc = np.array([index[r.mat.tobytes()] for r in right])
                lc = np.array([index[r.mat.tobytes()] for r in left])
                lres = np.array([index[a.mat.tobytes()] for a, _ in res])
                rres = np.array([index[b.mat.tobytes()] for _, b in res])
            except KeyError:
                return b"", ["a product or residual is not an upset"], "fails"
            problems = []
            # R;Q <= T  iff  Q <= R\T,   and   Q;R <= T  iff  Q <= T/R
            if not (subs[rc, :] == subs[:, lres]).all():
                problems.append("left residuation equivalence fails")
            if not (subs[lc, :] == subs[:, rres]).all():
                problems.append("right residuation equivalence fails")
            if not (np.array(le) == subs[i]).all():
                problems.append("<= disagrees with the inclusion oracle")
            digest = b"".join(a.astype("<i8").tobytes()
                              for a in (rc, lc, lres, rres))
            return digest, problems, "fails" if problems else "holds"

        return Item(f"kernel:row{p}:{i}", run, check)

    def closure_item(member) -> Item:
        s, S0, g1, g2 = member
        S = fresh_structure(S0)

        def run(tr: Tracer):
            with tr.span("relations.dq_closure") as sp:
                res = dq_closure(S, [g1, g2])
                sp.add("elements", len(res.relations))
            return res

        def check(res) -> tuple[bytes, list[str], str]:
            problems = []
            if not validate_dqra(fresh_algebra(res.algebra)).ok:
                problems.append("closure fails validate_dqra")
            if g1 not in res.relations or g2 not in res.relations:
                problems.append("closure misses a generator")
            if not all(S0.is_upset(R) for R in res.relations):
                problems.append("closure holds a non-upset")
            digest = table_bytes(res.algebra) + b"".join(
                rel_bytes(R) for R in res.relations)
            return (digest, problems,
                    "closure-invalid" if problems else "closure-valid")

        def shadow(tr: Tracer, res) -> None:
            outer = tr.last("relations.dq_closure")
            m = len(res.relations)
            with tr.span("relations.algebra_from_upsets", outer) as sp:
                algebra_from_upsets(fresh_structure(S0), res.relations)
                sp.add("cells", m * m + 3 * m)

        return Item(f"kernel:closure:{s}", run, check, shadow)

    def cycle() -> list[Item]:
        return [row_item(int(key[3:]), member) if key.startswith("row")
                else closure_item(member) for key, member in inputs]

    return Workload(
        "kernel",
        f"{len(census)} order/equivalence pairs, "
        f"{sum(len(u) for _, u, _, _ in census)} census rows of up to "
        f"{max(len(u) for _, u, _, _ in census)} upsets; closures on 4-point "
        f"structures with {KERNEL_CLOSURE_CLASS} upsets; "
        f"{len(slots)} items per cycle",
        cycle, cycle_s=1.0)


# --- search ----------------------------------------------------------------------


def setup_search(seed: int, tr: Tracer) -> Workload:
    """find_embedding for every catalogue algebra over every structure with
    n <= 3 (605 searches), six seeded (algebra, n = 4 structure) pairs per
    cycle, and the positive search of D^6_{3,5,2} into its shipped
    structure.

    The n = 4 pairs are stratified by cost, so that what a seed draws does
    not decide a run's throughput: one obstructed algebra against one of
    the 100 structures with 2^16 upsets (about 1.1 s), one algebra against
    one of the 48 with 7776 upsets (about 0.1 s), and four against the
    other 449 (a few ms each).  D^6_{3,5,2} is left out of the 2^16 draw:
    there it searches some 500 nodes in about 2.7 s, so the 1-in-11 chance
    of drawing it would move a run's throughput by a quarter; its large
    search is the positive one.  Every algebra against each of six n = 4
    structures would hold 11 searches over 2^16 upsets, about 14 s per
    cycle: too slow for several cycles in a run."""
    algebras = load_catalogue(tr)
    names = list(algebras)
    by_count = structures_by_upsets(tr, (1, 2, 3), 1 << 20)
    small = [S for k in sorted(by_count) for S in by_count[k]]
    four = structures_by_upsets(tr, (4,), 1 << 20)
    huge = four.pop(SEARCH_HUGE)
    large = four.pop(SEARCH_LARGE)
    rest = [S for k in sorted(four) for S in four[k]]
    with tr.span("catalogue.load"):
        shipped = load_structure(SIX)

    obstructed = set(CHAIN_NAMES) | set(TABLE_PARENTS)

    def cross(structs, algebras=names):
        return [(a, s, S) for a in algebras for s, S in enumerate(structs)]

    strata = {
        "small": shuffled(cross(small), seed, "search:small"),
        "huge": shuffled(cross(huge, [a for a in names if a in obstructed]),
                         seed, "search:huge"),
        "large": shuffled(cross(large), seed, "search:large"),
        "rest": shuffled(cross(rest), seed, "search:rest"),
        "positive": [(SIX, "shipped", shipped)],
    }
    slots = (["small"] * len(strata["small"]) + ["huge", "large"]
             + ["rest"] * SEARCH_REST_PER_CYCLE + ["positive"])
    inputs = draw(strata, slots)

    def item(key: str, member) -> Item:
        name, s, S0 = member
        A = fresh_algebra(algebras[name])
        S = fresh_structure(S0)

        def run(tr: Tracer):
            with tr.span("representation.find_embedding") as sp:
                r = find_embedding(A, S)
                sp.add("searches", 1)
                sp.add("nodes", r.nodes)
                sp.add("found", r.found)
            return r

        def check(r) -> tuple[bytes, list[str], str]:
            problems = []
            if name in obstructed and r.status is not SearchStatus.NOT_FOUND:
                problems.append(f"{name} is obstructed but gave {r.status}")
            if key == "positive" and not r.found:
                problems.append(f"{SIX} not found on its shipped structure")
            if r.found and not verify_embedding(r.embedding).ok:
                problems.append("found embedding fails verify_embedding")
            digest = r.status.value.encode()
            if r.found:
                digest += b"".join(rel_bytes(R) for R in r.embedding.assignment)
            group = ("obstructed" if name in obstructed
                     else "positive" if key == "positive" else name)
            return digest, problems, f"{group}:{r.status.value}"

        def shadow(tr: Tracer, r) -> None:
            outer = tr.last("representation.find_embedding")
            with tr.span("relations.enumerate_upsets", outer) as sp:
                ups = fresh_structure(S0).enumerate_upsets(1 << 16)
                sp.add("upsets", len(ups))
                sp.add("candidates", len(ups))

        return Item(f"search:{key}:{name}:{S0.n}:{s}", run, check, shadow)

    def cycle() -> list[Item]:
        return [item(key, m) for key, m in inputs]

    return Workload(
        "search",
        f"{len(names)} algebras x {len(small)} structures with n <= 3; "
        f"6 seeded (algebra, n = 4 structure) pairs: 1 obstructed algebra x "
        f"{len(huge)} structures with 2^16 upsets, 1 algebra x {len(large)} "
        f"with {SEARCH_LARGE}, {SEARCH_REST_PER_CYCLE} algebras x "
        f"{len(rest)} others; 1 positive search; {len(slots)} items per cycle",
        cycle, cycle_s=4.0)


# --- catalogue -------------------------------------------------------------------


def setup_catalogue(seed: int, tr: Tracer, workdir: Path) -> Workload:
    """In-process CLI calls over every catalogue entry, three truncated
    files (exit 5), the contraction/target isomorphism rows and
    reconstruct_catalogue(); every cycle runs each item twice, in two
    orders shuffled by seed."""
    algebras = load_catalogue(tr)
    data = data_dir()
    entry = CATALOGUE[SIX]
    struct_path = str(data / entry.structure_file)
    assign_path = str(data / entry.assignment_file)

    calls: list[tuple[str, list[str]]] = []
    for name, A in algebras.items():
        calls += [("validate", ["validate", name]),
                  ("psi-list", ["psi-list", name]),
                  ("scan", ["scan-contractions", name]),
                  ("nonfinrep", ["check-nonfinrep", name]),
                  ("dot", ["dot", name])]
        calls += [("contract", ["contract", name, "-p", A.labels[p]])
                  for p in psi_elements(A)]
    calls.append(("verify", ["verify-embedding", SIX, struct_path,
                             assign_path]))
    calls += [("quotient", ["quotient", SIX, struct_path, assign_path,
                            "-p", p, "--embedding-output", "-",
                            "--contraction-output", "-"])
              for p in SIX_IDEMPOTENTS]

    # truncated copies of seeded catalogue files, cut before the unit line
    rng = random.Random(f"{seed}:catalogue:truncate")
    workdir.mkdir(parents=True, exist_ok=True)
    for k in range(3):
        name = rng.choice(sorted(algebras))
        lines = (data / CATALOGUE[name].algebra_file).read_text().splitlines(
            keepends=True)
        unit_line = next(i for i, l in enumerate(lines) if l.startswith("unit"))
        path = workdir / f"truncated{k}.dqra"
        path.write_text("".join(lines[:rng.randrange(1, unit_line + 1)]))
        calls.append(("truncated", ["validate", str(path)]))

    def cli_item(kind: str, argv: list[str]) -> Item:
        def run(tr: Tracer):
            out, err = io.StringIO(), io.StringIO()
            with tr.span("cli.main") as sp, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli_main(argv)
                sp.add("calls", 1)
            return rc, out.getvalue(), err.getvalue()

        def check(res) -> tuple[bytes, list[str], str]:
            rc, out, err = res
            verdict = f"{kind}:exit{rc}"
            if kind == "nonfinrep":
                verdict += ":" + out.strip().split(",")[0]
            return (f"{rc}\n{out}\n{err}".encode(),
                    cli_problems(kind, argv, rc, out), verdict)

        def shadow(tr: Tracer, res) -> None:
            cli_shadow(tr, tr.last("cli.main"), kind, argv)

        return Item(f"catalogue:{' '.join(argv[:2])}", run, check, shadow)

    def iso_item(row) -> Item:
        parent_name, p_lbl, target_name = row
        parent = fresh_algebra(algebras[parent_name])
        target = fresh_algebra(algebras[target_name])

        def run(tr: Tracer):
            with tr.span("contraction.contract") as sp:
                con = contract(parent, parent.index_of(p_lbl))
                sp.add("contractions", 1)
            with tr.span("isomorphism.algebras_isomorphic") as sp:
                iso = algebras_isomorphic(con.algebra, target)
                sp.add("calls", 1)
            return con, iso

        def check(res) -> tuple[bytes, list[str], str]:
            con, iso = res
            problems = [] if iso else [
                f"{parent_name} at {p_lbl} is not {target_name}"]
            return (table_bytes(con.algebra) + bytes([iso]), problems,
                    f"iso:{iso}")

        def shadow(tr: Tracer, res) -> None:
            # contract validates its result: repeat that on a cold copy
            validate_span(tr, fresh_algebra(res[0].algebra),
                          tr.last("contraction.contract"))

        return Item(f"catalogue:iso {parent_name}", run, check, shadow)

    def reconstruct_item() -> Item:
        def run(tr: Tracer):
            with tr.span("reconstruct.reconstruct_catalogue"):
                return reconstruct_catalogue()

        def check(outcomes) -> tuple[bytes, list[str], str]:
            problems = []
            digest = b""
            for name, outcome in sorted(outcomes.items()):
                if outcome.status != "unique":
                    problems.append(f"{name} reconstruction is {outcome.status}")
                    continue
                if table_bytes(outcome.algebra) != table_bytes(algebras[name]):
                    problems.append(f"{name} reconstruction differs from data")
                digest += table_bytes(outcome.algebra)
            return digest, problems, f"reconstruct:{len(problems)} problems"

        return Item("catalogue:reconstruct", run, check)

    makers = ([partial(cli_item, *call) for call in calls]
              + [partial(iso_item, row) for row in TABLE_ROWS]
              + [reconstruct_item])
    order = (shuffled(list(range(len(makers))), seed, "catalogue:order0")
             + shuffled(list(range(len(makers))), seed, "catalogue:order1"))

    def cycle() -> list[Item]:
        return [makers[k]() for k in order]

    return Workload(
        "catalogue",
        f"{len(algebras)} catalogue algebras: {len(calls)} CLI calls, "
        f"{len(TABLE_ROWS)} isomorphism rows, 1 reconstruction; "
        f"{len(order)} items per cycle",
        cycle, cycle_s=0.8)


def expected_verdict(name: str) -> str:
    if name in CHAIN_NAMES:
        return "not-finrep(basic,"
    if name in TABLE_PARENTS:
        return "not-finrep(contraction,"
    return "finrep-unknown"


def cli_problems(kind: str, argv: list[str], rc: int, out: str) -> list[str]:
    """Known answers for one CLI call."""
    want_rc = 5 if kind == "truncated" else 0
    if rc != want_rc:
        return [f"{' '.join(argv)}: exit {rc}, expected {want_rc}"]
    name = argv[1]
    if kind == "nonfinrep" and not out.startswith(expected_verdict(name)):
        return [f"{name}: verdict {out.strip()!r}, expected "
                f"{expected_verdict(name)!r}"]
    if kind == "scan":
        flagged = "basic witness" in out
        if flagged != (name in CHAIN_NAMES or name in TABLE_PARENTS):
            return [f"{name}: contraction scan flagged={flagged}"]
    if kind == "verify" and "valid embedding" not in out:
        return [f"{name}: shipped embedding does not verify"]
    if name == SIX and kind in ("contract", "quotient"):
        k = SIX_IDEMPOTENTS.index(argv[argv.index("-p") + 1])
        header = "dqra" if kind == "contract" else "struct"
        size = next(int(l.split()[2]) for l in out.splitlines()
                    if l.startswith(header + " "))
        want = (SIX_CONTRACTION_SIZES if kind == "contract"
                else SIX_QUOTIENT_CLASSES)[k]
        if size != want:
            return [f"{' '.join(argv[:5])}: size {size}, expected {want}"]
    return []


def emit_span(tr: Tracer, outer: Span, fn, *args) -> None:
    with tr.span("textio.emit", outer) as sp:
        sp.add("bytes", len(fn(*args)))


def contract_span(tr: Tracer, outer: Span, A: FiniteDqRA, p: int) -> None:
    """contract, its inner validation repeated on a cold copy, and the
    emission of the contraction."""
    with tr.span("contraction.contract", outer) as sp:
        c = contract(A, p)
        sp.add("contractions", 1)
    validate_span(tr, fresh_algebra(c.algebra), tr.last("contraction.contract"))
    emit_span(tr, outer, emit_algebra, "contraction", c.algebra)


def cli_shadow(tr: Tracer, outer: Span, kind: str, argv: list[str]) -> None:
    """Repeat the library calls a CLI subcommand makes, each in its layer's
    span under the `cli.main` span, so cli.main keeps only its own time."""

    def read(path: str) -> str:
        if path in CATALOGUE:
            return (data_dir() / CATALOGUE[path].algebra_file).read_text()
        return Path(path).read_text()

    def parse(fn, text, *args):
        with tr.span("textio.parse", outer) as sp:
            sp.add("bytes", len(text))
            return fn(text, *args)[1]

    if kind == "truncated":
        with contextlib.suppress(ParseError):
            parse(parse_algebra, read(argv[1]))
        return
    A = parse(parse_algebra, read(argv[1]))
    if kind in ("validate", "nonfinrep"):
        validate_span(tr, A, outer)
    if kind == "psi-list":
        with tr.span("contraction.contract", outer):
            psi_elements(A)
    elif kind == "contract":
        contract_span(tr, outer, A, A.index_of(argv[3]))
    elif kind == "scan":
        with tr.span("nonfinrep.scan", outer):
            scan_contractions(A)
    elif kind == "nonfinrep":
        with tr.span("nonfinrep.scan", outer):
            basic_obstruction(A) or contraction_obstruction(A)
    elif kind == "dot":
        emit_span(tr, outer, algebra_dot, argv[1], A)
    elif kind in ("verify", "quotient"):
        S = parse(parse_structure, read(argv[2]))
        e = parse(parse_assignment, read(argv[3]), A, S)
        if kind == "verify":
            with tr.span("representation.verify_embedding", outer) as sp:
                verify_embedding(e)
                sp.add("verifies", 1)
            return
        p = A.index_of(argv[5])
        with tr.span("representation.quotient", outer):
            q = quotient_representation(e, p)
        emit_span(tr, outer, emit_structure, argv[1], q.quotient)
        with tr.span("representation.quotient", outer):
            psi = induced_embedding(e, p)
        emit_span(tr, outer, emit_assignment, argv[1], psi)
        contract_span(tr, outer, A, p)


SETUPS = {
    "fullalg": setup_fullalg,
    "kernel": setup_kernel,
    "search": setup_search,
    "catalogue": setup_catalogue,
}
