"""Cross-validation of the vectorized table layer against naive versions.

`algebra_from_upsets` computes every cell with the int kernel broadcast over
the family and maps it to its index through one dictionary keyed on relation
ints; `verify_embedding` compares tables computed the same way with the
algebra's; `join_generators` reads the elements with at most one lower
cover off the sizes of the down-sets of the order.  The references below
take each cell from numpy matrix formulas and a dictionary keyed on packed
bytes, check an embedding pair by pair through the checked negations, and
test join-irreducibility literally, over all pairs.
"""

import numpy as np
import pytest

from typing import Optional

from dqra import (BinRel, CarrierMismatchError, Embedding, FiniteDqRA,
                  LawViolationError, RelStructure, dq_closure, full_dq_family,
                  lneg_minus, lneg_tilde, neg, validate_dqra,
                  validate_structure, verify_embedding)
from dqra.algebra import LawCheck, ValidationReport, lattice_tables
from dqra.relations import (_family_tables, algebra_from_upsets,
                            enumerate_structures)

from conftest import ALL_NAMES, block_structure


def naive_tables(S: RelStructure, rels) -> tuple[np.ndarray, ...]:
    """(leq, mult, tilde, minus, negn, unit), one dictionary lookup per
    cell."""
    rels = list(rels)
    m, n = len(rels), S.n
    stack = np.stack([r.mat for r in rels]).astype(np.uint8)
    keys = {np.packbits(stack[i] > 0).tobytes(): i for i in range(m)}

    def index_of(mats: np.ndarray) -> np.ndarray:
        flat = mats.reshape(-1, n, n)
        out = np.empty(flat.shape[0], dtype=np.int64)
        for k in range(flat.shape[0]):
            got = keys.get(np.packbits(flat[k] > 0).tobytes())
            if got is None:
                raise ValueError("family is not closed under the operations")
            out[k] = got
        return out.reshape(mats.shape[:-2])

    bits = stack.reshape(m, n * n).astype(bool)
    leq = ~np.any(bits[:, None, :] & ~bits[None, :, :], axis=-1)
    mult = index_of((stack[:, None] @ stack[None, :]) > 0)
    a, ainv, b = np.array(S.alpha), np.argsort(S.alpha), np.array(S.beta)
    compl = S.E.mat[None, :, :] & ~(stack > 0)
    conv = compl.transpose(0, 2, 1)
    return (leq, mult, index_of(conv[:, :, ainv]), index_of(conv[:, a, :]),
            index_of(compl[:, b[a], :][:, :, b]), rels.index(S.leq))


def assert_same_tables(A: FiniteDqRA, ref: tuple) -> None:
    for name, want in zip(("leq", "mult", "tilde", "minus", "negn"), ref):
        assert np.array_equal(getattr(A, name), want), name
    assert A.unit == ref[5]


def literal_join_generators(A: FiniteDqRA) -> tuple[int, ...]:
    """Elements that are not the join of two other elements, plus the bottom."""
    n = A.size
    jt = A.join_table.tolist()
    return tuple(
        a for a in range(n)
        if a == A.bottom or not any(
            jt[b][c] == a
            for b in range(n) for c in range(n)
            if b != a and c != a and jt[b][c] >= 0))


@pytest.fixture(scope="module")
def by_upsets() -> dict[int, RelStructure]:
    """First labelled structure with n <= 4 of each upset count <= 256 (the
    18 classes of the acceptance 8a pool)."""
    first: dict[int, RelStructure] = {}
    for n in (1, 2, 3, 4):
        for S in enumerate_structures(n):
            k = S.count_upsets(1 << 20)
            if k <= 256:
                first.setdefault(k, S)
    return first


@pytest.fixture(scope="module")
def full_families(by_upsets):
    return {k: full_dq_family(S, cap=256) for k, S in by_upsets.items()}


def test_pool_has_eighteen_upset_classes(by_upsets):
    assert len(by_upsets) == 18
    assert {70, 168, 256} <= set(by_upsets)


def test_full_algebra_tables_match_oracle(by_upsets, full_families):
    for k, S in by_upsets.items():
        fam = full_families[k]
        assert fam.algebra.size == k
        assert_same_tables(fam.algebra, naive_tables(S, fam.relations))


def test_closure_tables_match_oracle(example_structure, example_generators):
    res = dq_closure(example_structure, list(example_generators))
    assert_same_tables(res.algebra,
                       naive_tables(example_structure, res.relations))


def test_unclosed_family_raises(full_families):
    rels = list(full_families[70].relations)
    for drop in (0, 2, len(rels) - 1):  # empty relation, first and last upset
        family = rels[:drop] + rels[drop + 1:]
        with pytest.raises(ValueError, match="not closed under the operations"):
            naive_tables(full_families[70].structure, family)
        with pytest.raises(ValueError, match="not closed under the operations"):
            algebra_from_upsets(full_families[70].structure, family)


def test_duplicated_relation_is_refused(full_families):
    # a family of upsets is a set: a repeat names its first two positions
    fam = full_families[96]
    S, rels = fam.structure, list(fam.relations)
    for dup in (0, 1, 5, len(rels) - 1):
        for family, i in ((rels + [rels[dup]], len(rels)),
                          (rels[:dup + 1] + rels[dup:], dup + 1)):
            with pytest.raises(ValueError, match=(
                    f"lists a relation twice, at positions {dup} and {i}$")):
                algebra_from_upsets(S, family)


def test_keys_wider_than_a_machine_word():
    # 9 points: each relation packs to 81 bits
    S = RelStructure(9, BinRel.identity(9), BinRel.identity(9),
                     tuple(range(9)), tuple(range(9)))
    res = dq_closure(S, [BinRel.from_pairs(9, [(0, 0), (4, 4)])])
    assert res.algebra.size == 4
    assert_same_tables(res.algebra, naive_tables(S, res.relations))


@pytest.mark.parametrize("n, dtype", [(4, np.int64), (7, np.int64),
                                      (8, object)])
def test_keys_on_both_sides_of_a_machine_word(n, dtype):
    # 4 points: 16-bit relations, resolved through a table over all of
    # them; 7 points: 49-bit relations in an int64 column, resolved by
    # binary search; 8 points: 64-bit relations, past int64, in an object
    # column
    S = block_structure(n)
    res = dq_closure(S, [BinRel.from_pairs(n, [(0, 1), (3, 3)])])
    rels = list(res.relations)
    assert res.algebra.size == 64
    assert _family_tables(S, [r.bits for r in rels])[0].dtype == dtype
    assert_same_tables(res.algebra, naive_tables(S, rels))
    assert_lattice_tables_handed_over(S, rels)
    assert verify_embedding(Embedding(res.algebra, S, res.relations)).ok
    for dup in (0, 7, len(rels) - 1):
        with pytest.raises(ValueError, match="lists a relation twice"):
            algebra_from_upsets(S, rels + [rels[dup]])
    with pytest.raises(ValueError, match="not closed under the operations"):
        algebra_from_upsets(S, rels[:5] + rels[6:])


@pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8])
def test_family_index_with_misses(n):
    """Every product, intersection, union and negation of a family of
    distinct relations that is not closed, resolved on each path (a table
    over all relations for n <= 4, binary search for 5 <= n <= 7, a
    dictionary beyond), against a dictionary built in family order: -1
    outside the family."""
    S = block_structure(n) if n > 1 else RelStructure(
        1, BinRel.identity(1), BinRel.identity(1), (0,), (0,))
    cells = [1 << p for p in range(n * n) if S.E.bits >> p & 1]
    rng = np.random.default_rng(n)
    ups = [sum(c for c, keep in zip(cells, row) if keep)
           for row in rng.integers(0, 2, (12, len(cells)))]
    # without the empty relation, so on one point too a negation misses
    bits = list(dict.fromkeys([S.leq.bits] + [r for r in ups if r]))
    index = {r: i for i, r in enumerate(bits)}
    rels = [BinRel(n, r) for r in bits]
    col, (product, meet, join), unary = _family_tables(S, bits)
    for got, op in ((product, BinRel.compose), (meet, BinRel.intersection),
                    (join, BinRel.union)):
        assert got.tolist() == [[index.get(op(r, t).bits, -1) for t in rels]
                                for r in rels]
    for got, op in zip(unary, (lneg_tilde, lneg_minus, neg)):
        assert got.tolist() == [index.get(op(S, r).bits, -1) for r in rels]
    # r & r = r: each relation reads as its own index
    assert meet.diagonal().tolist() == list(range(len(bits)))
    assert min(t.min() for t in unary) < 0     # misses
    if n > 1:
        assert (product < 0).any() and (meet < 0).any()


def assert_lattice_tables_handed_over(S: RelStructure, rels) -> None:
    """The algebra of a family without repeats, closed under intersection
    and union, holds meet and join tables from its construction on, and
    they are the ones derived from its order."""
    A = algebra_from_upsets(S, rels)
    assert "_lattice_tables" in vars(A)
    meet, join = lattice_tables(A.leq)
    assert np.array_equal(A.meet_table, meet)
    assert np.array_equal(A.join_table, join)


def test_full_algebra_lattice_tables_are_handed_over(full_families):
    for fam in full_families.values():
        assert_lattice_tables_handed_over(fam.structure, fam.relations)


def test_closure_lattice_tables_are_handed_over(example_structure,
                                                example_generators):
    res = dq_closure(example_structure, list(example_generators))
    assert_lattice_tables_handed_over(example_structure, res.relations)
    S = RelStructure(9, BinRel.identity(9), BinRel.identity(9),
                     tuple(range(9)), tuple(range(9)))
    res = dq_closure(S, [BinRel.from_pairs(9, [(0, 0), (4, 4)])])
    assert_lattice_tables_handed_over(S, res.relations)


def test_repeat_is_refused_before_the_tables_are_extracted(full_families):
    # with the order relation listed twice, the unit row of the product
    # would name the repeat and the order would not be antisymmetric; a
    # repeat in a family that is not closed is refused as a repeat
    fam = full_families[20]
    S, rels = fam.structure, list(fam.relations)
    unit = rels.index(S.leq)
    with pytest.raises(ValueError, match=f"at positions {unit} and 20$"):
        algebra_from_upsets(S, rels + [S.leq])
    with pytest.raises(ValueError, match="lists a relation twice"):
        algebra_from_upsets(S, rels[:5] + rels[6:] + [rels[7]])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalogue_join_generators_literal(algebras, name):
    A = algebras[name]
    assert A.join_generators == literal_join_generators(A)


@pytest.mark.parametrize("size", [70, 168, 256])
def test_full_algebra_join_generators_literal(full_families, size):
    A = full_families[size].algebra
    assert A.join_generators == literal_join_generators(A)


def test_table_key_beyond_one_byte(full_families):
    A = full_families[256].algebra
    assert A.size == 256
    key = A.table_key()
    assert key == A.relabel([f"u{i}" for i in range(256)]).table_key()
    other = FiniteDqRA(A.size, A.leq, A.mult, A.tilde, A.minus, A.negn,
                       (A.unit + 1) % A.size)
    assert other.table_key() != key


def pairwise_verify(e: Embedding) -> ValidationReport:
    """verify_embedding checked one pair and one element at a time, with the
    negations that check their results are upsets."""
    A, S = e.algebra, e.structure
    if len(e.assignment) != A.size:
        raise ValueError("assignment must cover every element")
    for R in e.assignment:
        if R.n != S.n:
            raise CarrierMismatchError(
                "assignment relation carrier does not match the structure")
    validate_dqra(A).raise_if_failed("algebra does not validate")
    validate_structure(S).raise_if_failed("structure does not validate")
    checks: list[LawCheck] = []

    def add(name, witness, detail=""):
        checks.append(LawCheck(name, witness is None, witness, detail))

    w = None
    for a, R in enumerate(e.assignment):
        if not S.is_upset(R):
            w = (a,)
            break
    add("images-are-upsets", w)

    w = None
    seen: dict[BinRel, int] = {}
    for a, R in enumerate(e.assignment):
        if R in seen:
            w = (seen[R], a)
            break
        seen[R] = a
    add("injective", w)

    add("unit-is-order",
        None if e.assignment[A.unit] == S.leq else (A.unit,))

    if not ValidationReport(tuple(checks)).ok:
        return ValidationReport(tuple(checks))

    phi = e.assignment
    mt, jt, M = A.meet_table, A.join_table, A.mult

    def first_pair(pred) -> Optional[tuple[int, int]]:
        for a in range(A.size):
            for b in range(A.size):
                if not pred(a, b):
                    return (a, b)
        return None

    add("preserves-meet",
        first_pair(lambda a, b: phi[mt[a, b]] == phi[a].intersection(phi[b])))
    add("preserves-join",
        first_pair(lambda a, b: phi[jt[a, b]] == phi[a].union(phi[b])))
    add("preserves-product",
        first_pair(lambda a, b: phi[M[a, b]] == phi[a].compose(phi[b])))

    def first_elt(pred) -> Optional[tuple[int]]:
        for a in range(A.size):
            if not pred(a):
                return (a,)
        return None

    add("preserves-tilde",
        first_elt(lambda a: phi[A.tilde[a]] == lneg_tilde(S, phi[a])))
    add("preserves-minus",
        first_elt(lambda a: phi[A.minus[a]] == lneg_minus(S, phi[a])))
    add("preserves-neg",
        first_elt(lambda a: phi[A.negn[a]] == neg(S, phi[a])))
    return ValidationReport(tuple(checks))


def outcome(verify, e: Embedding) -> str:
    """The report text, or the type and message of what was raised."""
    try:
        return str(verify(e))
    except (ValueError, LawViolationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def mutants(e: Embedding) -> list[Embedding]:
    """Two images swapped, an image replaced by another upset, by a non-upset
    or by a duplicate of another image, at a few spread positions."""
    S, phi = e.structure, list(e.assignment)
    m = len(phi)
    spots = sorted({0, 1, e.algebra.unit, m // 3, m // 2, m - 2, m - 1})
    ups = S.enumerate_upsets()
    out = []

    def mutant(changes: dict[int, BinRel]) -> None:
        imgs = list(phi)
        for i, R in changes.items():
            imgs[i] = R
        out.append(Embedding(e.algebra, S, tuple(imgs)))

    for i, j in zip(spots, spots[1:]):
        mutant({i: phi[j], j: phi[i]})
        mutant({j: phi[i]})
    for i in spots[:-1]:
        mutant({i: phi[i + 1], i + 1: phi[i]})
    outside = [U for U in ups if U not in phi]
    for k, i in enumerate(spots):
        mutant({i: next(U for U in ups if U != phi[i])})
        if outside:
            mutant({i: outside[k % len(outside)]})
        for p in range(S.n * S.n):
            R = BinRel(S.n, phi[i].bits ^ 1 << p)
            if not S.is_upset(R):
                mutant({i: R})
                break
    return out


@pytest.fixture(scope="module")
def embeddings(six_embedding, full_families) -> dict[str, Embedding]:
    out = {"D^6_{3,5,2}": six_embedding}
    for k in (70, 168, 256):
        fam = full_families[k]
        out[f"full-{k}"] = Embedding(fam.algebra, fam.structure,
                                     fam.relations)
    return out


@pytest.mark.parametrize("name", ["D^6_{3,5,2}", "full-70", "full-168",
                                  "full-256"])
def test_verify_embedding_matches_pairwise_oracle(embeddings, name):
    e = embeddings[name]
    assert verify_embedding(e).ok
    assert str(verify_embedding(e)) == str(pairwise_verify(e))
    cases = mutants(e)
    assert len(cases) >= 20
    reports = [outcome(verify_embedding, c) for c in cases]
    assert reports == [outcome(pairwise_verify, c) for c in cases]
    for op in ("meet", "join", "product", "tilde", "minus", "neg"):
        assert any(f"FAIL preserves-{op}" in r for r in reports), op


def test_verify_embedding_on_an_invalid_structure_matches_oracle():
    # alpha swaps the points of a chain: the structure does not validate,
    # so both refuse it before the negations could leave the upsets
    leq = BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    S = RelStructure(2, leq, BinRel.full(2), (1, 0), (0, 1))
    A1 = FiniteDqRA(1, [[1]], [[0]], [0], [0], [0], 0)
    e = Embedding(A1, S, (leq,))
    got = outcome(verify_embedding, e)
    assert got.startswith("LawViolationError")
    assert got == outcome(pairwise_verify, e)
