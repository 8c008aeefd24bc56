"""Cross-validation of the vectorized table layer against naive versions.

`algebra_from_upsets` finds each result matrix by a sorted keyed search and
`join_generators` marks reducible elements in one pass over the join table.
The references below resolve every cell by a dictionary keyed on packed
bytes and test join-irreducibility literally, over all pairs.
"""

import numpy as np
import pytest

from dqra import BinRel, FiniteDqRA, RelStructure, dq_closure, full_dq_family
from dqra.relations import algebra_from_upsets, enumerate_structures

from conftest import ALL_NAMES


def naive_tables(S: RelStructure, rels) -> tuple[np.ndarray, ...]:
    """(leq, mult, tilde, minus, negn, unit), one dictionary lookup per cell;
    a relation listed twice maps to its last occurrence."""
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
    a, ainv, b = np.array(S.alpha), np.array(S.alpha_inv), np.array(S.beta)
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


def test_duplicated_relation_maps_to_last_occurrence(full_families):
    fam = full_families[96]
    S, rels = fam.structure, list(fam.relations)
    for dup in (0, 1, 5, len(rels) - 1):
        family = rels + [rels[dup]]
        A = algebra_from_upsets(S, family)
        ref = naive_tables(S, family)
        assert_same_tables(A, ref)
        assert len(family) - 1 in A.mult


def test_keys_wider_than_a_machine_word():
    # 9 points: each relation packs to 81 bits
    S = RelStructure(9, BinRel.identity(9), BinRel.identity(9),
                     tuple(range(9)), tuple(range(9)))
    res = dq_closure(S, [BinRel.from_pairs(9, [(0, 0), (4, 4)])])
    assert res.algebra.size == 4
    assert_same_tables(res.algebra, naive_tables(S, res.relations))


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
