from functools import cache

import numpy as np
import pytest

from dqra import (BinRel, CapExceededError, Embedding, RelStructure,
                  catalogue_names, dq_closure, enumerate_structures,
                  load_algebra, load_representation)
from dqra.catalogue import (
    antichain_example_generators,
    antichain_example_structure,
)

ALL_NAMES = list(catalogue_names())

CHAIN_NAMES = ["D^3_{1,1}", "D^4_{1,1}", "D^4_{1,2}", "D^5_{1,4}", "D^5_{1,5}"]
TABLE_PARENTS = ["D^4_{3,1}", "D^6_{3,2}", "D^6_{3,4}", "D^6_{4,3}", "D^6_{4,4}"]
SIX = "D^6_{3,5,2}"


def block_structure(n: int) -> RelStructure:
    """n points under the identity order; E joins points 0 and 1, which
    alpha swaps."""
    E = BinRel.identity(n).union(BinRel.from_pairs(n, [(0, 1), (1, 0)]))
    return RelStructure(n, BinRel.identity(n), E,
                        (1, 0) + tuple(range(2, n)), tuple(range(n)))


@cache
def one_generator_closures() -> tuple[Embedding, ...]:
    """The closure of one upset, as an embedding into its structure, for
    every upset of the structures on at most 3 points with at most 64
    upsets; at most 8 elements, and only the first closure of each
    algebra."""
    out = {}
    for S in (S for n in (1, 2, 3) for S in enumerate_structures(n)):
        if S.count_upsets() > 64:
            continue
        for U in S.enumerate_upsets():
            try:
                c = dq_closure(S, [U], cap=8)
            except CapExceededError:
                continue
            out.setdefault(c.algebra.table_key(),
                           Embedding(c.algebra, S, c.relations))
    return tuple(out.values())


# --- the three negations by their formulas, on the bits of a relation R,
# unchecked; the converse is the transposed matrix and the product the
# boolean matrix product, so no reference calls the kernel it checks

def ref_converse_bits(n: int, r: int) -> int:
    return BinRel.from_matrix(n, BinRel(n, r).mat.T).bits


@cache
def ref_compose_bits(n: int, a: int, b: int) -> int:
    """Bits of a;b from the boolean matrix product (memoised: the search
    and closure references ask for the same products many times)."""
    m = BinRel(n, a).mat.astype(np.uint8) @ BinRel(n, b).mat.astype(np.uint8)
    return BinRel.from_matrix(n, m > 0).bits


def ref_tilde_bits(S: RelStructure, r: int) -> int:
    """~R = (E - R)^-1;alpha."""
    n = S.n
    return ref_compose_bits(n, ref_converse_bits(n, S.E.bits & ~r),
                            S.alpha_rel.bits)


def ref_minus_bits(S: RelStructure, r: int) -> int:
    """-R = alpha;(E - R)^-1."""
    n = S.n
    return ref_compose_bits(n, S.alpha_rel.bits,
                            ref_converse_bits(n, S.E.bits & ~r))


def ref_neg_bits(S: RelStructure, r: int) -> int:
    """The third negation alpha;beta;(E - R);beta."""
    n = S.n
    ab = ref_compose_bits(n, S.alpha_rel.bits, S.beta_rel.bits)
    return ref_compose_bits(n, ref_compose_bits(n, ab, S.E.bits & ~r),
                            S.beta_rel.bits)


@pytest.fixture(scope="session")
def algebras():
    return {name: load_algebra(name) for name in ALL_NAMES}


@pytest.fixture(scope="session")
def six(algebras):
    return algebras[SIX]


@pytest.fixture(scope="session")
def six_embedding():
    return load_representation(SIX)


@pytest.fixture(scope="session")
def example_structure():
    return antichain_example_structure()


@pytest.fixture(scope="session")
def example_generators(example_structure):
    return antichain_example_generators(example_structure)
