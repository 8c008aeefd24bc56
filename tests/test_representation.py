"""Embedding verification, search, and quotient representations."""

import numpy as np
import pytest

from dqra import (
    BinRel,
    Embedding,
    FiniteDqRA,
    LawViolationError,
    RelStructure,
    SearchStatus,
    contract,
    find_embedding,
    induced_embedding,
    psi_elements,
    quotient_representation,
    structures_isomorphic,
    validate_structure,
    verify_embedding,
)


def one_point():
    return RelStructure(1, BinRel.identity(1), BinRel.identity(1), (0,), (0,))


def two_chain_algebra():
    # two-element chain: bot < 1
    return FiniteDqRA(2, [[1, 1], [0, 1]], [[0, 0], [0, 1]],
                      [1, 0], [1, 0], [1, 0], 1, ("bot", "1"))


def test_shipped_assignment_is_an_embedding(six_embedding):
    assert verify_embedding(six_embedding).ok


def test_trivial_embedding_into_one_point():
    A = two_chain_algebra()
    S = one_point()
    e = Embedding(A, S, (BinRel.empty(1), S.leq))
    assert verify_embedding(e).ok


def test_swapping_the_symmetric_pair_still_verifies(six, six_embedding):
    # the transposition of the two middle idempotents is an automorphism of
    # the algebra, so the swapped assignment is again a valid embedding
    ia, ib = six.index_of("a"), six.index_of("b")
    imgs = list(six_embedding.assignment)
    imgs[ia], imgs[ib] = imgs[ib], imgs[ia]
    assert verify_embedding(Embedding(six, six_embedding.structure,
                                      tuple(imgs))).ok


def test_mutated_assignment_fails_with_witness(six, six_embedding):
    ia, i0 = six.index_of("a"), six.index_of("0")
    imgs = list(six_embedding.assignment)
    imgs[ia], imgs[i0] = imgs[i0], imgs[ia]
    report = verify_embedding(Embedding(six, six_embedding.structure,
                                        tuple(imgs)))
    assert not report.ok
    assert any(c.witness is not None for c in report.failures)
    names = {c.name for c in report.failures}
    assert "preserves-product" in names or "preserves-neg" in names


def test_non_injective_assignment_reported(six, six_embedding):
    imgs = list(six_embedding.assignment)
    imgs[six.index_of("a")] = imgs[six.index_of("b")]
    report = verify_embedding(Embedding(six, six_embedding.structure,
                                        tuple(imgs)))
    assert not report["injective"].ok


def test_find_embedding_recovers_the_example(six, example_structure):
    result = find_embedding(six, example_structure, budget=500_000)
    assert result.found
    assert verify_embedding(result.embedding).ok
    assert result.embedding.assignment[six.unit] == example_structure.leq


def test_find_embedding_trivial_case():
    A = two_chain_algebra()
    result = find_embedding(A, one_point())
    assert result.found
    assert result.embedding.assignment == (BinRel.empty(1), one_point().leq)


def test_find_embedding_definitive_refusal(algebras):
    # the three-element chain with a square-zero middle cannot embed over
    # one or two points; refusals must be definitive, not budget-outs
    A = algebras["D^3_{1,1}"]
    from dqra import enumerate_structures
    for n in (1, 2):
        for S in enumerate_structures(n):
            result = find_embedding(A, S, budget=100_000)
            assert result.status is SearchStatus.NOT_FOUND


def test_find_embedding_budget_exhaustion_is_distinct(six, example_structure):
    result = find_embedding(six, example_structure, budget=1)
    assert result.status is SearchStatus.BUDGET_EXHAUSTED
    assert result.embedding is None


def test_obstructed_chain_refuted_on_four_point_model(algebras,
                                                      example_structure):
    # the forced image of the zero cannot fit inside the image of the unit
    result = find_embedding(algebras["D^3_{1,1}"], example_structure,
                            budget=5_000_000, upset_cap=1 << 17)
    assert result.status is SearchStatus.NOT_FOUND


def brute_force_embedding_exists(A, S, ups) -> bool:
    """Try every injective assignment of elements to upsets directly."""
    from itertools import permutations
    from dqra import lneg_minus, lneg_tilde, neg as lneg_neg
    n = A.size
    for choice in permutations(range(len(ups)), n):
        phi = [ups[i] for i in choice]
        if phi[A.unit] != S.leq:
            continue
        ok = True
        for a in range(n):
            if not ok:
                break
            if phi[int(A.tilde[a])] != lneg_tilde(S, phi[a]):
                ok = False
                break
            if phi[int(A.minus[a])] != lneg_minus(S, phi[a]):
                ok = False
                break
            if phi[int(A.negn[a])] != lneg_neg(S, phi[a]):
                ok = False
                break
            for b in range(n):
                if phi[int(A.mult[a, b])] != phi[a].compose(phi[b]):
                    ok = False
                    break
                if phi[int(A.meet_table[a, b])] != phi[a].intersection(phi[b]):
                    ok = False
                    break
                if phi[int(A.join_table[a, b])] != phi[a].union(phi[b]):
                    ok = False
                    break
        if ok:
            return True
    return False


def test_search_agrees_with_brute_force_enumeration(algebras):
    # desk-scale completeness: on small structures the backtracking search
    # and naive enumeration over all injective assignments must agree
    from dqra import enumerate_structures
    small_algebras = [algebras["D^3_{1,1}"], algebras["D^4_{3,1}"],
                      two_chain_algebra()]
    found_somewhere = 0
    compared = 0
    for S in enumerate_structures(2):
        ups = S.enumerate_upsets(64)
        if len(ups) > 16:
            continue
        for A in small_algebras:
            expect = brute_force_embedding_exists(A, S, ups)
            got = find_embedding(A, S, budget=1_000_000)
            assert got.status is not SearchStatus.BUDGET_EXHAUSTED
            assert got.found == expect, (A.labels, S)
            compared += 1
            found_somewhere += got.found
    assert compared >= 21
    assert found_somewhere > 0   # the two-chain embeds over discrete orders


def test_quotient_cardinalities(six, six_embedding):
    sizes = {}
    for lbl in ("1", "a", "b", "top"):
        q = quotient_representation(six_embedding, six.index_of(lbl))
        assert validate_structure(q.quotient).ok
        sizes[lbl] = q.n_classes
    assert sizes == {"1": 4, "a": 2, "b": 2, "top": 1}


def test_quotient_classes_match_the_worked_example(six, six_embedding):
    S = six_embedding.structure
    w, x, y, z = (S.point_index(l) for l in "wxyz")
    qa = quotient_representation(six_embedding, six.index_of("a"))
    assert qa.class_map[w] == qa.class_map[y]
    assert qa.class_map[x] == qa.class_map[z]
    assert qa.class_map[w] != qa.class_map[x]
    # alpha swaps the two classes, beta fixes each
    assert qa.quotient.alpha == (1, 0)
    assert qa.quotient.beta == (0, 1)

    qb = quotient_representation(six_embedding, six.index_of("b"))
    assert qb.class_map[w] == qb.class_map[z]
    assert qb.class_map[x] == qb.class_map[y]
    assert qb.quotient.alpha == (1, 0)
    assert qb.quotient.beta == (1, 0)


def test_quotients_at_a_and_b_are_not_isomorphic(six, six_embedding):
    qa = quotient_representation(six_embedding, six.index_of("a"))
    qb = quotient_representation(six_embedding, six.index_of("b"))
    assert not structures_isomorphic(qa.quotient, qb.quotient)


def test_quotient_at_unit_recovers_the_structure(six, six_embedding):
    q = quotient_representation(six_embedding, six.unit)
    assert q.n_classes == six_embedding.structure.n
    assert structures_isomorphic(q.quotient, six_embedding.structure)


def test_quotient_at_top_collapses_everything(six, six_embedding):
    q = quotient_representation(six_embedding, six.index_of("top"))
    assert q.n_classes == 1
    assert validate_structure(q.quotient).ok


@pytest.mark.parametrize("lbl,expected_size", [
    ("1", 6), ("a", 3), ("b", 3), ("top", 2),
])
def test_induced_embeddings_verify(six, six_embedding, lbl, expected_size):
    p = six.index_of(lbl)
    psi = induced_embedding(six_embedding, p)
    assert verify_embedding(psi).ok
    assert psi.algebra.size == expected_size
    # the contraction unit lands on the quotient order
    assert psi.assignment[psi.algebra.unit] == psi.structure.leq


def test_induced_embedding_at_top_gives_the_two_chain(six, six_embedding):
    psi = induced_embedding(six_embedding, six.index_of("top"))
    images = set(psi.assignment)
    assert images == {BinRel.empty(1), BinRel.identity(1)}


def test_induced_embedding_at_unit_matches_original(six, six_embedding):
    psi = induced_embedding(six_embedding, six.unit)
    q = quotient_representation(six_embedding, six.unit)
    perm = [q.class_map[x] for x in range(six_embedding.structure.n)]
    for a in range(six.size):
        src = six_embedding.assignment[a]
        moved = {(perm[i], perm[j]) for i, j in src.pairs()}
        assert set(psi.assignment[a].pairs()) == moved


def test_quotient_requires_psi(six, six_embedding):
    from dqra import NotPsiError
    with pytest.raises(NotPsiError):
        quotient_representation(six_embedding, six.index_of("0"))


def test_quotient_rejects_non_embedding(six, six_embedding):
    imgs = list(six_embedding.assignment)
    ia, i0 = six.index_of("a"), six.index_of("0")
    imgs[ia], imgs[i0] = imgs[i0], imgs[ia]
    bad = Embedding(six, six_embedding.structure, tuple(imgs))
    with pytest.raises(LawViolationError):
        quotient_representation(bad, six.index_of("b"))


def test_invariance_lemmas_hold_for_every_psi(six, six_embedding):
    S = six_embedding.structure
    a = np.array(S.alpha)
    b = np.array(S.beta)
    for p in psi_elements(six):
        P = six_embedding.assignment[p].mat
        assert (P == P[a][:, a]).all()          # alpha-covariant
        assert (P == P[b][:, b].T).all()        # beta-contravariant


# the search's answer for D^6_{3,5,2} over its shipped structure: the first
# embedding in the (size, key) candidate order, which swaps the images of a
# and b relative to the shipped assignment
_DIAG = [(0, 0), (1, 1), (2, 2), (3, 3)]
SIX_SEARCH_ANSWER = {
    "bot": [],
    "1": _DIAG,
    "a": sorted(_DIAG + [(0, 3), (1, 2), (2, 1), (3, 0)]),
    "b": sorted(_DIAG + [(0, 2), (1, 3), (2, 0), (3, 1)]),
    "0": sorted(_DIAG + [(0, 2), (0, 3), (1, 2), (1, 3),
                         (2, 0), (2, 1), (3, 0), (3, 1)]),
    "top": [(x, y) for x in range(4) for y in range(4)],
}


def test_find_embedding_answer_is_pinned(six, six_embedding):
    result = find_embedding(six, six_embedding.structure)
    assert result.found
    assert result.nodes == 254
    got = {six.label(k): list(R.pairs())
           for k, R in enumerate(result.embedding.assignment)}
    assert got == SIX_SEARCH_ANSWER


def test_candidate_order_is_size_then_key(example_structure):
    ups = example_structure.enumerate_upsets(1 << 16)
    assert len(ups) == 1 << 16
    by_bits = sorted(ups, key=lambda r: (r.bits.bit_count(), r.bits))
    assert by_bits == sorted(ups, key=lambda r: (len(r), r.key()))
