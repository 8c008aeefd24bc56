"""Relation calculus, structures, negations, closures and full algebras."""

from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dqra import (
    BinRel,
    CapExceededError,
    CarrierMismatchError,
    LawViolationError,
    NotAnUpsetError,
    RelStructure,
    algebras_isomorphic,
    dq_closure,
    enumerate_structures,
    full_dq,
    full_dq_family,
    lneg_minus,
    lneg_tilde,
    neg,
    rel_residuals,
    sample_structures,
    validate_dqra,
    validate_structure,
)

RNG = np.random.default_rng(20240811)


def random_subrel(E: BinRel) -> BinRel:
    keep = RNG.integers(0, 2, size=len(E.pairs())).astype(bool)
    return BinRel.from_pairs(E.n, [p for p, k in zip(E.pairs(), keep) if k])


def one_point():
    return RelStructure(1, BinRel.identity(1), BinRel.identity(1), (0,), (0,))


# --- plain relation operations ------------------------------------------------


def test_identity_is_composition_unit(example_structure):
    E = example_structure.E
    ident = BinRel.identity(E.n)
    for _ in range(20):
        R = random_subrel(E)
        assert R.compose(ident) == R
        assert ident.compose(R) == R


def test_converse_commutes_with_complement(example_structure):
    E = example_structure.E
    for _ in range(20):
        R = random_subrel(E)
        assert R.converse().complement_in(E) == R.complement_in(E).converse()


def test_composition_associative_converse_involutive(example_structure):
    E = example_structure.E
    for _ in range(10):
        R, S, T = (random_subrel(E) for _ in range(3))
        assert R.compose(S).compose(T) == R.compose(S.compose(T))
        assert R.converse().converse() == R
        assert R.compose(S).converse() == S.converse().compose(R.converse())


def test_antichain_generators_compose_to_full(example_structure,
                                              example_generators):
    ra, rb = example_generators
    assert ra.compose(rb) == BinRel.full(4)


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatchError):
        BinRel.identity(3).compose(BinRel.identity(4))
    with pytest.raises(CarrierMismatchError):
        BinRel.full(3).complement_in(BinRel.identity(4))


def test_complement_requires_subrelation():
    # complement relative to E is only defined inside E
    with pytest.raises(CarrierMismatchError):
        BinRel.full(3).complement_in(BinRel.identity(3))


# --- structure validation -------------------------------------------------------


def test_example_structure_is_valid(example_structure):
    assert validate_structure(example_structure).ok


def test_one_point_structure_is_valid():
    assert validate_structure(one_point()).ok


def test_beta_equal_alpha_still_compatible(example_structure):
    # alpha is self-inverse, so alpha;alpha;alpha = alpha: beta := alpha
    # satisfies every structure invariant on the antichain
    S = example_structure
    report = validate_structure(RelStructure(4, S.leq, S.E, S.alpha, S.alpha))
    assert report.ok


def test_bad_beta_violates_compatibility(example_structure):
    S = example_structure
    bad = RelStructure(4, S.leq, S.E, S.alpha, (2, 1, 0, 3))  # swap w,y only
    report = validate_structure(bad)
    assert not report.ok
    assert not report["beta-alpha-compatible"].ok
    assert report["beta-self-inverse"].ok


def test_validation_reports_witnesses(example_structure):
    S = example_structure
    nonpartial = BinRel.from_pairs(4, [(0, 0), (1, 1), (2, 2), (3, 3),
                                       (0, 1), (1, 0)])
    bad = RelStructure(4, nonpartial, S.E, S.alpha, S.beta)
    report = validate_structure(bad)
    assert not report["leq-antisymmetric"].ok
    assert report["leq-antisymmetric"].witness == (0, 1)


# --- linear negations ------------------------------------------------------------


def test_tilde_of_order_is_empty_on_one_point():
    S = one_point()
    assert lneg_tilde(S, S.leq) == BinRel.empty(1)


def test_minus_of_order_is_the_zero_relation(example_structure, six,
                                             six_embedding):
    S = example_structure
    zero_rel = six_embedding.assignment[six.index_of("0")]
    assert lneg_minus(S, S.leq) == zero_rel
    alpha_rel = S.alpha_rel
    manual = alpha_rel.compose(S.leq.complement_in(S.E).converse())
    assert manual == zero_rel


def test_negations_require_upsets():
    # on an antichain every subset of E is an upset, so use a chain: the
    # pair (0,0) sits below (0,1) in the pair poset
    leq = BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    S = RelStructure(2, leq, BinRel.full(2), (0, 1), (1, 0))
    not_upset = BinRel.from_pairs(2, [(0, 0)])
    assert not S.is_upset(not_upset)
    with pytest.raises(NotAnUpsetError):
        lneg_tilde(S, not_upset)


def test_involution_laws_on_all_upsets_of_samples():
    for S in sample_structures(3, 12, seed=7, upset_cap=64):
        for R in S.enumerate_upsets(64):
            assert lneg_tilde(S, lneg_minus(S, R)) == R
            assert lneg_minus(S, lneg_tilde(S, R)) == R
            assert neg(S, neg(S, R)) == R


def test_complement_composition_lemma(example_structure):
    # for a bijection inside E, complement and composition commute
    E = example_structure.E
    n = E.n
    for _ in range(50):
        perm = RNG.permutation(n)
        gamma = BinRel.from_function([int(v) for v in perm])
        if not gamma <= E:
            continue
        R = random_subrel(E)
        Rc = R.complement_in(E)
        assert gamma.compose(R).complement_in(E) == gamma.compose(Rc)
        assert R.compose(gamma).complement_in(E) == Rc.compose(gamma)


def test_equivalence_invariance_under_functions_within_E():
    structures = sample_structures(4, 10, seed=13, upset_cap=64)
    for S in structures:
        E = S.E.mat
        classes = [list(np.flatnonzero(E[x])) for x in range(S.n)]
        fn = [int(RNG.choice(classes[x])) for x in range(S.n)]
        for x in range(S.n):
            for y in range(S.n):
                assert E[x, y] == E[fn[x], fn[y]]


# --- residuals -------------------------------------------------------------------


def test_order_is_left_residual_unit(example_structure):
    S = example_structure
    for T in S.enumerate_upsets(1 << 17)[:50]:
        left, _ = rel_residuals(S, S.leq, T)
        assert left == T


def test_residual_matches_negation_formula(example_structure):
    # R \ T agrees with ~(-T ; R) computed through the negations
    S = example_structure
    ups = S.enumerate_upsets(1 << 17)
    picks = RNG.integers(0, len(ups), size=24).reshape(-1, 2)
    for i, j in picks:
        R, T = ups[int(i)], ups[int(j)]
        left, _ = rel_residuals(S, R, T)
        mt = lneg_minus(S, T)
        assert lneg_tilde(S, mt.compose(R)) == left


def test_residuation_law_spot_checks():
    # R;Q <= T iff Q <= R\T iff R <= T/Q; exhaustive version runs in acceptance
    for S in sample_structures(3, 6, seed=5, upset_cap=32):
        ups = S.enumerate_upsets(32)
        for R in ups[:8]:
            for T in ups[:8]:
                left = rel_residuals(S, R, T)[0]
                for Q in ups:
                    incl = R.compose(Q) <= T
                    assert incl == (Q <= left)
                    assert incl == (R <= rel_residuals(S, Q, T)[1])


# --- closures and full algebras ---------------------------------------------------


def test_closure_of_example_has_six_elements(example_structure,
                                             example_generators, six):
    result = dq_closure(example_structure, list(example_generators))
    assert len(result.relations) == 6
    assert validate_dqra(result.algebra).ok
    assert algebras_isomorphic(result.algebra, six)


def test_closure_without_generators_on_one_point():
    result = dq_closure(one_point(), [])
    assert len(result.relations) == 2
    assert BinRel.empty(1) in result.relations
    assert one_point().leq in result.relations


def test_closure_of_closed_family_is_fixpoint(example_structure,
                                              example_generators):
    closed = dq_closure(example_structure, list(example_generators)).relations
    again = dq_closure(example_structure, list(closed))
    assert set(again.relations) == set(closed)


def test_closure_respects_cap(example_structure, example_generators):
    with pytest.raises(CapExceededError):
        dq_closure(example_structure, list(example_generators), cap=3)


def test_closure_is_generator_order_independent(example_structure,
                                                example_generators):
    ra, rb = example_generators
    one = dq_closure(example_structure, [ra, rb]).algebra
    other = dq_closure(example_structure, [rb, ra]).algebra
    assert algebras_isomorphic(one, other)


def test_full_dq_on_one_point():
    A = full_dq(one_point())
    assert A.size == 2
    assert validate_dqra(A).ok


def test_full_dq_two_chain_with_flip():
    leq = BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    S = RelStructure(2, leq, BinRel.full(2), (0, 1), (1, 0))
    assert validate_structure(S).ok
    A = full_dq(S)
    assert validate_dqra(A).ok
    assert A.size == S.count_upsets()


def test_antichain_upset_count_is_two_to_sixteen(example_structure):
    assert example_structure.count_upsets(1 << 20) == 65536
    with pytest.raises(CapExceededError):
        example_structure.count_upsets(1 << 10)


def test_negations_reject_results_outside_the_upsets():
    # alpha swaps the points of a chain, so it is no order automorphism
    leq = BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    S = RelStructure(2, leq, BinRel.full(2), (1, 0), (0, 1))
    assert not validate_structure(S).ok
    for op in (lneg_tilde, lneg_minus, neg):
        with pytest.raises(LawViolationError):
            op(S, leq)


def test_count_upsets_matches_brute_force():
    # every subset of E tested with is_upset, over every structure with n <= 3
    for n in (1, 2, 3):
        for S in enumerate_structures(n):
            pairs = S.E.pairs()
            brute = sum(
                S.is_upset(BinRel.from_pairs(n, [p for i, p in enumerate(pairs)
                                                 if mask >> i & 1]))
                for mask in range(1 << len(pairs)))
            assert S.count_upsets() == brute


@cache
def structures_with_small_E() -> list[RelStructure]:
    """Every labelled structure with at most 5 points and 16 pairs in E."""
    return [S for n in range(1, 6) for S in enumerate_structures(n)
            if len(S.E.pairs()) <= 16]


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_count_upsets_matches_a_count_over_every_subset(data):
    S = data.draw(st.sampled_from(structures_with_small_E()))
    pairs = S.E.pairs()
    L = S.leq.mat
    subsets = np.arange(1 << len(pairs))
    closed = np.ones(len(subsets), dtype=bool)
    for i, (x, y) in enumerate(pairs):
        # the pairs (u, v) of E above (x, y): u <= x and y <= v
        up = sum(1 << j for j, (u, v) in enumerate(pairs) if L[u, x] and L[y, v])
        closed &= (subsets >> i & 1 == 0) | (subsets & up == up)
    assert S.count_upsets(1 << 16) == int(closed.sum())


def test_count_upsets_has_no_recursion_limit():
    n = 32
    S = RelStructure(n, BinRel.identity(n), BinRel.full(n),
                     tuple(range(n)), tuple(range(n)))
    with pytest.raises(CapExceededError) as exc:
        S.count_upsets(1 << 20)
    assert exc.value.count == 1 << (n * n)


def test_empty_E_has_only_the_empty_upset():
    # an invalid structure, but upset enumeration must not fail on it
    S = RelStructure(1, BinRel.identity(1), BinRel.empty(1), (0,), (0,))
    assert S.count_upsets() == 1
    assert S.enumerate_upsets() == [BinRel.empty(1)]
    # the order relation is always the unit, even when it is not an upset
    assert full_dq_family(S).relations == (BinRel.empty(1), S.leq)


def test_an_empty_order_relation_is_listed_once():
    # an invalid structure whose order relation is the empty relation: the
    # empty upset and the unit are then one element, not two
    S = RelStructure(1, BinRel(1, 0), BinRel(1, 0), (0,), (0,))
    family = full_dq_family(S)
    assert family.relations == (S.leq,)
    assert validate_dqra(family.algebra).ok


def test_count_upsets_rejects_a_preorder():
    S = RelStructure(2, BinRel.full(2), BinRel.full(2), (0, 1), (0, 1))
    with pytest.raises(LawViolationError):
        S.count_upsets()


def test_random_closures_are_subalgebras():
    # any closure inside the upset family extracts a valid algebra
    rng = np.random.default_rng(717)
    for S in sample_structures(3, 10, seed=31, upset_cap=64):
        ups = S.enumerate_upsets(64)
        k = int(rng.integers(0, 3))
        gens = [ups[int(i)] for i in rng.integers(0, len(ups), size=k)]
        result = dq_closure(S, gens, cap=512)
        assert validate_dqra(result.algebra).ok


def test_search_handles_a_noncommutative_target():
    leq = BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    S = RelStructure(2, leq, BinRel.full(2), (0, 1), (1, 0))
    A = full_dq(S)
    assert not (A.mult == A.mult.T).all()
    from dqra import find_embedding, verify_embedding
    result = find_embedding(A, S)
    assert result.found
    assert verify_embedding(result.embedding).ok


def test_full_dq_family_assignment_is_consistent():
    S = sample_structures(3, 1, seed=3, upset_cap=32)[0]
    fam = full_dq_family(S, cap=32)
    A = fam.algebra
    for i, R in enumerate(fam.relations):
        for j, T in enumerate(fam.relations):
            assert (R <= T) == bool(A.leq[i, j])
            assert fam.relations[int(A.mult[i, j])] == R.compose(T)


def test_points_outside_the_carrier_are_rejected():
    # no wrap-round of negative points, no bare IndexError for large ones
    for pairs in ([(-1, 0)], [(0, -1)], [(2, 0)], [(0, 2)]):
        with pytest.raises(CarrierMismatchError):
            BinRel.from_pairs(2, pairs)
    with pytest.raises(CarrierMismatchError):
        BinRel.from_function([1, -2])
    with pytest.raises(CarrierMismatchError):
        BinRel.from_function([0, 2])
    for point in ((-1, -1), (2, 0), (0, 2)):
        with pytest.raises(CarrierMismatchError):
            point in BinRel.identity(2)
    assert (1, 1) in BinRel.identity(2) and (0, 1) not in BinRel.identity(2)


def test_relation_bits_must_fit_the_carrier():
    assert BinRel(2, 0b1001) == BinRel.identity(2)
    for bits in (-1, 1 << 4):
        with pytest.raises(CarrierMismatchError):
            BinRel(2, bits)
    with pytest.raises(CarrierMismatchError):
        BinRel.from_matrix(2, np.eye(3, dtype=bool))
    with pytest.raises(AttributeError):
        BinRel.identity(2).bits = 0
