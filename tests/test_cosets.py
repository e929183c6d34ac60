import random

import pytest

from cartanmaps.correspondence import build_H_s, build_psi_plus
from cartanmaps.cosets import (
    BOREL,
    DoubleCosetDecomposition,
    NONSPLIT_CARTAN,
    NORMALIZER_NONSPLIT,
    NORMALIZER_SPLIT,
    SPLIT_CARTAN,
    coset_key,
    coset_operator,
    custom_subgroup,
    decompose,
    enumerate_subgroup,
    full_group,
)
from cartanmaps.geometry import (
    GroupElement,
    IDENTITY,
    det_mod,
    mat_inv,
    mat_mul,
    subgroup_order,
)
from cartanmaps.modular_arith import PrimeContext

from conftest import PRIMES_ALL


def test_subgroup_sizes_examples(contexts):
    assert len(enumerate_subgroup(SPLIT_CARTAN, contexts[3])) == 4
    assert len(enumerate_subgroup(NORMALIZER_NONSPLIT, contexts[3])) == 16
    ctx5 = contexts[5]
    for kind in (SPLIT_CARTAN, NONSPLIT_CARTAN, NORMALIZER_SPLIT,
                 NORMALIZER_NONSPLIT, BOREL):
        assert len(enumerate_subgroup(kind, ctx5)) == subgroup_order(kind, 5)
    with pytest.raises(ValueError):
        enumerate_subgroup("Z", ctx5)


@pytest.mark.parametrize("kind", [SPLIT_CARTAN, NONSPLIT_CARTAN, NORMALIZER_SPLIT,
                                  NORMALIZER_NONSPLIT, BOREL])
def test_named_subgroups_are_groups(kind, contexts):
    ctx = contexts[5]
    sub = enumerate_subgroup(kind, ctx)
    # converting through the custom validator re-checks every axiom
    assert len(custom_subgroup(sub.elements, ctx)) == len(sub)


def test_normalizer_normalizes(contexts):
    ctx = contexts[5]
    C = enumerate_subgroup(SPLIT_CARTAN, ctx).element_set
    N = enumerate_subgroup(NORMALIZER_SPLIT, ctx)
    for n in N.elements:
        ninv = mat_inv(n, 5)
        assert {mat_mul(mat_mul(n, c, 5), ninv, 5) for c in C} == C
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx).element_set
    Np = enumerate_subgroup(NORMALIZER_NONSPLIT, ctx)
    for n in Np.elements:
        ninv = mat_inv(n, 5)
        assert {mat_mul(mat_mul(n, c, 5), ninv, 5) for c in Cp} == Cp


def test_stacked_elements_are_cached_and_read_only(contexts):
    sub = enumerate_subgroup(NORMALIZER_NONSPLIT, contexts[5])
    stacked = sub.stacked
    assert sub.stacked is stacked
    assert [tuple(m) for m in zip(*(a.tolist() for a in stacked))] == list(sub.elements)
    with pytest.raises(ValueError):
        stacked.a[0] = 0


def test_custom_subgroup_witnesses(contexts):
    ctx = contexts[5]
    with pytest.raises(ValueError, match="identity"):
        custom_subgroup([GroupElement(2, 0, 0, 1)], ctx)
    with pytest.raises(ValueError, match="inverse|product"):
        custom_subgroup([IDENTITY, GroupElement(2, 0, 0, 1)], ctx)
    with pytest.raises(ValueError, match="singular"):
        custom_subgroup([IDENTITY, GroupElement(0, 0, 0, 0)], ctx)
    # scalars do form a group
    scalars = [GroupElement(a, 0, 0, a) for a in range(1, 5)]
    assert len(custom_subgroup(scalars, ctx)) == 4


def test_decompose_examples(contexts):
    ctx7 = contexts[7]
    dec = decompose(enumerate_subgroup(NORMALIZER_SPLIT, ctx7), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx7), ctx7)
    assert dec.degree == 3
    ctx5 = contexts[5]
    dec2 = decompose(enumerate_subgroup(SPLIT_CARTAN, ctx5),
                     GroupElement(1, 2, 0, 1),
                     enumerate_subgroup(NONSPLIT_CARTAN, ctx5), ctx5)
    assert dec2.degree == 4
    g3 = full_group(contexts[3])
    dec3 = decompose(g3, GroupElement(1, 1, 1, 0), g3, contexts[3])
    assert dec3.degree == 1


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_decompose_disjoint_cover(ell, contexts):
    """The cosets alpha*g*K are pairwise disjoint and union to HgK."""
    ctx = contexts[ell]
    cases = [
        (NORMALIZER_SPLIT, IDENTITY, NORMALIZER_NONSPLIT),
        (SPLIT_CARTAN, GroupElement(1, 1, 0, 1), NONSPLIT_CARTAN),
    ]
    for hk, g, kk in cases:
        H = enumerate_subgroup(hk, ctx)
        K = enumerate_subgroup(kk, ctx)
        dec = decompose(H, g, K, ctx)
        union = set()
        for alpha in dec.representatives:
            coset = {mat_mul(mat_mul(alpha, g, ell), k, ell) for k in K.elements}
            assert len(coset) == len(K)
            assert not (union & coset)
            union |= coset
        hgk = {mat_mul(mat_mul(h, g, ell), k, ell)
               for h in H.elements for k in K.elements}
        assert union == hgk
        assert dec.degree * len(K) == len(hgk)


@pytest.mark.parametrize("ell", [5, 7])
def test_degree_invariance_under_double_coset_choice(ell, contexts):
    """deg(HgK) = deg(Hg'K) whenever Hg'K = HgK; sample g' = h*g*k."""
    ctx = contexts[ell]
    rng = random.Random(f"deg:{ell}")
    H = enumerate_subgroup(SPLIT_CARTAN, ctx)
    K = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    g = GroupElement(1, 2, 0, 1)
    base = decompose(H, g, K, ctx)
    for _ in range(5):
        h = H.elements[rng.randrange(len(H))]
        k = K.elements[rng.randrange(len(K))]
        gp = mat_mul(mat_mul(h, g, ell), k, ell)
        assert decompose(H, gp, K, ctx).degree == base.degree


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_degree_formulas(ell):
    ctx = PrimeContext(ell)
    dec = decompose(enumerate_subgroup(NORMALIZER_SPLIT, ctx), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
    assert dec.degree == (ell - 1) // 2
    C = enumerate_subgroup(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    for s in (1, 2, ell - 1):
        assert decompose(C, GroupElement(1, s, 0, 1), Cp, ctx).degree == ell - 1


@pytest.mark.parametrize("ell", [3, 5])
def test_coincidence_with_geometric_maps(ell, contexts):
    ctx = contexts[ell]
    dec = decompose(enumerate_subgroup(NORMALIZER_SPLIT, ctx), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
    assert coset_operator(dec, ctx) == build_psi_plus(ctx)
    C = enumerate_subgroup(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    for s in range(1, ell):
        dec_s = decompose(C, GroupElement(1, s, 0, 1), Cp, ctx)
        assert coset_operator(dec_s, ctx) == build_H_s(ctx, s)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_coset_operator_row_sums_constant(ell, contexts):
    # |pairs| * degree incidences spread evenly over |H_ell| rows: (ell+1)/2 each
    ctx = contexts[ell]
    dec = decompose(enumerate_subgroup(NORMALIZER_SPLIT, ctx), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
    op = coset_operator(dec, ctx)
    assert set(op.row_sums().tolist()) == {(ell + 1) // 2}


def test_coset_operator_representative_independence(contexts):
    """Replacing each alpha by another member of its coset leaves the matrix fixed."""
    ctx = contexts[5]
    ell = 5
    H = enumerate_subgroup(SPLIT_CARTAN, ctx)
    K = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    g = GroupElement(1, 2, 0, 1)
    dec = decompose(H, g, K, ctx)
    base = coset_operator(dec, ctx)
    ginv = mat_inv(g, ell)
    stab = [u for u in (mat_mul(mat_mul(g, k, ell), ginv, ell) for k in K.elements)
            if u in H.element_set]
    rng = random.Random("reps")
    for _ in range(3):
        reps = tuple(mat_mul(alpha, stab[rng.randrange(len(stab))], ell)
                     for alpha in dec.representatives)
        shuffled = DoubleCosetDecomposition(H, K, g, reps, dec.degree)
        assert coset_operator(shuffled, ctx) == base


def test_coset_operator_rejects_unidentified_kinds(contexts):
    ctx = contexts[3]
    B = enumerate_subgroup(BOREL, ctx)
    Np = enumerate_subgroup(NORMALIZER_NONSPLIT, ctx)
    dec = decompose(B, IDENTITY, Np, ctx)
    with pytest.raises(ValueError, match="identification"):
        coset_operator(dec, ctx)


def test_coset_key_identifies_cosets(contexts):
    """m and m' key equal iff they lie in the same right coset mK."""
    ctx = contexts[3]
    ell = 3
    rng = random.Random("keys")
    from cartanmaps.geometry import random_invertible
    for kind in (SPLIT_CARTAN, NONSPLIT_CARTAN, NORMALIZER_SPLIT,
                 NORMALIZER_NONSPLIT, BOREL):
        K = enumerate_subgroup(kind, ctx)
        for _ in range(20):
            m = random_invertible(rng, ell)
            mp = random_invertible(rng, ell)
            same_coset = mat_mul(mat_inv(m, ell), mp, ell) in K.element_set
            assert (coset_key(K, m, ctx) == coset_key(K, mp, ctx)) == same_coset
