import random

import numpy as np
import pytest

from cartanmaps import cosets
from cartanmaps.cli import main
from cartanmaps.correspondence import build_H_s, build_psi_plus
from cartanmaps.cosets import (
    BOREL,
    DoubleCosetDecomposition,
    NAMED_KINDS,
    NONSPLIT_CARTAN,
    NORMALIZER_NONSPLIT,
    NORMALIZER_SPLIT,
    SPLIT_CARTAN,
    SubgroupSpec,
    coset_key,
    coset_operator,
    custom_subgroup,
    decompose,
    decompose_all,
    enumerate_subgroup,
    full_group,
)
from cartanmaps.geometry import (
    GroupElement,
    IDENTITY,
    det_mod,
    mat_inv,
    mat_mul,
    random_invertible,
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


# ---------------------------------------------------------------------------
# The array-first subgroups and decompose_all, against the scalar forms they
# replaced.
# ---------------------------------------------------------------------------

def listed_subgroup(kind, ctx):
    """The named subgroups as element lists, in their enumeration order."""
    ell, eps = ctx.ell, ctx.epsilon
    units = range(1, ell)
    nonzero = [(x, y) for x in range(ell) for y in range(ell) if (x, y) != (0, 0)]
    split = [GroupElement(a, 0, 0, d) for a in units for d in units]
    nonsplit = [GroupElement(x, eps * y % ell, y, x) for x, y in nonzero]
    return {
        SPLIT_CARTAN: split,
        NORMALIZER_SPLIT: split + [GroupElement(0, a, d, 0) for a in units for d in units],
        NONSPLIT_CARTAN: nonsplit,
        NORMALIZER_NONSPLIT: nonsplit + [GroupElement(x, -eps * y % ell, y, -x % ell)
                                         for x, y in nonzero],
        BOREL: [GroupElement(a, b, 0, d) for a in units for d in units for b in range(ell)],
    }[kind]


ORDER_CONTEXTS = [PrimeContext(3), PrimeContext(5), PrimeContext(7),
                  PrimeContext(13, 5, 7)]


@pytest.mark.parametrize("ctx", ORDER_CONTEXTS, ids=str)
def test_enumerate_subgroup_keeps_the_element_order(ctx):
    for kind in NAMED_KINDS:
        sub = enumerate_subgroup(kind, ctx)
        assert list(sub.elements) == listed_subgroup(kind, ctx), kind
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in sub.stacked)
        assert all(type(v) is int for v in sub.elements[-1])


def bucketed(H, g, K, ctx):
    """The per-g bucketing loop decompose_all replaced: the keys of h*g for
    every h of H, and the first h of each key kept, in H order."""
    buckets = {}
    keys = coset_key(K, mat_mul(H.stacked, g, ctx.ell), ctx)
    for h, key in zip(H.elements, keys.tolist()):
        buckets.setdefault(key, h)
    return len(buckets), tuple(buckets.values())


def assert_matches_bucketing(H, gs, K, ctx):
    decs = decompose_all(H, gs, K, ctx)
    assert len(decs) == len(gs)
    for g, dec in zip(gs, decs):
        assert (dec.H, dec.K, dec.g) == (H, K, g)
        assert (dec.degree, dec.representatives) == bucketed(H, g, K, ctx), (H, g, K)
    return decs


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_decompose_all_matches_the_bucketing_for_every_named_pair(ell, contexts):
    ctx = contexts[ell]
    rng = random.Random(f"named:{ell}")
    gs = [IDENTITY, GroupElement(1, 1, 0, 1), GroupElement(0, 1, 1, 0)]
    gs += [random_invertible(rng, ell) for _ in range(4)]
    subs = {kind: enumerate_subgroup(kind, ctx) for kind in NAMED_KINDS}
    for H in subs.values():
        for K in subs.values():
            assert_matches_bucketing(H, gs, K, ctx)


@pytest.mark.parametrize("ctx", [PrimeContext(ell) for ell in PRIMES_ALL if ell <= 23]
                         + [PrimeContext(13, 5, 7)], ids=str)
def test_decompose_all_matches_the_bucketing_at_every_slope(ctx):
    ell = ctx.ell
    C = enumerate_subgroup(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    gs = [GroupElement(1, s, 0, 1) for s in range(1, ell)]
    decs = assert_matches_bucketing(C, gs, Cp, ctx)
    assert [d.degree for d in decs] == [ell - 1] * (ell - 1)
    assert decompose(C, gs[-1], Cp, ctx).representatives == decs[-1].representatives


def test_decompose_all_does_not_depend_on_the_chunks(monkeypatch, contexts):
    ctx = contexts[13]
    C = enumerate_subgroup(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    gs = [GroupElement(1, s, 0, 1) for s in range(1, 13)]
    whole = decompose_all(C, gs, Cp, ctx)
    # a budget below |K| leaves one g per chunk
    monkeypatch.setattr(cosets, "_DECOMPOSE_ENTRIES", 1)
    one_by_one = decompose_all(C, gs, Cp, ctx)
    assert ([(d.g, d.degree, d.representatives) for d in one_by_one]
            == [(d.g, d.degree, d.representatives) for d in whole])


def test_decompose_all_keeps_its_arrays_within_the_budget(monkeypatch):
    ctx = PrimeContext(61)
    C = enumerate_subgroup(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    sizes = []

    def recorded(m, n, ell):
        out = mat_mul(m, n, ell)
        sizes.append(np.size(out.a))
        return out

    monkeypatch.setattr(cosets, "mat_mul", recorded)
    decs = decompose_all(C, [GroupElement(1, s, 0, 1) for s in range(1, 61)], Cp, ctx)
    assert [d.degree for d in decs] == [60] * 60
    assert max(sizes) <= cosets._DECOMPOSE_ENTRIES
    # the 60 slopes do not fit one chunk
    assert max(sizes) < 60 * len(Cp)


def test_a_wrong_stabilizer_fails_the_degree_cross_check(monkeypatch, contexts):
    """Conjugating K by g instead of g^-1 breaks the index the degree is
    checked against, not the keys, so every slope reports the mismatch."""
    ctx = contexts[7]
    C = enumerate_subgroup(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    monkeypatch.setattr(cosets, "mat_inv", lambda m, ell: m)
    for s in range(1, 7):
        with pytest.raises(AssertionError, match="degree mismatch: 6 buckets vs index 36/"):
            decompose_all(C, [GroupElement(1, s, 0, 1)], Cp, ctx)


def test_verify_never_lists_a_whole_subgroup(monkeypatch, capsys):
    """verify works on the subgroups' arrays only: no SubgroupSpec.elements."""
    listed = []
    elements = SubgroupSpec.__dict__["elements"].func

    def counted(self):
        listed.append(self.kind)
        return elements(self)

    monkeypatch.setattr(SubgroupSpec, "elements", property(counted))
    assert main(["verify", "--ell", "11"]) == 0
    capsys.readouterr()
    assert listed == []
    # the count does see a listing
    assert len(enumerate_subgroup(SPLIT_CARTAN, PrimeContext(3)).elements) == 4
    assert listed == [SPLIT_CARTAN]
