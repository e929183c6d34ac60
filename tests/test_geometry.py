import random

import pytest

from cartanmaps.geometry import (
    INFINITY,
    CartanOrbit,
    CartanPoint,
    GroupElement,
    IDENTITY,
    OrderedPair,
    ProjectivePoint,
    UnorderedPair,
    basis_C,
    basis_H,
    basis_ordered_pairs,
    basis_unordered_pairs,
    cartan_act,
    cartan_index,
    cartan_point,
    cartan_to_diff,
    det_mod,
    diff_to_cartan,
    diff_to_pair,
    enumerate_C,
    enumerate_H,
    enumerate_p1,
    enumerate_pairs_ordered,
    enumerate_pairs_unordered,
    generators,
    gl2_order,
    mat_inv,
    mat_mul,
    mobius_act,
    nonsplit_tm_to_tn,
    nonsplit_tn_to_tm,
    orbit_act,
    orbit_index,
    orbit_of,
    orbit_to_tn,
    ordered_pair_index,
    p1_index,
    pair_to_diff,
    pair_to_tn,
    parse_point,
    permutation,
    random_invertible,
    subgroup_order,
    tm_to_tn,
    tn_to_orbit,
    tn_to_pair,
    tn_to_tm,
    unordered_pair_index,
)
from cartanmaps.modular_arith import legendre

from conftest import PRIMES_ALL, PRIMES_SMALL


def aff(x):
    return ProjectivePoint(False, x)


def test_set_sizes_examples(contexts):
    assert len(enumerate_pairs_unordered(contexts[3])) == 6
    assert len(enumerate_H(contexts[3])) == 3
    assert len(enumerate_C(contexts[5])) == 20


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_enumerations_are_canonical(ell, contexts):
    ctx = contexts[ell]
    p1 = enumerate_p1(ctx)
    assert len(p1) == ell + 1 and len(set(p1)) == ell + 1
    assert p1[-1] == INFINITY and p1[0] == aff(0)
    up = enumerate_pairs_unordered(ctx)
    op = enumerate_pairs_ordered(ctx)
    H = enumerate_H(ctx)
    C = enumerate_C(ctx)
    assert len(up) == len(set(up)) == ell * (ell + 1) // 2
    assert len(op) == len(set(op)) == ell * (ell + 1)
    assert len(H) == len(set(H)) == ell * (ell - 1) // 2
    assert len(C) == len(set(C)) == ell * (ell - 1)
    # lexicographic order with infinity last
    assert up == sorted(up)
    assert H == sorted(H) and C == sorted(C)
    # index arithmetic used by the assemblers matches the basis order
    bH, bC = basis_H(ctx), basis_C(ctx)
    for w in H:
        assert bH.index_of(w) == w.x * ctx.r + w.y - 1
    for z in C:
        assert bC.index_of(z) == z.x * (ell - 1) + z.y - 1


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_coset_space_cardinalities(ell):
    order = gl2_order(ell)
    assert order // subgroup_order("N", ell) == ell * (ell + 1) // 2
    assert order // subgroup_order("N'", ell) == ell * (ell - 1) // 2
    assert order // subgroup_order("C", ell) == ell * (ell + 1)
    assert order // subgroup_order("C'", ell) == ell * (ell - 1)


def test_pair_normalization_and_validation():
    p, q = aff(2), aff(5)
    assert UnorderedPair(q, p) == UnorderedPair(p, q)
    assert UnorderedPair(INFINITY, p).lo == p   # infinity sorts last
    with pytest.raises(ValueError):
        UnorderedPair(p, p)
    with pytest.raises(ValueError):
        OrderedPair(INFINITY, INFINITY)
    assert OrderedPair(q, p) != OrderedPair(p, q)


def test_string_forms():
    assert str(INFINITY) == "inf"
    assert str(aff(4)) == "4"
    assert str(UnorderedPair(aff(0), INFINITY)) == "{0,inf}"
    assert str(OrderedPair(aff(2), aff(5))) == "(2,5)"
    assert str(CartanPoint(3, 2)) == "3+2*se"
    assert parse_point("inf", 7) == INFINITY
    assert parse_point("12", 7) == aff(5)


def test_mobius_examples(contexts):
    ell = 7
    assert mobius_act(IDENTITY, aff(5), ell) == aff(5)
    # (b a; 1 1) sends infinity to b
    g = GroupElement(5, 2, 1, 1)
    assert mobius_act(g, INFINITY, ell) == aff(5)
    swap = GroupElement(0, 1, 1, 0)
    assert mobius_act(swap, aff(0), ell) == INFINITY
    assert mobius_act(swap, INFINITY, ell) == aff(0)


def test_cartan_examples(contexts):
    ctx = contexts[7]
    assert cartan_act(IDENTITY, CartanPoint(2, 3), ctx) == CartanPoint(2, 3)
    shift = GroupElement(1, 1, 0, 1)
    for z in enumerate_C(ctx):
        assert cartan_act(shift, z, ctx) == CartanPoint((z.x + 1) % 7, z.y)
    # (0 eps; 1 0) fixes se: eps/se = se
    m = GroupElement(0, ctx.epsilon, 1, 0)
    assert cartan_act(m, CartanPoint(0, 1), ctx) == CartanPoint(0, 1)


def test_cartan_point_validation():
    with pytest.raises(ValueError):
        cartan_point(1, 0, 7)
    with pytest.raises(ValueError):
        orbit_of(1, 7, 7)
    assert orbit_of(2, 5, 7) == CartanOrbit(2, 2)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_action_laws(ell, contexts):
    ctx = contexts[ell]
    rng = random.Random(f"laws:{ell}")
    pts = enumerate_p1(ctx)
    for _ in range(40):
        g = random_invertible(rng, ell)
        h = random_invertible(rng, ell)
        gh = mat_mul(g, h, ell)
        p = pts[rng.randrange(len(pts))]
        assert mobius_act(gh, p, ell) == mobius_act(g, mobius_act(h, p, ell), ell)
        z = CartanPoint(rng.randrange(ell), rng.randrange(1, ell))
        assert cartan_act(gh, z, ctx) == cartan_act(g, cartan_act(h, z, ctx), ctx)
        w = orbit_of(z.x, z.y, ell)
        assert orbit_act(gh, w, ctx) == orbit_act(g, orbit_act(h, w, ctx), ctx)
        assert mobius_act(IDENTITY, p, ell) == p
        assert orbit_act(IDENTITY, w, ctx) == w
        # the orbit action commutes with the projection C_ell -> H_ell
        zg = cartan_act(g, z, ctx)
        assert orbit_act(g, w, ctx) == orbit_of(zg.x, zg.y, ell)
        # inverse undoes the action
        assert cartan_act(mat_inv(g, ell), zg, ctx) == z


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_index_encoders_and_generator_permutations(ell, contexts):
    """The closed-form indices follow the Basis order, and each generator of
    GL2 permutes every basis the way the dataclass actions say."""
    ctx = contexts[ell]
    assert [p1_index(p, ell) for p in enumerate_p1(ctx)] == list(range(ell + 1))
    unordered, ordered = basis_unordered_pairs(ctx), basis_ordered_pairs(ctx)
    H, C = basis_H(ctx), basis_C(ctx)
    for e in unordered:
        i, j = p1_index(e.lo, ell), p1_index(e.hi, ell)
        assert unordered_pair_index(i, j, ell) == unordered.index_of(e)
        assert unordered_pair_index(j, i, ell) == unordered.index_of(e)
    for e in ordered:
        i, j = p1_index(e.first, ell), p1_index(e.second, ell)
        assert ordered_pair_index(i, j, ell) == ordered.index_of(e)
    for w in H:
        assert orbit_index(w.x, w.y, ell) == H.index_of(w)
        assert orbit_index(w.x, ell - w.y, ell) == H.index_of(w)
    for z in C:
        assert cartan_index(z.x, z.y, ell) == C.index_of(z)
    moved = [
        (unordered, lambda h, e: UnorderedPair(mobius_act(h, e.lo, ell),
                                               mobius_act(h, e.hi, ell))),
        (ordered, lambda h, e: OrderedPair(mobius_act(h, e.first, ell),
                                           mobius_act(h, e.second, ell))),
        (H, lambda h, e: orbit_act(h, e, ctx)),
        (C, lambda h, e: cartan_act(h, e, ctx)),
    ]
    for basis, act in moved:
        assert permutation(IDENTITY, basis.tag, ctx).tolist() == list(range(len(basis)))
        for h in generators(ctx):
            perm = permutation(h, basis.tag, ctx).tolist()
            assert sorted(perm) == list(range(len(basis)))
            assert [basis.elements[i] for i in perm] == [act(h, e) for e in basis]
    for h in generators(ctx):
        assert sorted(mobius_act(h, p, ell) for p in enumerate_p1(ctx)) \
            == sorted(enumerate_p1(ctx))


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_chart_round_trips_exhaustive(ell, contexts):
    ctx = contexts[ell]
    # split TN / TM charts over all affine unordered pairs
    seen_tn = set()
    for pair in enumerate_pairs_unordered(ctx):
        if not pair.is_affine:
            continue
        tn = pair_to_tn(pair, ctx)
        disc = (tn.t * tn.t - 4 * tn.n) % ell
        assert disc != 0 and legendre(disc, ell) == 1
        assert tn_to_pair(tn, ctx) == pair
        tm = tn_to_tm(tn, ctx)
        assert legendre(tm.m, ell) == 1
        assert tm_to_tn(tm, ctx) == tn
        seen_tn.add(tn)
    assert len(seen_tn) == ell * (ell - 1) // 2
    # nonsplit TN / TM charts over all of H_ell
    seen = set()
    for w in enumerate_H(ctx):
        tn = orbit_to_tn(w, ctx)
        disc = (tn.t * tn.t - 4 * tn.n) % ell
        assert legendre(disc, ell) == -1
        assert tn_to_orbit(tn, ctx) == w
        tm = nonsplit_tn_to_tm(tn, ctx)
        assert legendre(tm.m, ell) == -1
        assert nonsplit_tm_to_tn(tm, ctx) == tn
        seen.add(tn)
    assert len(seen) == ell * (ell - 1) // 2
    # difference charts
    for pair in enumerate_pairs_ordered(ctx):
        if not pair.is_affine:
            continue
        d = pair_to_diff(pair, ctx)
        assert d.tp != 0
        assert diff_to_pair(d, ctx) == pair
    for z in enumerate_C(ctx):
        d = cartan_to_diff(z, ctx)
        assert d.tp != 0
        assert diff_to_cartan(d, ctx) == z


def test_chart_examples(contexts):
    ctx = contexts[5]
    pair = UnorderedPair(aff(1), aff(2))
    assert pair_to_tn(pair, ctx) == (3, 2)
    assert tn_to_pair(pair_to_tn(pair, ctx), ctx) == pair
    assert tn_to_tm(pair_to_tn(pair, ctx), ctx) == (3, 1)


def test_chart_domain_errors(contexts):
    ctx = contexts[5]
    with pytest.raises(ValueError):
        pair_to_tn(UnorderedPair(aff(1), INFINITY), ctx)
    with pytest.raises(ValueError):
        pair_to_diff(OrderedPair(INFINITY, aff(1)), ctx)
    from cartanmaps.geometry import SplitPairTN
    with pytest.raises(ValueError):
        tn_to_pair(SplitPairTN(0, 0), ctx)   # disc = 0


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_group_element_helpers(ell):
    rng = random.Random(f"mat:{ell}")
    for _ in range(50):
        m = random_invertible(rng, ell)
        assert det_mod(m, ell) != 0
        assert mat_mul(m, mat_inv(m, ell), ell) == IDENTITY
