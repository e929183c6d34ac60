import random

import numpy as np
import pytest

from cartanmaps.correspondence import pair_text
from cartanmaps.geometry import (
    GroupElement,
    IDENTITY,
    cartan_index,
    decode,
    det_mod,
    generators,
    gl2_order,
    mat_inv,
    mat_mul,
    move_cartan,
    move_p1,
    orbit_index,
    ordered_pair_index,
    permutation,
    stack,
    subgroup_order,
    transporters,
    unordered_pair_index,
)
from cartanmaps.modular_arith import PrimeContext, legendre

from conftest import (PRIMES_ALL, PRIMES_SMALL, carrier, fq_move, p1_move, pair_label,
                      random_invertible)

TAGS = ("unordered_pairs", "ordered_pairs", "H_ell", "C_ell")


def elements(tag, ell):
    """The coordinates of every element of the basis with this tag, as a list
    of (u, v) in the basis order."""
    return list(zip(*(c.tolist() for c in decode(tag, ell))))


def test_set_sizes_examples():
    assert len(elements("unordered_pairs", 3)) == 6
    assert len(elements("H_ell", 3)) == 3
    assert len(elements("C_ell", 5)) == 20


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_enumerations_are_canonical(ell):
    r = (ell - 1) // 2
    up, op, H, C = (elements(tag, ell) for tag in TAGS)
    p1 = range(ell + 1)  # infinity is ell, last
    assert up == [(i, j) for i in p1 for j in p1 if i < j]
    assert op == [(i, j) for i in p1 for j in p1 if i != j]
    assert H == [(x, y) for x in range(ell) for y in range(1, r + 1)]
    assert C == [(x, y) for x in range(ell) for y in range(1, ell)]
    assert (len(up), len(op), len(H), len(C)) == (ell * (ell + 1) // 2, ell * (ell + 1),
                                                  ell * (ell - 1) // 2, ell * (ell - 1))
    # index arithmetic used by the assemblers matches the basis order
    assert [orbit_index(x, y, ell) for x, y in H] == list(range(len(H)))
    assert [cartan_index(x, y, ell) for x, y in C] == list(range(len(C)))
    # the arrays are kept for the process and cannot be written
    assert decode("C_ell", ell) is decode("C_ell", ell)
    assert not any(a.flags.writeable for tag in TAGS for a in decode(tag, ell))
    with pytest.raises(ValueError, match="no basis"):
        decode("P1", ell)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_coset_space_cardinalities(ell):
    order = gl2_order(ell)
    assert order // subgroup_order("N", ell) == ell * (ell + 1) // 2
    assert order // subgroup_order("N'", ell) == ell * (ell - 1) // 2
    assert order // subgroup_order("C", ell) == ell * (ell + 1)
    assert order // subgroup_order("C'", ell) == ell * (ell - 1)


def test_pair_normalization_and_validation():
    """An unordered pair has one index whichever member comes first, infinity
    sorting last; the two orders of an ordered pair have two."""
    ell = 7
    assert unordered_pair_index(5, 2, ell) == unordered_pair_index(2, 5, ell)
    assert elements("unordered_pairs", ell)[unordered_pair_index(ell, 2, ell)] == (2, ell)
    assert ordered_pair_index(5, 2, ell) != ordered_pair_index(2, 5, ell)
    assert elements("ordered_pairs", ell)[ordered_pair_index(ell, 2, ell)] == (ell, 2)


def test_string_forms(capsys):
    """Pairs print as {i,j} and (i,j) with infinity as inf; plot reads inf and
    reduces an integer mod ell."""
    from cartanmaps.cli import main

    assert pair_text("unordered_pairs", 0, 7, 7) == "{0,inf}"
    assert pair_text("ordered_pairs", 2, 5, 7) == "(2,5)"
    assert pair_text("ordered_pairs", 7, 5, 7) == pair_label("ordered_pairs", 7, 5, 7)
    assert main(["plot", "--ell", "7", "--pair", "12, inf "]) == 0
    assert capsys.readouterr().out.startswith("# geodesic {5,inf} (ell=7)\n")
    assert main(["plot", "--ell", "7", "--pair", "inf,-1", "--slope", "2"]) == 0
    assert capsys.readouterr().out.startswith("# path (inf,6) slope 2 (ell=7)\n")


def test_mobius_examples():
    ell = 7
    assert move_p1(IDENTITY, 5, ell) == 5
    # (b a; 1 1) sends infinity to b
    g = GroupElement(5, 2, 1, 1)
    assert move_p1(g, ell, ell) == 5
    swap = GroupElement(0, 1, 1, 0)
    assert move_p1(swap, 0, ell) == ell
    assert move_p1(swap, ell, ell) == 0


def test_cartan_examples(contexts):
    ctx = contexts[7]
    assert move_cartan(IDENTITY, 2, 3, ctx) == (2, 3)
    shift = GroupElement(1, 1, 0, 1)
    x, y = decode("C_ell", 7)
    nx, ny = move_cartan(shift, x, y, ctx)
    assert np.array_equal(nx, (x + 1) % 7) and np.array_equal(ny, y)
    # (0 eps; 1 0) fixes se: eps/se = se
    m = GroupElement(0, ctx.epsilon, 1, 0)
    assert move_cartan(m, 0, 1, ctx) == (0, 1)


def test_orbit_index_reads_either_conjugate():
    """x + y*se and x - y*se are one class of H_ell, stored with 1 <= y <= r."""
    assert orbit_index(2, 5, 7) == orbit_index(2, 2, 7) == 2 * 3 + 1
    assert elements("H_ell", 7)[orbit_index(4, 6, 7)] == (4, 1)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_action_laws(ell, contexts):
    """move_p1 and move_cartan agree with the Python-int references, compose
    as actions, fix every point under the identity and are undone by the
    inverse; the action on C_ell maps conjugates to conjugates, so it
    descends to H_ell."""
    ctx = contexts[ell]
    rng = random.Random(f"laws:{ell}")
    for _ in range(40):
        g = random_invertible(rng, ell)
        h = random_invertible(rng, ell)
        gh = mat_mul(g, h, ell)
        p = rng.randrange(ell + 1)
        assert move_p1(gh, p, ell) == move_p1(g, move_p1(h, p, ell), ell) == p1_move(gh, p, ell)
        assert move_p1(IDENTITY, p, ell) == p
        x, y = rng.randrange(ell), rng.randrange(1, ell)
        zg = move_cartan(g, x, y, ctx)
        assert zg == fq_move(g, x, y, ctx)
        assert move_cartan(gh, x, y, ctx) == move_cartan(g, *move_cartan(h, x, y, ctx), ctx)
        assert move_cartan(g, x, ell - y, ctx) == (zg[0], (ell - zg[1]) % ell)
        assert orbit_index(*move_cartan(g, x, ell - y, ctx), ell) == orbit_index(*zg, ell)
        # inverse undoes the action
        assert move_cartan(mat_inv(g, ell), *zg, ctx) == (x, y)
    # every element at once, on one random element, against the references
    g = random_invertible(rng, ell)
    p = np.arange(ell + 1)
    assert move_p1(g, p, ell).tolist() == [p1_move(g, i, ell) for i in p.tolist()]
    x, y = decode("C_ell", ell)
    assert list(zip(*(c.tolist() for c in move_cartan(g, x, y, ctx)))) \
        == [fq_move(g, *z, ctx) for z in elements("C_ell", ell)]


@pytest.mark.parametrize(
    "ctx", [pytest.param(PrimeContext(ell), id=str(ell)) for ell in PRIMES_SMALL]
    + [pytest.param(PrimeContext(13, 5, 7), id="13-eps5-g7")])
def test_index_encoders_and_generator_permutations(ctx):
    """The closed-form indices invert decode, the closed-form transporters
    carry the base object to each element, and each generator of GL2
    permutes every basis the way the Python-int references of the actions
    say."""
    ell = ctx.ell
    r = (ell - 1) // 2

    def class_move(h, x, y):
        u, v = fq_move(h, x, y, ctx)
        return u, min(v, ell - v)

    moved = {
        "unordered_pairs": lambda h, i, j: tuple(sorted((p1_move(h, i, ell),
                                                         p1_move(h, j, ell)))),
        "ordered_pairs": lambda h, i, j: (p1_move(h, i, ell), p1_move(h, j, ell)),
        "H_ell": class_move,
        "C_ell": lambda h, x, y: fq_move(h, x, y, ctx),
    }
    index = {"unordered_pairs": unordered_pair_index, "ordered_pairs": ordered_pair_index,
             "H_ell": orbit_index, "C_ell": cartan_index}
    for tag in TAGS:
        els = elements(tag, ell)
        everything = list(range(len(els)))
        assert [index[tag](u, v, ell) for u, v in els] == everything
        if tag == "unordered_pairs":
            assert [index[tag](j, i, ell) for i, j in els] == everything
        if tag == "H_ell":
            assert [index[tag](x, ell - y, ell) for x, y in els] == everything
            assert all(1 <= y <= r for _, y in els)
        x = transporters(tag, *decode(tag, ell), ell)
        for k, (u, v) in enumerate(els):
            g = GroupElement(*(int(entry[k]) for entry in x))
            assert det_mod(g, ell) != 0
            if tag in ("unordered_pairs", "ordered_pairs"):
                # g sends the base pair (0, inf) to (u, v), so {0, inf} to {u, v}
                assert (p1_move(g, 0, ell), p1_move(g, ell, ell)) == (u, v)
                assert g == carrier(u, v, ell)
            else:
                # g sends se to u + v*se
                assert g == GroupElement(v, u, 0, 1)
                assert fq_move(g, 0, 1, ctx) == (u, v)
        position = {e: k for k, e in enumerate(els)}
        assert permutation(IDENTITY, tag, ctx).tolist() == everything
        for h in generators(ctx):
            perm = permutation(h, tag, ctx).tolist()
            assert sorted(perm) == everything
            assert perm == [position[moved[tag](h, *e)] for e in els]
    for h in generators(ctx):
        assert sorted(move_p1(h, np.arange(ell + 1), ell).tolist()) == list(range(ell + 1))


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_chart_round_trips_exhaustive(ell, contexts):
    """The charts verify_chart_conjugacy reads are bijections: (t, m) =
    (a + b, (a - b)^2) from the affine unordered pairs onto the (t, m) with m
    a nonzero square, and (T, M) = (2x, 4 eps y^2) from H_ell onto the
    (T, M) with M a non-square, each undone by its inverse (square roots by
    brute force).  In them psi+ on the affine pairs has its ones exactly
    where (T - t)^2 = m + M."""
    from cartanmaps.correspondence import geodesic_incidence
    from conftest import incidence_sets

    ctx = contexts[ell]
    eps = ctx.epsilon
    half = pow(2, -1, ell)
    roots = {}
    for v in range(1, ell):
        roots.setdefault(v * v % ell, []).append(v)
    split = {}
    for a, b in elements("unordered_pairs", ell):
        if b == ell:
            continue
        t, m = (a + b) % ell, (a - b) ** 2 % ell
        assert legendre(m, ell) == 1
        assert {(t + d) * half % ell for d in roots[m]} == {a, b}
        split[t, m] = (a, b)
    assert len(split) == ell * (ell - 1) // 2
    nonsplit = {}
    for x, y in elements("H_ell", ell):
        T, M = 2 * x % ell, 4 * eps * y * y % ell
        assert legendre(M, ell) == -1
        # M / (4 eps) = y^2, whose root in 1..r is y
        assert (T * half % ell, min(roots[M * pow(4 * eps, -1, ell) % ell])) == (x, y)
        nonsplit[T, M] = (x, y)
    assert len(nonsplit) == ell * (ell - 1) // 2
    cols = incidence_sets(geodesic_incidence(ctx), "H_ell", "unordered_pairs", ell)
    for (t, m), pair in split.items():
        assert cols[pair] == {z for (T, M), z in nonsplit.items()
                              if (T - t) ** 2 % ell == (m + M) % ell}


def test_chart_examples(contexts):
    """At ell = 5 (eps = 2) the pair {1, 2} has (t, n) = (a + b, ab) = (3, 2)
    and (t, m) = (3, 1); its geodesic holds the classes whose (T, M) =
    (2x, 4 eps y^2) satisfy (T - 3)^2 = 1 + M."""
    from cartanmaps.correspondence import geodesic_incidence
    from conftest import incidence_sets

    ctx = contexts[5]
    t, n = (1 + 2) % 5, 1 * 2 % 5
    assert (t, n, (t * t - 4 * n) % 5) == (3, 2, 1)
    geodesic = incidence_sets(geodesic_incidence(ctx), "H_ell", "unordered_pairs", 5)[1, 2]
    assert geodesic == {(x, y) for x, y in elements("H_ell", 5)
                        if (2 * x - t) ** 2 % 5 == (1 + 4 * ctx.epsilon * y * y) % 5}
    assert geodesic == {(0, 1), (3, 1)}


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_group_element_helpers(ell):
    rng = random.Random(f"mat:{ell}")
    ms = [random_invertible(rng, ell) for _ in range(50)]
    for m in ms:
        assert det_mod(m, ell) != 0
        assert mat_mul(m, mat_inv(m, ell), ell) == IDENTITY
    # a stack is inverted in one call, element by element
    inverses = mat_inv(stack(ms), ell)
    assert list(zip(*(e.tolist() for e in inverses))) == [mat_inv(m, ell) for m in ms]
    # a singular element is refused, alone or in a stack
    for singular in (GroupElement(1, 2, 2, 4), stack(ms + [GroupElement(0, 0, 0, 0)])):
        with pytest.raises(ValueError, match="singular"):
            mat_inv(singular, ell)
