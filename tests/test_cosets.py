import dataclasses
import json
import random

import numpy as np
import pytest

from cartanmaps import cosets
from cartanmaps.cli import main, run_verification
from cartanmaps.correspondence import build_H_s, build_psi_plus
from cartanmaps.cosets import (
    DoubleCosetDecomposition,
    NAMED_KINDS,
    NONSPLIT_CARTAN,
    NORMALIZER_NONSPLIT,
    NORMALIZER_SPLIT,
    SPLIT_CARTAN,
    SubgroupSpec,
    coset_key,
    coset_incidence,
    coset_operator,
    decompose,
    decompose_all,
    enumerate_subgroup,
    named_transversal,
)
from cartanmaps.geometry import (
    STABILISERS,
    GroupElement,
    IDENTITY,
    act,
    base_object,
    decode,
    det_mod,
    gl2_order,
    mat_inv,
    mat_mul,
    stack,
    subgroup_order,
)
from cartanmaps.modular_arith import PrimeContext

from conftest import PRIMES_ALL, PRIMES_SMALL, random_invertible, subgroup, transversal


def listed_stack(stacked):
    """A stack of group elements as GroupElements of ints, in its order."""
    return [GroupElement._make(m) for m in zip(*(a.tolist() for a in stacked))]


def listed(sub):
    """The elements of a subgroup, in its order."""
    return listed_stack(sub.stacked)


def listed_reps(dec):
    """The representatives of a family, in g order and in H order within
    each g."""
    return listed_stack(dec.representatives)


def test_subgroup_sizes_examples(contexts):
    assert len(subgroup(SPLIT_CARTAN, contexts[3])) == 4
    assert len(enumerate_subgroup(NORMALIZER_NONSPLIT, contexts[3])) == 16
    ctx5 = contexts[5]
    for kind in NAMED_KINDS:
        assert len(subgroup(kind, ctx5)) == subgroup_order(kind, 5)
    # C and N enter verify by their transversals alone; the Borel subgroup
    # has no G-set here, so it is no named kind
    for kind in (SPLIT_CARTAN, NORMALIZER_SPLIT, "Z", "B"):
        with pytest.raises(ValueError):
            enumerate_subgroup(kind, ctx5)


@pytest.mark.parametrize("ctx", [PrimeContext(ell) for ell in PRIMES_SMALL]
                         + [PrimeContext(13, 5, 7)], ids=str)
def test_stabilisers_fix_the_base_objects(ctx):
    """geometry.STABILISERS against route 2's own subgroups: every element
    of the stabiliser of a G-set fixes its base object under act, and the
    G-set is as large as the index of the stabiliser."""
    ell = ctx.ell
    for tag, kind in STABILISERS.items():
        base = base_object(tag, ell)
        fixed = act(IDENTITY, tag, *base, ctx)
        K = subgroup(kind, ctx)
        assert (act(K.stacked, tag, *base, ctx) == fixed).all(), tag
        assert len(decode(tag, ell)[0]) * subgroup_order(kind, ell) == gl2_order(ell), tag


@pytest.mark.parametrize("kind", NAMED_KINDS)
def test_named_subgroups_are_groups(kind, contexts):
    ell = 5
    elements = listed(subgroup(kind, contexts[ell]))
    members = set(elements)
    assert len(members) == len(elements)
    assert IDENTITY in members
    for m in elements:
        assert det_mod(m, ell) != 0
        assert mat_inv(m, ell) in members
        assert {mat_mul(m, n, ell) for n in elements} <= members


def test_normalizer_normalizes(contexts):
    ctx = contexts[5]
    C = set(listed(subgroup(SPLIT_CARTAN, ctx)))
    N = subgroup(NORMALIZER_SPLIT, ctx)
    for n in listed(N):
        ninv = mat_inv(n, 5)
        assert {mat_mul(mat_mul(n, c, 5), ninv, 5) for c in C} == C
    Cp = set(listed(enumerate_subgroup(NONSPLIT_CARTAN, ctx)))
    Np = enumerate_subgroup(NORMALIZER_NONSPLIT, ctx)
    for n in listed(Np):
        ninv = mat_inv(n, 5)
        assert {mat_mul(mat_mul(n, c, 5), ninv, 5) for c in Cp} == Cp


def test_stacked_elements_are_cached_and_read_only(contexts):
    sub = enumerate_subgroup(NORMALIZER_NONSPLIT, contexts[5])
    stacked = sub.stacked
    assert sub.stacked is stacked
    assert all(a.dtype == np.int64 and len(a) == len(sub) for a in stacked)
    with pytest.raises(ValueError):
        stacked.a[0] = 0


def test_decompose_examples(contexts):
    ctx7 = contexts[7]
    dec = decompose(named_transversal(NORMALIZER_SPLIT, ctx7), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx7), ctx7)
    assert dec.degrees.tolist() == [3]
    ctx5 = contexts[5]
    dec2 = decompose(named_transversal(SPLIT_CARTAN, ctx5),
                     GroupElement(1, 2, 0, 1),
                     enumerate_subgroup(NONSPLIT_CARTAN, ctx5), ctx5)
    assert dec2.degrees.tolist() == [4]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_decompose_disjoint_cover(ell, contexts):
    """The cosets alpha*g*K are pairwise disjoint and union to HgK."""
    ctx = contexts[ell]
    cases = [
        (NORMALIZER_SPLIT, IDENTITY, NORMALIZER_NONSPLIT),
        (SPLIT_CARTAN, GroupElement(1, 1, 0, 1), NONSPLIT_CARTAN),
    ]
    for hk, g, kk in cases:
        H = subgroup(hk, ctx)
        K = subgroup(kk, ctx)
        dec = decompose(transversal(H, ctx), g, K, ctx)
        union = set()
        for alpha in listed_reps(dec):
            coset = {mat_mul(mat_mul(alpha, g, ell), k, ell) for k in listed(K)}
            assert len(coset) == len(K)
            assert not (union & coset)
            union |= coset
        hgk = {mat_mul(mat_mul(h, g, ell), k, ell)
               for h in listed(H) for k in listed(K)}
        assert union == hgk
        assert dec.degrees[0] * len(K) == len(hgk)


@pytest.mark.parametrize("ell", [5, 7])
def test_degree_invariance_under_double_coset_choice(ell, contexts):
    """deg(HgK) = deg(Hg'K) whenever Hg'K = HgK; sample g' = h*g*k."""
    ctx = contexts[ell]
    rng = random.Random(f"deg:{ell}")
    H = subgroup(SPLIT_CARTAN, ctx)
    K = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    g = GroupElement(1, 2, 0, 1)
    T = transversal(H, ctx)
    base = decompose(T, g, K, ctx)
    for _ in range(5):
        h = listed(H)[rng.randrange(len(H))]
        k = listed(K)[rng.randrange(len(K))]
        gp = mat_mul(mat_mul(h, g, ell), k, ell)
        assert decompose(T, gp, K, ctx).degrees.tolist() == base.degrees.tolist()


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_degree_formulas(ell):
    ctx = PrimeContext(ell)
    dec = decompose(named_transversal(NORMALIZER_SPLIT, ctx), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
    assert dec.degrees.tolist() == [(ell - 1) // 2]
    C = named_transversal(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    for s in (1, 2, ell - 1):
        assert decompose(C, GroupElement(1, s, 0, 1), Cp, ctx).degrees.tolist() == [ell - 1]


@pytest.mark.parametrize("ell", [3, 5])
def test_coincidence_with_geometric_maps(ell, contexts):
    ctx = contexts[ell]
    dec = decompose(named_transversal(NORMALIZER_SPLIT, ctx), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
    assert coset_operator(dec, ctx) == build_psi_plus(ctx)
    C = named_transversal(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    for s in range(1, ell):
        dec_s = decompose(C, GroupElement(1, s, 0, 1), Cp, ctx)
        assert coset_operator(dec_s, ctx) == build_H_s(ctx, s)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_coset_operator_row_sums_constant(ell, contexts):
    # |pairs| * degree incidences spread evenly over |H_ell| rows: (ell+1)/2 each
    ctx = contexts[ell]
    dec = decompose(named_transversal(NORMALIZER_SPLIT, ctx), IDENTITY,
                    enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
    op = coset_operator(dec, ctx)
    assert set(op.data.sum(axis=1).tolist()) == {(ell + 1) // 2}


def test_coset_operator_representative_independence(contexts):
    """Replacing each alpha by another member of its coset leaves the matrix fixed."""
    ctx = contexts[5]
    ell = 5
    H = subgroup(SPLIT_CARTAN, ctx)
    K = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    g = GroupElement(1, 2, 0, 1)
    dec = decompose(transversal(H, ctx), g, K, ctx)
    base = coset_operator(dec, ctx)
    ginv = mat_inv(g, ell)
    members = set(listed(H))
    stab = [u for u in (mat_mul(mat_mul(g, k, ell), ginv, ell) for k in listed(K))
            if u in members]
    rng = random.Random("reps")
    for _ in range(3):
        reps = [mat_mul(alpha, stab[rng.randrange(len(stab))], ell)
                for alpha in listed_reps(dec)]
        shuffled = dataclasses.replace(dec, representatives=stack(reps))
        assert coset_operator(shuffled, ctx) == base


def test_coset_operator_takes_a_one_g_family(contexts):
    ctx = contexts[5]
    C = named_transversal(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    dec = decompose_all(C, stack([GroupElement(1, s, 0, 1) for s in (1, 2)]), Cp, ctx)
    with pytest.raises(ValueError, match="one-g family"):
        coset_operator(dec, ctx)


def test_coset_operator_rejects_unidentified_kinds(contexts):
    """A subgroup that stabilises no base object has no G-set: the scalars,
    which lie in N', decompose on the left of N' but induce no operator, and
    cannot stand on the right, where the cosets are keyed."""
    ctx = contexts[3]
    scalars = SubgroupSpec("scalars", stack([GroupElement(a, 0, 0, a) for a in (1, 2)]))
    Np = enumerate_subgroup(NORMALIZER_NONSPLIT, ctx)
    dec = decompose(transversal(scalars, ctx), IDENTITY, Np, ctx)
    with pytest.raises(ValueError, match="no basis identification"):
        coset_operator(dec, ctx)
    with pytest.raises(ValueError, match="no basis identification"):
        decompose(transversal(Np, ctx), IDENTITY, scalars, ctx)


def test_coset_key_identifies_cosets(contexts):
    """m and m' key equal iff they lie in the same right coset mK."""
    ctx = contexts[3]
    ell = 3
    rng = random.Random("keys")
    for kind in NAMED_KINDS:
        K = subgroup(kind, ctx)
        for _ in range(20):
            m = random_invertible(rng, ell)
            mp = random_invertible(rng, ell)
            same_coset = mat_mul(mat_inv(m, ell), mp, ell) in set(listed(K))
            assert (coset_key(K, m, ctx) == coset_key(K, mp, ctx)) == same_coset
    # a kind without a geometric identification has no key
    with pytest.raises(ValueError, match="no basis identification"):
        coset_key(SubgroupSpec("scalars", stack([IDENTITY])), IDENTITY, ctx)


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
    }[kind]


ORDER_CONTEXTS = [PrimeContext(3), PrimeContext(5), PrimeContext(7),
                  PrimeContext(13, 5, 7)]


@pytest.mark.parametrize("ctx", ORDER_CONTEXTS, ids=str)
def test_enumerate_subgroup_keeps_the_element_order(ctx):
    for kind in NAMED_KINDS:
        sub = subgroup(kind, ctx)
        assert listed(sub) == listed_subgroup(kind, ctx), kind
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in sub.stacked)


def bucketed(H, g, K, ctx):
    """The per-g bucketing loop decompose_all replaced: the keys of h*g for
    every h of H, and the first h of each key kept, in H order."""
    buckets = {}
    keys = coset_key(K, mat_mul(H.stacked, g, ctx.ell), ctx)
    for h, key in zip(listed(H), keys.tolist()):
        buckets.setdefault(key, h)
    return len(buckets), list(buckets.values())


def assert_matches_bucketing(H, gs, K, ctx):
    """decompose_all's one family over the transversal of H/Z: the g's in
    order, and each g's degree and representatives those of the bucketing
    over all of H, in g order."""
    dec = decompose_all(transversal(H, ctx), stack(gs), K, ctx)
    assert (dec.H.kind, dec.K) == (H.kind, K)
    assert listed_stack(dec.g) == list(gs)
    want = [bucketed(H, g, K, ctx) for g in gs]
    assert dec.degrees.tolist() == [degree for degree, _ in want], (H, K)
    assert listed_reps(dec) == [h for _, reps in want for h in reps], (H, K)
    return dec


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_decompose_all_matches_the_bucketing_for_every_named_pair(ell, contexts):
    ctx = contexts[ell]
    rng = random.Random(f"named:{ell}")
    gs = [IDENTITY, GroupElement(1, 1, 0, 1), GroupElement(0, 1, 1, 0)]
    gs += [random_invertible(rng, ell) for _ in range(4)]
    subs = {kind: subgroup(kind, ctx) for kind in NAMED_KINDS}
    for H in subs.values():
        for K in subs.values():
            assert_matches_bucketing(H, gs, K, ctx)


@pytest.mark.parametrize("ctx", [PrimeContext(ell) for ell in PRIMES_ALL if ell <= 23]
                         + [PrimeContext(13, 5, 7)], ids=str)
def test_decompose_all_matches_the_bucketing_at_every_slope(ctx):
    ell = ctx.ell
    C = subgroup(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    gs = [GroupElement(1, s, 0, 1) for s in range(1, ell)]
    dec = assert_matches_bucketing(C, gs, Cp, ctx)
    assert dec.degrees.tolist() == [ell - 1] * (ell - 1)
    assert listed_reps(decompose(named_transversal(SPLIT_CARTAN, ctx), gs[-1], Cp, ctx)) \
        == listed_reps(dec)[-(ell - 1):]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_coset_incidence_of_a_family_is_each_gs_own(ell, contexts):
    """One broadcast for the family gives, g by g, the index array of the
    one-g family, also where the degrees differ between the g's."""
    ctx = contexts[ell]
    rng = random.Random(f"family:{ell}")
    gs = [GroupElement(1, s, 0, 1) for s in range(1, ell)]
    gs += [IDENTITY] + [random_invertible(rng, ell) for _ in range(4)]
    degrees = set()
    for hk, kk in ((SPLIT_CARTAN, NONSPLIT_CARTAN), (NORMALIZER_SPLIT, NORMALIZER_NONSPLIT),
                   (NONSPLIT_CARTAN, SPLIT_CARTAN)):
        H, K = transversal(subgroup(hk, ctx), ctx), subgroup(kk, ctx)
        dec = decompose_all(H, stack(gs), K, ctx)
        degrees.add(tuple(dec.degrees.tolist()))
        family = coset_incidence(dec, ctx)
        assert [len(keys) for keys in family] == dec.degrees.tolist()
        for g, keys in zip(gs, family):
            own, = coset_incidence(decompose(H, g, K, ctx), ctx)
            assert np.array_equal(keys, own), (hk, g, kk)
    # N g N' takes more than one degree over these g's
    assert any(len(set(per_g)) > 1 for per_g in degrees)


def first_nonzero_is_one(stacked):
    """Whether the first nonzero entry of each element of the stack is 1."""
    return (np.where(stacked.a != 0, stacked.a, stacked.b) == 1).all()


@pytest.mark.parametrize("ell", [3, 5, 7, 13, 31])
def test_the_transversal_decomposes_as_all_of_h(ell):
    """Bucketing the transversal of H/Z gives the degrees and the
    representatives, element for element, of the loop over every h of H:
    for N g N' at psi+'s g and others, and for C (1 s; 0 1) C' at every
    slope.  The representatives are the elements of H whose first nonzero
    entry is 1."""
    ctx = PrimeContext(ell)
    rng = random.Random(f"transversal:{ell}")
    families = {
        (NORMALIZER_SPLIT, NORMALIZER_NONSPLIT):
            [IDENTITY, GroupElement(1, 1, 0, 1)] + [random_invertible(rng, ell)
                                                    for _ in range(3)],
        (SPLIT_CARTAN, NONSPLIT_CARTAN): [GroupElement(1, s, 0, 1) for s in range(1, ell)],
    }
    for (hk, kk), gs in families.items():
        H, K = subgroup(hk, ctx), subgroup(kk, ctx)
        dec = assert_matches_bucketing(H, gs, K, ctx)
        assert dec.scalars_in_K is True
        assert first_nonzero_is_one(dec.representatives), hk


def first_of_each_class(H, ell):
    """The first element in H order of each class hZ, Z the scalars, by a
    loop that keys h by h over its first nonzero entry."""
    firsts = {}
    for h in listed(H):
        lead = pow(h.a or h.b, -1, ell)
        firsts.setdefault(tuple(e * lead % ell for e in h), h)
    return list(firsts.values())


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_the_closed_form_transversal_is_the_enumerated_one(ell):
    """The transversal of C/Z and N/Z that verify decomposes over, in closed
    form, is the one transversal reads off the enumerated subgroup, element
    for element and in order, and that of the loop over H; the other kinds
    have no closed form."""
    ctx = PrimeContext(ell)
    for kind in (SPLIT_CARTAN, NORMALIZER_SPLIT):
        H = subgroup(kind, ctx)
        T = named_transversal(kind, ctx)
        assert T.kind == transversal(H, ctx).kind == kind
        assert listed_stack(T.stacked) == listed_stack(transversal(H, ctx).stacked) \
            == first_of_each_class(H, ell), kind
        assert all(e.dtype == np.int64 for e in T.stacked)
    for kind in (NONSPLIT_CARTAN, NORMALIZER_NONSPLIT):
        with pytest.raises(ValueError, match="no closed-form transversal"):
            named_transversal(kind, ctx)


@pytest.mark.parametrize("ell", [3, 5, 7, 13])
def test_decompose_all_over_the_closed_form_transversal_is_that_over_h(ell):
    """Over the closed-form T, decompose_all gives the degrees and
    representatives of the bucketing over every h of the enumerated H, for
    N g N' and C (1 s; 0 1) C'."""
    ctx = PrimeContext(ell)
    rng = random.Random(f"closed-form:{ell}")
    gs = ([IDENTITY, GroupElement(0, 1, 1, 0)]
          + [GroupElement(1, s, 0, 1) for s in range(1, ell)]
          + [random_invertible(rng, ell) for _ in range(3)])
    for hk, kk in ((NORMALIZER_SPLIT, NORMALIZER_NONSPLIT), (SPLIT_CARTAN, NONSPLIT_CARTAN)):
        H, K = subgroup(hk, ctx), subgroup(kk, ctx)
        want = [bucketed(H, g, K, ctx) for g in gs]
        got = decompose_all(named_transversal(hk, ctx), stack(gs), K, ctx)
        assert got.H.kind == hk and got.degrees.tolist() == [d for d, _ in want]
        assert listed_reps(got) == [h for _, reps in want for h in reps]
        assert got.scalars_in_K is True


def test_verify_enumerates_neither_c_nor_n(monkeypatch, capsys):
    """verify enumerates K, C' and N', for its scalars and the index
    cross-check, and reads C and N through their closed-form transversals
    alone."""
    import cartanmaps.cli as cli_mod

    enumerated = []
    for module in (cli_mod, cosets):
        real = getattr(module, "enumerate_subgroup")
        monkeypatch.setattr(module, "enumerate_subgroup", lambda kind, ctx, real=real: (
            enumerated.append(kind) or real(kind, ctx)))
    assert main(["verify", "--ell-range", "3..13"]) == 0
    capsys.readouterr()
    assert enumerated == [NORMALIZER_NONSPLIT, NONSPLIT_CARTAN] * 5


def without_the_scalars(K):
    """K with its ell - 1 scalar matrices left out."""
    keep = ~((K.stacked.b == 0) & (K.stacked.c == 0) & (K.stacked.a == K.stacked.d))
    return SubgroupSpec(K.kind, GroupElement(*(e[keep] for e in K.stacked)))


def test_a_k_without_the_scalars_is_reported_not_cross_checked(contexts):
    """Without the scalars in K the cross-check over the transversal has no
    ground: it is not made, and the decomposition says so.  Its keys read
    K's base object, not its elements, so the degrees and representatives
    are still those of the loop over all of H."""
    ctx = contexts[7]
    C = subgroup(SPLIT_CARTAN, ctx)
    Cp = without_the_scalars(enumerate_subgroup(NONSPLIT_CARTAN, ctx))
    assert len(Cp) == subgroup_order(NONSPLIT_CARTAN, 7) - 6
    dec = assert_matches_bucketing(C, [GroupElement(1, s, 0, 1) for s in range(1, 7)],
                                   Cp, ctx)
    assert dec.scalars_in_K is False


@pytest.mark.parametrize("kind", [NONSPLIT_CARTAN, NORMALIZER_NONSPLIT])
def test_verify_fails_on_a_k_without_the_scalars(kind, capsys, monkeypatch):
    """An enumerated K without the scalars fails the run on its own line,
    and the degrees section reports the premise for that family alone."""
    import cartanmaps.cli as cli_mod

    enumerate_real = cli_mod.enumerate_subgroup
    monkeypatch.setattr(cli_mod, "enumerate_subgroup", lambda k, ctx: (
        without_the_scalars(enumerate_real(k, ctx)) if k == kind else enumerate_real(k, ctx)))
    assert main(["verify", "--ell", "5"]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["failures"] == [f"{kind} does not hold the scalars: the double coset "
                               f"degrees are not cross-checked"]
    family = "NNp" if kind == NORMALIZER_NONSPLIT else "CCp"
    assert {name: section["scalars_in_K"] for name, section in run["degrees"].items()} \
        == {"NNp": family != "NNp", "CCp": family != "CCp"}
    assert run["degrees"]["NNp"]["ok"] and run["degrees"]["CCp"]["ok"]


def test_decompose_all_does_not_depend_on_the_chunks(monkeypatch, contexts):
    ctx = contexts[13]
    C = named_transversal(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    gs = stack([GroupElement(1, s, 0, 1) for s in range(1, 13)])
    whole = decompose_all(C, gs, Cp, ctx)
    # a budget below |K| leaves one g per chunk
    monkeypatch.setattr(cosets, "_DECOMPOSE_ENTRIES", 1)
    one_by_one = decompose_all(C, gs, Cp, ctx)
    for field in ("g", "representatives"):
        assert (listed_stack(getattr(one_by_one, field))
                == listed_stack(getattr(whole, field)))
    assert one_by_one.degrees.tolist() == whole.degrees.tolist()


def test_decompose_all_keeps_its_arrays_within_the_budget(monkeypatch):
    """The (|T|, chunk) arrays stay within the entry budget: at 61 the 60
    slopes make one chunk of the 60 x 60 products of T, and with a budget
    of 1000 entries the same family goes in chunks of 16 slopes."""
    ctx = PrimeContext(61)
    C = named_transversal(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    gs = stack([GroupElement(1, s, 0, 1) for s in range(1, 61)])
    sizes = []

    def recorded(m, n, ell):
        out = mat_mul(m, n, ell)
        sizes.append(np.size(out.a))
        return out

    monkeypatch.setattr(cosets, "mat_mul", recorded)
    dec = decompose_all(C, gs, Cp, ctx)
    assert dec.degrees.tolist() == [60] * 60
    assert max(sizes) == 60 * 60 <= cosets._DECOMPOSE_ENTRIES
    sizes.clear()
    monkeypatch.setattr(cosets, "_DECOMPOSE_ENTRIES", 1000)
    assert decompose_all(C, gs, Cp, ctx).degrees.tolist() == [60] * 60
    assert max(sizes) == 60 * 16 <= 1000


def test_a_wrong_stabilizer_fails_the_degree_cross_check(monkeypatch, contexts):
    """Conjugating K by g instead of g^-1 breaks the index the degree is
    checked against, not the keys, so every slope reports the mismatch, over
    the 6 elements of the transversal of C/Z."""
    ctx = contexts[7]
    C = named_transversal(SPLIT_CARTAN, ctx)
    Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
    inverted = []
    monkeypatch.setattr(cosets, "mat_inv", lambda m, ell: inverted.append(m) or m)
    for s in range(1, 7):
        with pytest.raises(AssertionError, match="degree mismatch: 6 buckets vs index 6/"):
            decompose_all(C, stack([GroupElement(1, s, 0, 1)]), Cp, ctx)
    # the slopes of one family are inverted in one call, as one stack
    inverted.clear()
    with pytest.raises(AssertionError, match="degree mismatch: 6 buckets vs index 6/"):
        decompose_all(C, stack([GroupElement(1, s, 0, 1) for s in range(1, 7)]), Cp, ctx)
    assert len(inverted) == 1 and inverted[0].b.tolist() == [1, 2, 3, 4, 5, 6]


def test_verify_never_lists_a_whole_subgroup(monkeypatch, capsys):
    """verify works on the subgroups' arrays only: one decomposition per
    family, psi+'s one g and every slope's, with stacked representatives."""
    made = []

    class Recorded(DoubleCosetDecomposition):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cosets, "DoubleCosetDecomposition", Recorded)
    assert main(["verify", "--ell-range", "3..11"]) == 0
    capsys.readouterr()
    ells = [3, 5, 7, 11]
    assert [(d.H.kind, len(d.degrees)) for d in made] == [
        pair for ell in ells for pair in ((NORMALIZER_SPLIT, 1), (SPLIT_CARTAN, ell - 1))]
    assert all(isinstance(d.representatives.a, np.ndarray) for d in made)
    assert not hasattr(SubgroupSpec, "elements")


# ---------------------------------------------------------------------------
# Route 2's outputs, pinned byte for byte.
# ---------------------------------------------------------------------------

PINNED_SECTIONS = {
    3: '{"degrees": {"NNp": {"degree": 1, "expected": 1, "ok": true, "scalars_in_K": true}, '
       '"CCp": {"degrees": {"1": 2, "2": 2}, "expected": 2, "ok": true, "scalars_in_K": true}}, '
       '"coincidence": {"checked": true, "psi_plus": true, "h_s": true}}',
    5: '{"degrees": {"NNp": {"degree": 2, "expected": 2, "ok": true, "scalars_in_K": true}, '
       '"CCp": {"degrees": {"1": 4, "2": 4, "3": 4, "4": 4}, "expected": 4, "ok": true, '
       '"scalars_in_K": true}}, '
       '"coincidence": {"checked": true, "psi_plus": true, "h_s": true}}',
    7: '{"degrees": {"NNp": {"degree": 3, "expected": 3, "ok": true, "scalars_in_K": true}, '
       '"CCp": {"degrees": {"1": 6, "2": 6, "3": 6, "4": 6, "5": 6, "6": 6}, "expected": 6, '
       '"ok": true, "scalars_in_K": true}}, '
       '"coincidence": {"checked": true, "psi_plus": true, "h_s": true}}',
    11: '{"degrees": {"NNp": {"degree": 5, "expected": 5, "ok": true, "scalars_in_K": true}, '
        '"CCp": {"degrees": {"1": 10, "2": 10, "3": 10, "4": 10, "5": 10, "6": 10, "7": 10, '
        '"8": 10, "9": 10, "10": 10}, "expected": 10, "ok": true, "scalars_in_K": true}}, '
        '"coincidence": {"checked": false}}',
    13: '{"degrees": {"NNp": {"degree": 6, "expected": 6, "ok": true, "scalars_in_K": true}, '
        '"CCp": {"degrees": {"1": 12, "2": 12, "3": 12, "4": 12, "5": 12, "6": 12, "7": 12, '
        '"8": 12, "9": 12, "10": 12, "11": 12, "12": 12}, "expected": 12, "ok": true, '
        '"scalars_in_K": true}}, "coincidence": {"checked": false}}',
}


@pytest.mark.parametrize("ell", sorted(PINNED_SECTIONS))
def test_degrees_and_coincidence_sections_are_pinned(ell):
    """The sections as run_verification builds them: plain ints and bools,
    slope keys in slope order."""
    report = run_verification(ell)
    assert json.dumps({k: report[k] for k in ("degrees", "coincidence")}) \
        == PINNED_SECTIONS[ell]


PINNED_DECOMPOSE = {
    (5, "N"): '{"schema_version":1,"ell":5,"epsilon":2,"s":null,"H":"N","K":"N\'",'
              '"g":[1,0,0,1],"degree":2,"representatives":[[1,0,0,1],[1,0,0,2]]}',
    (5, "C"): '{"schema_version":1,"ell":5,"epsilon":2,"s":2,"H":"C","K":"C\'",'
              '"g":[1,2,0,1],"degree":4,"representatives":[[1,0,0,1],[1,0,0,2],'
              '[1,0,0,3],[1,0,0,4]]}',
    (7, "N"): '{"schema_version":1,"ell":7,"epsilon":3,"s":null,"H":"N","K":"N\'",'
              '"g":[1,0,0,1],"degree":3,"representatives":[[1,0,0,1],[1,0,0,2],'
              '[1,0,0,3]]}',
    (7, "C"): '{"schema_version":1,"ell":7,"epsilon":3,"s":2,"H":"C","K":"C\'",'
              '"g":[1,2,0,1],"degree":6,"representatives":[[1,0,0,1],[1,0,0,2],'
              '[1,0,0,3],[1,0,0,4],[1,0,0,5],[1,0,0,6]]}',
}


@pytest.mark.parametrize("ell,case", sorted(PINNED_DECOMPOSE))
def test_decompose_documents_are_pinned(ell, case, capsys):
    argv = ["decompose", "--ell", str(ell), "--case", case]
    assert main(argv + (["--s", "2"] if case == "C" else [])) == 0
    # the command writes json.dumps(doc, indent=2) and a newline
    want = json.dumps(json.loads(PINNED_DECOMPOSE[ell, case]), indent=2) + "\n"
    assert capsys.readouterr().out == want
