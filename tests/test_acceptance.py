"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1 and 2 carry the
stated wall-clock budgets; everything else is exact (zero tolerance).
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cartanmaps.circulant import (
    build_block_matrix_N,
    build_reduced_C,
    circulant_det_mod,
    eigenvalues_C,
    eigenvalues_N,
    reduce_mod_frak_L,
    verify_chart_conjugacy,
)
from cartanmaps.correspondence import (
    build_H_s,
    build_psi,
    build_psi_plus,
    check_equivariance_psi,
    check_equivariance_psi_plus,
    geodesic_incidence,
    geodesic_points,
    path_points,
    restrict_to_affine,
    transporter,
)
from cartanmaps.cosets import (
    NONSPLIT_CARTAN,
    NORMALIZER_NONSPLIT,
    NORMALIZER_SPLIT,
    SPLIT_CARTAN,
    coset_operator,
    decompose,
    enumerate_subgroup,
)
from cartanmaps.exact_linalg import (
    det_exact_small,
    det_mod_p,
    rank_exact,
    rank_mod_p,
)
from cartanmaps.geometry import (
    GroupElement,
    IDENTITY,
    enumerate_C,
    enumerate_H,
    enumerate_pairs_ordered,
    enumerate_pairs_unordered,
    gl2_order,
    mat_mul,
    random_invertible,
    subgroup_order,
)
from cartanmaps.modular_arith import PrimeContext

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIMES_EXHAUSTIVE = (3, 5, 7, 11, 13)
PRIMES_SAMPLED = (17, 19, 23, 29, 31)
COINCIDENCE_PRIMES = (3, 5, 7)


@pytest.fixture(scope="module")
def contexts():
    return {ell: PrimeContext(ell) for ell in PRIMES}


@pytest.fixture(scope="module")
def theorem1_sweep(contexts):
    t0 = time.perf_counter()
    results = {}
    for ell in PRIMES:
        ctx = contexts[ell]
        m = build_psi_plus(ctx)
        cert = rank_exact(m, preferred_primes=(ell,))
        restricted = restrict_to_affine(m)
        nonsingular = rank_mod_p(restricted, ell) == len(restricted.col_basis)
        results[ell] = (m, cert, nonsingular)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def theorem2_sweep(contexts):
    t0 = time.perf_counter()
    results = {}
    for ell in PRIMES:
        ctx = contexts[ell]
        m = build_psi(ctx)
        cert = rank_exact(m, preferred_primes=(ell,))
        restricted = restrict_to_affine(m)
        nonsingular = rank_mod_p(restricted, ell) == len(restricted.col_basis)
        results[ell] = (m, cert, nonsingular)
    return results, time.perf_counter() - t0


def test_criterion_01_half_plane_surjection(theorem1_sweep, contexts):
    """rank(psi+) = ell(ell-1)/2 with a conclusive mod-ell certificate, the
    affine restriction nonsingular, for every odd prime ell <= 31 and every
    valid epsilon; default sweep under 5 s."""
    results, elapsed = theorem1_sweep
    for ell, (m, cert, nonsingular) in results.items():
        expected = ell * (ell - 1) // 2
        assert cert.rank == expected, f"ell={ell}"
        assert cert.conclusive and cert.method == "single-prime full rank"
        assert cert.witnesses[0] == (ell, expected)
        assert nonsingular
    assert elapsed < 5.0, f"theorem-1 sweep took {elapsed:.2f}s (budget 5s)"
    for ell in PRIMES:  # the --all-epsilon clause
        for eps in contexts[ell].nonsquares():
            ctx = PrimeContext(ell, eps)
            m = build_psi_plus(ctx)
            expected = ell * (ell - 1) // 2
            cert = rank_exact(m, preferred_primes=(ell,))
            assert cert.rank == expected and cert.conclusive, f"ell={ell} eps={eps}"
            assert rank_mod_p(restrict_to_affine(m), ell) == expected
    print(f"\n[criterion 1] PASS half-plane surjection, ell<=31, all epsilon "
          f"(default sweep {elapsed:.2f}s < 5s)")


def test_criterion_02_punctured_plane_surjection(theorem2_sweep):
    """rank(psi) = ell(ell-1) with alpha_s = 1 and beta_s = s^-1, conclusive
    mod ell, affine restriction nonsingular; sweep under 60 s."""
    results, elapsed = theorem2_sweep
    for ell, (m, cert, nonsingular) in results.items():
        expected = ell * (ell - 1)
        assert cert.rank == expected, f"ell={ell}"
        assert cert.conclusive and cert.method == "single-prime full rank"
        assert nonsingular
    assert elapsed < 60.0, f"theorem-2 sweep took {elapsed:.2f}s (budget 60s)"
    print(f"\n[criterion 2] PASS punctured-plane surjection, ell<=31 "
          f"({elapsed:.2f}s < 60s)")


def test_criterion_03_coset_coincidence(contexts):
    """For ell in {3,5,7} the induced double coset operators equal the
    geometric matrices entrywise, for the normalizer pair and for every s."""
    for ell in COINCIDENCE_PRIMES:
        ctx = contexts[ell]
        dec = decompose(enumerate_subgroup(NORMALIZER_SPLIT, ctx), IDENTITY,
                        enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
        assert coset_operator(dec, ctx) == build_psi_plus(ctx), f"ell={ell}"
        C = enumerate_subgroup(SPLIT_CARTAN, ctx)
        Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
        for s in range(1, ell):
            dec_s = decompose(C, GroupElement(1, s, 0, 1), Cp, ctx)
            assert coset_operator(dec_s, ctx) == build_H_s(ctx, s), f"ell={ell} s={s}"
    print("\n[criterion 3] PASS coset operators coincide entrywise, ell in {3,5,7}")


def test_criterion_04_degree_formulas(contexts):
    """Decomposition degrees equal (ell-1)/2 and ell-1 for all ell <= 31 and
    all s, and match the geometric column sums exactly."""
    for ell in PRIMES:
        ctx = contexts[ell]
        dec = decompose(enumerate_subgroup(NORMALIZER_SPLIT, ctx), IDENTITY,
                        enumerate_subgroup(NORMALIZER_NONSPLIT, ctx), ctx)
        assert dec.degrees.tolist() == [(ell - 1) // 2], f"ell={ell}"
        assert (build_psi_plus(ctx).column_sums() == dec.degrees[0]).all()
        C = enumerate_subgroup(SPLIT_CARTAN, ctx)
        Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
        for s in range(1, ell):
            dec_s = decompose(C, GroupElement(1, s, 0, 1), Cp, ctx)
            assert dec_s.degrees.tolist() == [ell - 1], f"ell={ell} s={s}"
            assert (build_H_s(ctx, s).column_sums() == dec_s.degrees[0]).all()
    print("\n[criterion 4] PASS double coset degrees match column sums, ell<=31, all s")


def test_criterion_05_circulant_certificates(contexts):
    """Every eigenvalue report matches its closed form and is nonzero in both
    cases; k=0 values are -1 (half-plane) and +1 (punctured plane); the
    eigenvalue-product determinant equals the direct determinant mod ell."""
    for ell in PRIMES:
        ctx = contexts[ell]
        rm_n = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
        recs_n = eigenvalues_N(rm_n, ctx)   # raises on mismatch or zero
        assert all(r.matches and r.nonzero for r in recs_n)
        assert recs_n[0].residue == (-1) % ell
        prod = circulant_det_mod(rm_n.first_row, 2, ctx)
        assert prod == det_mod_p(rm_n.matrix(), ell) != 0, f"ell={ell}"
        rm_c = build_reduced_C(ctx)
        recs_c = eigenvalues_C(ctx, rm=rm_c)
        assert all(r.matches and r.nonzero for r in recs_c)
        assert recs_c[0].residue == 1 % ell
        prod_c = circulant_det_mod(rm_c.combined_row, 1, ctx)
        assert prod_c == det_mod_p(rm_c.matrix(), ell) != 0, f"ell={ell}"
        assert verify_chart_conjugacy(ctx, geodesic_incidence(ctx))
    print("\n[criterion 5] PASS circulant certificates: residues = closed forms, "
          "nonzero, determinant product = direct determinant, ell<=31")


def test_criterion_06_parity_split(contexts):
    """Alpha part vanishes iff k' is odd, beta part iff k' is even (k != 0)."""
    for ell in PRIMES:
        for r in eigenvalues_C(contexts[ell]):
            if r.k == 0:
                assert (r.alpha_part, r.beta_part) == (1, 0)
            elif r.k_prime % 2 == 0:
                assert r.alpha_part != 0 and r.beta_part == 0, f"ell={ell} k={r.k}"
            else:
                assert r.alpha_part == 0 and r.beta_part != 0, f"ell={ell} k={r.k}"
    print("\n[criterion 6] PASS parity split of alpha/beta eigenvalue parts, ell<=31")


def test_criterion_07_equivariance(contexts):
    """Both assembled maps commute with the three generators of GL2(F_ell)."""
    for ell in PRIMES:
        ctx = contexts[ell]
        assert check_equivariance_psi_plus(build_psi_plus(ctx), ctx), f"ell={ell}"
        assert check_equivariance_psi(build_psi(ctx), ctx), f"ell={ell}"
    print("\n[criterion 7] PASS equivariance on the generators of GL2, "
          "both maps, ell<=31")


def test_criterion_08_property_suites(contexts):
    """Action laws, chart round trips, conic membership, transporter
    well-definedness, cardinalities: exhaustive for ell <= 13, sampled to 31."""
    from cartanmaps.geometry import (
        cartan_act, cartan_to_diff, diff_to_cartan, diff_to_pair, mat_inv,
        mobius_act, orbit_act, orbit_of, orbit_to_tn, pair_to_diff, pair_to_tn,
        tn_to_orbit, tn_to_pair, tn_to_tm, tm_to_tn, nonsplit_tn_to_tm,
        nonsplit_tm_to_tn, enumerate_p1, CartanPoint,
    )

    def conic_geodesic(pair, w, ctx):
        a, b = pair.lo.x, pair.hi.x
        return (pow(2 * w.x - (a + b), 2, ctx.ell)
                == (pow(a - b, 2, ctx.ell) + 4 * ctx.epsilon * w.y * w.y) % ctx.ell)

    def conic_path(pair, s, z, ctx):
        ell, eps = ctx.ell, ctx.epsilon
        a, b = pair.first.x, pair.second.x
        half = pow(2, -1, ell)
        cy = s * (b - a) * pow(2 * eps, -1, ell) % ell
        lhs = (pow(z.x - (a + b) * half, 2, ell) - eps * pow(z.y - cy, 2, ell)) % ell
        return lhs == (eps - s * s) * pow(a - b, 2, ell) * pow(4 * eps, -1, ell) % ell

    for ell in PRIMES:
        ctx = contexts[ell]
        exhaustive = ell <= 13
        rng = random.Random(f"acceptance-properties:{ell}")
        # cardinalities
        assert len(enumerate_pairs_unordered(ctx)) == ell * (ell + 1) // 2
        assert len(enumerate_pairs_ordered(ctx)) == ell * (ell + 1)
        assert len(enumerate_H(ctx)) == ell * (ell - 1) // 2
        assert len(enumerate_C(ctx)) == ell * (ell - 1)
        order = gl2_order(ell)
        assert order == (ell * ell - 1) * (ell * ell - ell)
        for kind, size in (("N", ell * (ell + 1) // 2), ("N'", ell * (ell - 1) // 2),
                           ("C", ell * (ell + 1)), ("C'", ell * (ell - 1))):
            assert order // subgroup_order(kind, ell) == size
        # action laws on random triples
        pts = enumerate_p1(ctx)
        for _ in range(60):
            g, h = random_invertible(rng, ell), random_invertible(rng, ell)
            gh = mat_mul(g, h, ell)
            p = pts[rng.randrange(len(pts))]
            assert mobius_act(gh, p, ell) == mobius_act(g, mobius_act(h, p, ell), ell)
            z = CartanPoint(rng.randrange(ell), rng.randrange(1, ell))
            assert cartan_act(gh, z, ctx) == cartan_act(g, cartan_act(h, z, ctx), ctx)
            w = orbit_of(z.x, z.y, ell)
            assert orbit_act(gh, w, ctx) == orbit_act(g, orbit_act(h, w, ctx), ctx)
        # chart round trips
        unordered = enumerate_pairs_unordered(ctx)
        ordered = enumerate_pairs_ordered(ctx)
        u_dom = [p for p in unordered if p.is_affine]
        o_dom = [p for p in ordered if p.is_affine]
        u_check = u_dom if exhaustive else rng.sample(u_dom, 60)
        for pair in u_check:
            tn = pair_to_tn(pair, ctx)
            assert tn_to_pair(tn, ctx) == pair
            assert tm_to_tn(tn_to_tm(tn, ctx), ctx) == tn
        h_all = enumerate_H(ctx)
        for w in (h_all if exhaustive else rng.sample(h_all, 60)):
            tn = orbit_to_tn(w, ctx)
            assert tn_to_orbit(tn, ctx) == w
            assert nonsplit_tm_to_tn(nonsplit_tn_to_tm(tn, ctx), ctx) == tn
        for pair in (o_dom if exhaustive else rng.sample(o_dom, 60)):
            assert diff_to_pair(pair_to_diff(pair, ctx), ctx) == pair
        c_all = enumerate_C(ctx)
        for z in (c_all if exhaustive else rng.sample(c_all, 60)):
            assert diff_to_cartan(cartan_to_diff(z, ctx), ctx) == z
        # conic membership and well-definedness under the transporter choice
        u_check = unordered if exhaustive else rng.sample(unordered, 40)
        for pair in u_check:
            geo = geodesic_points(pair, ctx)
            assert len(geo.points) == ctx.r
            if pair.is_affine:
                assert all(conic_geodesic(pair, w, ctx) for w in geo.points)
            g2 = transporter(pair.hi, pair.lo, ell)
            swapped = frozenset(
                orbit_of(*cartan_act(g2, CartanPoint(0, lam), ctx), ell)
                for lam in range(1, ell))
            assert swapped == geo.points
        if exhaustive:
            path_cases = [(pair, s) for pair in ordered for s in range(1, ell)]
        else:
            path_cases = [(ordered[rng.randrange(len(ordered))],
                           rng.randrange(1, ell)) for _ in range(150)]
        for pair, s in path_cases:
            spec = path_points(pair, s, ctx)
            assert len(spec.points) == ell - 1
            if pair.is_affine:
                assert all(conic_path(pair, s, z, ctx) for z in spec.points)
            # any transporter variant g*c with c diagonal gives the same path
            c = GroupElement(rng.randrange(1, ell), 0, 0, rng.randrange(1, ell))
            g3 = mat_mul(transporter(pair.first, pair.second, ell), c, ell)
            pts3 = frozenset(cartan_act(g3, CartanPoint(lam * s % ell, lam), ctx)
                             for lam in range(1, ell))
            assert pts3 == spec.points
    print("\n[criterion 8] PASS property suites (exhaustive ell<=13, sampled to 31)")


def test_criterion_09_linear_algebra_fuzz():
    """500 random small matrices: rank_exact agrees with a rational-elimination
    oracle; det_mod_p agrees with det_exact_small."""

    def oracle_rank(rows):
        a = [[Fraction(v) for v in row] for row in rows]
        m, n = len(a), len(a[0])
        rank = 0
        for col in range(n):
            piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            for i in range(rank + 1, m):
                if a[i][col] != 0:
                    f = a[i][col] / a[rank][col]
                    a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
            rank += 1
            if rank == m:
                break
        return rank

    rng = random.Random("acceptance-fuzz")
    for trial in range(500):
        m = rng.randrange(1, 13)
        n = rng.randrange(1, 13)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        arr = np.array(A, dtype=np.int64)
        cert = rank_exact(arr)
        assert cert.conclusive
        assert cert.rank == oracle_rank(A), f"trial {trial}"
        if m == n:
            d = det_exact_small(arr)
            for p in (31, 999983):
                assert det_mod_p(arr, p) == d % p, f"trial {trial}"
    print("\n[criterion 9] PASS 500-case rank/determinant fuzz against the "
          "rational oracle")


def test_criterion_10_exact_sequences(theorem1_sweep, theorem2_sweep):
    """Both maps are surjective onto their codomains (cokernel dimension 0),
    so the two one-step cochain complexes are exact at the codomain."""
    results1, _ = theorem1_sweep
    results2, _ = theorem2_sweep
    for ell in PRIMES:
        m1, cert1, _ = results1[ell]
        m2, cert2, _ = results2[ell]
        assert cert1.rank == m1.shape[0] == ell * (ell - 1) // 2
        assert cert2.rank == m2.shape[0] == ell * (ell - 1)
        assert cert1.conclusive and cert2.conclusive
    print("\n[criterion 10] PASS cokernel dimension 0 for both maps, ell<=31")


def test_full_cli_sweep(tmp_path):
    """End-to-end: the CLI sweep over every prime up to 31 exits 0."""
    import json
    from cartanmaps.cli import main

    out = tmp_path / "sweep.json"
    code = main(["verify", "--ell-range", "3..31", "--jobs", "8",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [r["ell"] for r in doc["runs"]] == list(PRIMES)
    assert doc["summary"] == {"ok": True, "failures": 0, "nonconclusive": 0}
    print("\n[integration] PASS CLI verify sweep 3..31, exit 0")
