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
    base_paths,
    geodesic_incidence,
    path_columns,
    restrict_to_affine,
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
    decode,
    gl2_order,
    mat_inv,
    mat_mul,
    move_cartan,
    move_p1,
    orbit_index,
    subgroup_order,
)
from cartanmaps.modular_arith import PrimeContext, legendre

from conftest import (fq_move, geodesic_set, incidence_sets, p1_move, path_set,
                      random_invertible)

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
        restricted = restrict_to_affine(m, ell)
        nonsingular = rank_mod_p(restricted, ell) == restricted.shape[1]
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
        restricted = restrict_to_affine(m, ell)
        nonsingular = rank_mod_p(restricted, ell) == restricted.shape[1]
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
            assert rank_mod_p(restrict_to_affine(m, ell), ell) == expected
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
        assert (build_psi_plus(ctx).data.sum(axis=0) == dec.degrees[0]).all()
        C = enumerate_subgroup(SPLIT_CARTAN, ctx)
        Cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
        for s in range(1, ell):
            dec_s = decompose(C, GroupElement(1, s, 0, 1), Cp, ctx)
            assert dec_s.degrees.tolist() == [ell - 1], f"ell={ell} s={s}"
            assert (build_H_s(ctx, s).data.sum(axis=0) == dec_s.degrees[0]).all()
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
    """Action laws, chart coordinates, conic membership, transporter
    well-definedness, cardinalities: exhaustive for ell <= 13, sampled to 31.
    The references are Python-int arithmetic from the paper's definitions
    (conftest)."""

    def conic_geodesic(a, b, w, ctx):
        x, y = w
        return (pow(2 * x - (a + b), 2, ctx.ell)
                == (pow(a - b, 2, ctx.ell) + 4 * ctx.epsilon * y * y) % ctx.ell)

    def conic_path(a, b, s, z, ctx):
        ell, eps = ctx.ell, ctx.epsilon
        x, y = z
        half = pow(2, -1, ell)
        cy = s * (b - a) * pow(2 * eps, -1, ell) % ell
        lhs = (pow(x - (a + b) * half, 2, ell) - eps * pow(y - cy, 2, ell)) % ell
        return lhs == (eps - s * s) * pow(a - b, 2, ell) * pow(4 * eps, -1, ell) % ell

    for ell in PRIMES:
        ctx = contexts[ell]
        exhaustive = ell <= 13
        rng = random.Random(f"acceptance-properties:{ell}")
        units = range(1, ell)
        # cardinalities: distinct elements, as many as the coset spaces
        order = gl2_order(ell)
        assert order == (ell * ell - 1) * (ell * ell - ell)
        for tag, kind, size in (("unordered_pairs", "N", ell * (ell + 1) // 2),
                                ("H_ell", "N'", ell * (ell - 1) // 2),
                                ("ordered_pairs", "C", ell * (ell + 1)),
                                ("C_ell", "C'", ell * (ell - 1))):
            assert len(set(zip(*(c.tolist() for c in decode(tag, ell))))) == size
            assert order // subgroup_order(kind, ell) == size
        # action laws on random triples, and agreement with the references
        for _ in range(60):
            g, h = random_invertible(rng, ell), random_invertible(rng, ell)
            gh = mat_mul(g, h, ell)
            p = rng.randrange(ell + 1)
            assert move_p1(gh, p, ell) == move_p1(g, move_p1(h, p, ell), ell) \
                == p1_move(gh, p, ell)
            z = rng.randrange(ell), rng.randrange(1, ell)
            assert move_cartan(gh, *z, ctx) == move_cartan(g, *move_cartan(h, *z, ctx), ctx) \
                == fq_move(gh, *z, ctx)
            assert move_cartan(mat_inv(g, ell), *move_cartan(g, *z, ctx), ctx) == z
            # the action on H_ell is well defined: conjugates go to conjugates
            w = z[0], ell - z[1]
            assert orbit_index(*move_cartan(gh, *w, ctx), ell) \
                == orbit_index(*move_cartan(g, *move_cartan(h, *z, ctx), ctx), ell)
        # the chart coordinates of verify_chart_conjugacy: (a + b, (a - b)^2)
        # on the affine pairs, (2x, 4 eps y^2) on H_ell; injective, onto the
        # nonzero squares and the non-squares
        a, b = decode("unordered_pairs", ell)
        a, b = a[b < ell].tolist(), b[b < ell].tolist()
        tm = {((i + j) % ell, (i - j) ** 2 % ell) for i, j in zip(a, b)}
        assert len(tm) == len(a) and all(legendre(m, ell) == 1 for _, m in tm)
        x, y = (c.tolist() for c in decode("H_ell", ell))
        TM = {(2 * u % ell, 4 * ctx.epsilon * v * v % ell) for u, v in zip(x, y)}
        assert len(TM) == len(x) and all(legendre(M, ell) == -1 for _, M in TM)
        # geodesics and paths: on their conics, and equal to the reference
        # under a random transporter (either order for a geodesic)
        geodesics = incidence_sets(geodesic_incidence(ctx), "H_ell", "unordered_pairs", ell)
        pairs = list(geodesics)
        for i, j in (pairs if exhaustive else rng.sample(pairs, 40)):
            pts = geodesics[i, j]
            assert len(pts) == ctx.r
            if j != ell:
                assert all(conic_geodesic(i, j, w, ctx) for w in pts)
            t, u = rng.choice(units), rng.choice(units)
            assert geodesic_set(j, i, ctx, t, u) == pts
        ordered = list(zip(*(c.tolist() for c in decode("ordered_pairs", ell))))
        if exhaustive:
            path_cases = [(pair, s) for pair in ordered for s in range(1, ell)]
        else:
            path_cases = [(ordered[rng.randrange(len(ordered))],
                           rng.randrange(1, ell)) for _ in range(150)]
        columns = path_columns(ctx, base_paths(ctx, range(1, ell)), np.arange(len(ordered)))
        paths = {s: incidence_sets(idx, "C_ell", "ordered_pairs", ell)
                 for s, idx in columns.items()}
        for (i, j), s in path_cases:
            pts = paths[s][i, j]
            assert len(pts) == ell - 1
            if ell not in (i, j):
                assert all(conic_path(i, j, s, z, ctx) for z in pts)
            t, u = rng.choice(units), rng.choice(units)
            assert path_set(i, j, s, ctx, t, u) == pts
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
    assert doc["summary"] == {"ok": True, "failures": 0}
    print("\n[integration] PASS CLI verify sweep 3..31, exit 0")
