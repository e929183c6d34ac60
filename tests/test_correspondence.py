import io
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from cartanmaps.correspondence import (
    _distinct_sorted,
    OperatorMatrix,
    build_H_s,
    build_psi,
    build_psi_plus,
    check_equivariance_psi,
    check_equivariance_psi_plus,
    geodesic_incidence,
    base_paths,
    coefficients,
    geodesic_points,
    path_columns,
    path_incidence,
    path_points,
    restrict_to_affine,
    transporter,
)
from cartanmaps.geometry import (
    INFINITY,
    CartanOrbit,
    CartanPoint,
    GroupElement,
    OrderedPair,
    ProjectivePoint,
    UnorderedPair,
    enumerate_pairs_ordered,
    enumerate_pairs_unordered,
    mat_mul,
)

from conftest import PRIMES_ALL, PRIMES_SMALL


def aff(x):
    return ProjectivePoint(False, x)


def rank_over_Q(matrix) -> int:
    """Independent oracle: Gaussian elimination over exact rationals."""
    a = [[Fraction(int(v)) for v in row] for row in np.asarray(matrix if not hasattr(matrix, "data") else matrix.data)]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        inv = 1 / pr[col]
        a[rank] = [v * inv for v in pr]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def conic_holds_geodesic(pair, w, ctx) -> bool:
    """(2x - (a+b))^2 = (a-b)^2 + 4*eps*y^2 for affine endpoints."""
    ell = ctx.ell
    a, b = pair.lo.x, pair.hi.x
    lhs = pow(2 * w.x - (a + b), 2, ell)
    rhs = (pow(a - b, 2, ell) + 4 * ctx.epsilon * w.y * w.y) % ell
    return lhs == rhs


def conic_holds_path(pair, s, z, ctx) -> bool:
    """(x-(a+b)/2)^2 - eps*(y - s(b-a)/(2 eps))^2 = (eps-s^2)(a-b)^2/(4 eps)."""
    ell, eps = ctx.ell, ctx.epsilon
    a, b = pair.first.x, pair.second.x
    half = pow(2, -1, ell)
    cy = s * (b - a) * pow(2 * eps, -1, ell) % ell
    lhs = (pow(z.x - (a + b) * half, 2, ell) - eps * pow(z.y - cy, 2, ell)) % ell
    rhs = (eps - s * s) * pow(a - b, 2, ell) * pow(4 * eps, -1, ell) % ell
    return lhs == rhs


def test_transporter_examples():
    assert transporter(aff(0), INFINITY, 7) == GroupElement(1, 0, 0, 1)
    g = transporter(aff(2), aff(5), 7)
    assert g == GroupElement(5, 2, 1, 1)
    assert (g.a * g.d - g.b * g.c) % 7 == 3
    assert transporter(INFINITY, aff(0), 7) == GroupElement(0, 1, 1, 0)
    with pytest.raises(ValueError):
        transporter(aff(3), aff(3), 7)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_transporter_moves_base_pair(ell, contexts):
    from cartanmaps.geometry import mobius_act
    ctx = contexts[ell]
    for pair in enumerate_pairs_ordered(ctx):
        g = transporter(pair.first, pair.second, ell)
        assert mobius_act(g, aff(0), ell) == pair.first
        assert mobius_act(g, INFINITY, ell) == pair.second


def test_geodesic_examples(contexts):
    ctx3 = contexts[3]
    geo = geodesic_points(UnorderedPair(aff(0), INFINITY), ctx3)
    assert geo.points == frozenset({CartanOrbit(0, 1)})
    geo5 = geodesic_points(UnorderedPair(aff(1), aff(3)), contexts[5])
    assert len(geo5.points) == 2
    # through {0, inf} every member is a pure multiple of se
    geo7 = geodesic_points(UnorderedPair(aff(0), INFINITY), contexts[7])
    assert all(w.x == 0 for w in geo7.points)
    assert len(geo7.points) == 3


def test_path_examples(contexts):
    ctx3 = contexts[3]
    spec = path_points(OrderedPair(aff(0), INFINITY), 1, ctx3)
    assert spec.points == frozenset({CartanPoint(1, 1), CartanPoint(2, 2)})
    spec5 = path_points(OrderedPair(aff(2), aff(4)), 3, contexts[5])
    assert len(spec5.points) == 4
    with pytest.raises(ValueError):
        path_points(OrderedPair(aff(0), aff(1)), 0, ctx3)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_rational_coordinate_formulas(ell, contexts):
    """For affine endpoints the lam-parametrized coordinates are
    x = (a - eps lam^2 b)/(1 - eps lam^2), y = lam(a-b)/(1 - eps lam^2) on the
    geodesic and the slope-s analogues on the path."""
    from cartanmaps.geometry import cartan_act, orbit_of, CartanPoint
    ctx = contexts[ell]
    eps = ctx.epsilon
    for a in range(ell):
        for b in range(ell):
            if a == b:
                continue
            g = transporter(aff(a), aff(b), ell)
            for lam in range(1, ell):
                den = pow((1 - eps * lam * lam) % ell, -1, ell)
                # sign of y is immaterial in the half plane: compare orbits
                expect = orbit_of((a - eps * lam * lam * b) * den % ell,
                                  lam * (a - b) * den % ell, ell)
                got = cartan_act(g, CartanPoint(0, lam), ctx)
                assert orbit_of(got.x, got.y, ell) == expect
            for s in range(1, ell):
                for lam in range(1, ell):
                    den = pow((pow(lam * s + 1, 2, ell) - lam * lam * eps) % ell,
                              -1, ell)
                    x = ((b * lam * s + a) * (lam * s + 1) - b * lam * lam * eps) \
                        * den % ell
                    y = lam * (b - a) * den % ell
                    got = cartan_act(g, CartanPoint(lam * s % ell, lam), ctx)
                    assert got == CartanPoint(x, y)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_path_conjugate_pair_symmetry(ell, contexts):
    ctx = contexts[ell]
    for pair in enumerate_pairs_ordered(ctx):
        rev = OrderedPair(pair.second, pair.first)
        for s in range(1, ell):
            fwd = path_points(pair, s, ctx).points
            conj = frozenset(CartanPoint(z.x, (-z.y) % ell) for z in fwd)
            assert path_points(rev, s, ctx).points == conj


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_geodesic_conic_membership_exhaustive(ell, contexts):
    ctx = contexts[ell]
    for pair in enumerate_pairs_unordered(ctx):
        pts = geodesic_points(pair, ctx).points
        assert len(pts) == ctx.r
        if pair.is_affine:
            assert all(conic_holds_geodesic(pair, w, ctx) for w in pts)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_path_conic_membership_exhaustive(ell, contexts):
    ctx = contexts[ell]
    for pair in enumerate_pairs_ordered(ctx):
        for s in range(1, ell):
            pts = path_points(pair, s, ctx).points
            assert len(pts) == ell - 1
            if pair.is_affine:
                assert all(conic_holds_path(pair, s, z, ctx) for z in pts)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_well_definedness_under_transporter_choice(ell, contexts):
    """Any g with the right endpoint images yields the same geodesic/path."""
    from cartanmaps.geometry import cartan_act, orbit_of
    ctx = contexts[ell]
    rng = random.Random(f"wd:{ell}")
    units = list(range(1, ell))
    for pair in enumerate_pairs_unordered(ctx):
        base = geodesic_points(pair, ctx).points
        # swap of the endpoints
        g2 = transporter(pair.hi, pair.lo, ell)
        pts2 = frozenset(
            orbit_of(*cartan_act(g2, CartanPoint(0, lam), ctx), ell)
            for lam in range(1, ell)
        )
        assert pts2 == base
        # right-multiply by a random element of the base-pair stabilizer
        e, f = rng.choice(units), rng.choice(units)
        n = rng.choice([GroupElement(e, 0, 0, f), GroupElement(0, e, f, 0)])
        g3 = mat_mul(transporter(pair.lo, pair.hi, ell), n, ell)
        pts3 = frozenset(
            orbit_of(*cartan_act(g3, CartanPoint(0, lam), ctx), ell)
            for lam in range(1, ell)
        )
        assert pts3 == base
    for pair in enumerate_pairs_ordered(ctx):
        for s in (1, ell - 1):
            base = path_points(pair, s, ctx).points
            e, f = rng.choice(units), rng.choice(units)
            c = GroupElement(e, 0, 0, f)
            g3 = mat_mul(transporter(pair.first, pair.second, ell), c, ell)
            pts3 = frozenset(
                cartan_act(g3, CartanPoint(lam * s % ell, lam), ctx)
                for lam in range(1, ell)
            )
            assert pts3 == base


def test_psi_plus_shapes_and_rank(contexts):
    ctx = contexts[3]
    m = build_psi_plus(ctx)
    assert m.shape == (3, 6)
    assert (m.column_sums() == 1).all()
    assert rank_over_Q(m) == 3
    m5 = build_psi_plus(contexts[5])
    assert m5.shape == (10, 15)
    assert (m5.column_sums() == 2).all()


def test_psi_plus_matches_geodesics(contexts):
    ctx = contexts[7]
    m = build_psi_plus(ctx)
    for ci, pair in enumerate(m.col_basis):
        pts = geodesic_points(pair, ctx).points
        nz = {m.row_basis.elements[ri] for ri in np.nonzero(m.data[:, ci])[0]}
        assert nz == set(pts)
        assert set(np.unique(m.data)) <= {0, 1}


def test_psi_is_weighted_sum_of_slopes(contexts):
    ctx = contexts[3]
    # coefficients: s=1 -> 1+1 = 2, s=2 -> 1+2 = 3
    h1, h2 = build_H_s(ctx, 1), build_H_s(ctx, 2)
    psi = build_psi(ctx)
    assert psi.shape == (6, 12)
    assert np.array_equal(psi.data, 2 * h1.data + 3 * h2.data)
    assert rank_over_Q(psi) == 6


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_psi_column_sums(ell, contexts):
    ctx = contexts[ell]
    psi = build_psi(ctx)
    # alpha_s + beta_s = 1 + s^-1
    expected = sum(1 + pow(s, -1, ell) for s in range(1, ell)) * (ell - 1)
    assert (psi.column_sums() == expected).all()
    h = build_H_s(ctx, 1)
    assert (h.column_sums() == ell - 1).all()


def test_restrict_to_affine(contexts):
    ctx = contexts[3]
    r = restrict_to_affine(build_psi_plus(ctx))
    assert r.shape == (3, 3)
    assert r.col_basis.tag == "unordered_pairs_affine"
    assert rank_over_Q(r) == 3   # nonsingular
    rc = restrict_to_affine(build_psi(contexts[5]))
    assert rc.shape == (20, 20)
    assert rc.col_basis.tag == "ordered_pairs_affine"


def test_coefficients(contexts):
    """alpha_s = 1 and beta_s = s^-1 mod ell, for s = 1..ell-1."""
    alpha, beta = coefficients(contexts[5])
    assert alpha.tolist() == [1, 1, 1, 1]
    assert beta.tolist() == [1, 3, 2, 4]
    assert (alpha + beta).tolist() == [2, 4, 3, 5]


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_equivariance_sampled(ell, contexts):
    """Proved on the generators of GL2 for the assembled psi+, psi and H_s."""
    ctx = contexts[ell]
    assert check_equivariance_psi_plus(build_psi_plus(ctx), ctx)
    assert check_equivariance_psi(build_psi(ctx), ctx)
    for s in range(1, ell):
        assert check_equivariance_psi(build_H_s(ctx, s), ctx)


@pytest.mark.parametrize("ell", (3, 7))
def test_equivariance_rejects_one_changed_entry(ell, contexts):
    ctx = contexts[ell]
    psi_plus = build_psi_plus(ctx)
    psi_plus.data[0, 0] ^= 1
    assert not check_equivariance_psi_plus(psi_plus, ctx)
    psi = build_psi(ctx)
    psi.data[-1, 5] += 1
    assert not check_equivariance_psi(psi, ctx)


def test_psi_image_coefficients_matches_matrix(contexts):
    ctx = contexts[5]
    psi = build_psi(ctx)
    for ci, pair in list(enumerate(psi.col_basis))[::7]:
        paths = {s: path_points(pair, s, ctx).points for s in range(1, ctx.ell)}
        for ri, z in enumerate(psi.row_basis):
            # alpha_s + beta_s = 1 + s^-1
            expected = sum(1 + pow(s, -1, ctx.ell) for s, pts in paths.items()
                           if z in pts)
            assert psi.data[ri, ci] == expected


def test_operator_matrix_triplets_and_csv(contexts):
    ctx = contexts[3]
    m = build_psi_plus(ctx)
    trips = list(m.to_triplets())
    assert len(trips) == 6
    assert trips == sorted(trips)
    assert all(v == 1 for _, _, v in trips)
    buf = io.StringIO()
    m.write_csv(buf, ctx)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# basis_rows=H_ell basis_cols=unordered_pairs ell=3 epsilon=2"
    assert len(lines) == 7
    assert lines[1].count(",") == 2


def test_operator_matrix_shape_validation(contexts):
    ctx = contexts[3]
    m = build_psi_plus(ctx)
    with pytest.raises(ValueError):
        OperatorMatrix(m.row_basis, m.col_basis, np.zeros((2, 2), dtype=np.int32))


def test_distinct_sorted_names_the_column_that_repeats_a_row(contexts):
    """A column of an incidence array that lists a row twice is refused, with
    that column's endpoints decoded from its index."""
    ctx = contexts[7]
    cases = [(path_incidence(ctx, 2), "ordered_pairs", "path at slope 2",
              enumerate_pairs_ordered(ctx)),
             (geodesic_incidence(ctx), "unordered_pairs", "geodesic",
              enumerate_pairs_unordered(ctx))]
    for idx, tag, what, pairs in cases:
        for col in (5, idx.shape[1] - 1):  # an affine pair, then one with inf
            bad = idx.copy()
            bad[1, col] = bad[0, col]
            msg = f"{what} through {pairs[col]} is not {len(idx)} distinct points"
            with pytest.raises(AssertionError, match=re.escape(msg)):
                _distinct_sorted(bad, tag, ctx.ell, what)
        assert np.array_equal(_distinct_sorted(idx[::-1], tag, ctx.ell, what), idx)


def test_path_columns_name_the_slope_and_pair_of_a_repeated_row(contexts):
    """In a stack of slopes built at some columns, a repeated row is named by
    its slope and by the pair of its column in the full basis."""
    ctx = contexts[7]
    bases = base_paths(ctx, [2, 3])
    bases[3] = np.sort(np.append(bases[3][1:], bases[3][-1]))
    cols = np.array([17, 5])
    msg = f"path at slope 3 through {enumerate_pairs_ordered(ctx)[17]} is not 6 distinct points"
    with pytest.raises(AssertionError, match=re.escape(msg)):
        path_columns(ctx, bases, cols)
    with pytest.raises(ValueError, match="nonzero"):
        base_paths(ctx, [1, 7])
    assert list(base_paths(ctx, [-1, 9])) == [6, 2]
