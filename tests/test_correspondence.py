import random
import re
from fractions import Fraction

import numpy as np
import pytest

from cartanmaps.correspondence import (
    OperatorMatrix,
    _distinct_sorted,
    build_H_s,
    build_psi,
    build_psi_plus,
    check_equivariance_psi,
    check_equivariance_psi_plus,
    geodesic_incidence,
    base_paths,
    coefficients,
    operator_rows,
    operator_tags,
    path_columns,
)
from cartanmaps.geometry import (
    GroupElement,
    decode,
    move_cartan,
    move_p1,
    orbit_index,
    ordered_pair_index,
    transporters,
)
from cartanmaps.modular_arith import PrimeContext

from conftest import (PRIMES_ALL, PRIMES_SMALL, geodesic_set, incidence_operator,
                      incidence_sets, pair_label, path_incidence, path_set,
                      restrict_to_affine)


def geodesics(ctx) -> dict:
    """{(i, j): the points (x, y) of psi+'s column {i, j}}, i < j."""
    return incidence_sets(geodesic_incidence(ctx), "H_ell", "unordered_pairs", ctx.ell)


def paths(ctx, s: int) -> dict:
    """{(i, j): the points (x, y) of H_s's column (i, j)}."""
    return incidence_sets(path_incidence(ctx, s), "C_ell", "ordered_pairs", ctx.ell)


def dense_sets(m, ell) -> dict:
    """{(i, j): {(x, y): entry}} of the nonzero entries of a dense operator."""
    x, y = decode(m.row_tag, ell)
    i, j = decode(m.col_tag, ell)
    return {(a, b): {(int(x[r]), int(y[r])): int(m.data[r, c])
                     for r in np.flatnonzero(m.data[:, c])}
            for c, (a, b) in enumerate(zip(i.tolist(), j.tolist()))}


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


def conic_holds_geodesic(a, b, w, ctx) -> bool:
    """(2x - (a+b))^2 = (a-b)^2 + 4*eps*y^2 for affine endpoints."""
    ell = ctx.ell
    x, y = w
    lhs = pow(2 * x - (a + b), 2, ell)
    rhs = (pow(a - b, 2, ell) + 4 * ctx.epsilon * y * y) % ell
    return lhs == rhs


def conic_holds_path(a, b, s, z, ctx) -> bool:
    """(x-(a+b)/2)^2 - eps*(y - s(b-a)/(2 eps))^2 = (eps-s^2)(a-b)^2/(4 eps)."""
    ell, eps = ctx.ell, ctx.epsilon
    x, y = z
    half = pow(2, -1, ell)
    cy = s * (b - a) * pow(2 * eps, -1, ell) % ell
    lhs = (pow(x - (a + b) * half, 2, ell) - eps * pow(y - cy, 2, ell)) % ell
    rhs = (eps - s * s) * pow(a - b, 2, ell) * pow(4 * eps, -1, ell) % ell
    return lhs == rhs


def test_transporter_examples():
    """The transporter of an ordered pair (i, j): (1 i; 0 1) for j = inf,
    (j 1; 1 0) for i = inf, else (j i; 1 1)."""
    def transporter(i, j):
        return GroupElement(*map(int, transporters("ordered_pairs", i, j, 7)))

    assert transporter(0, 7) == GroupElement(1, 0, 0, 1)
    g = transporter(2, 5)
    assert g == GroupElement(5, 2, 1, 1)
    assert (g.a * g.d - g.b * g.c) % 7 == 3
    assert transporter(7, 0) == GroupElement(0, 1, 1, 0)
    # the unordered pair {i, j}, i < j, has the transporter of (i, j)
    i, j = decode("unordered_pairs", 7)
    assert all(np.array_equal(a, b) for a, b in zip(transporters("unordered_pairs", i, j, 7),
                                                    transporters("ordered_pairs", i, j, 7)))


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_transporter_moves_base_pair(ell):
    i, j = decode("ordered_pairs", ell)
    g = transporters("ordered_pairs", i, j, ell)
    assert np.array_equal(move_p1(g, 0, ell), i)
    assert np.array_equal(move_p1(g, ell, ell), j)


def test_geodesic_examples(contexts):
    assert geodesics(contexts[3])[0, 3] == {(0, 1)}
    assert len(geodesics(contexts[5])[1, 3]) == 2
    # through {0, inf} every member is a pure multiple of se
    geo7 = geodesics(contexts[7])[0, 7]
    assert all(x == 0 for x, _ in geo7)
    assert len(geo7) == 3


def test_path_examples(contexts):
    ctx3 = contexts[3]
    assert paths(ctx3, 1)[0, 3] == {(1, 1), (2, 2)}
    assert len(paths(contexts[5], 3)[2, 4]) == 4
    with pytest.raises(ValueError, match="nonzero"):
        operator_rows(ctx3, 3)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_rational_coordinate_formulas(ell, contexts):
    """For affine endpoints the lam-parametrized coordinates are
    x = (a - eps lam^2 b)/(1 - eps lam^2), y = lam(a-b)/(1 - eps lam^2) on the
    geodesic and the slope-s analogues on the path."""
    ctx = contexts[ell]
    eps = ctx.epsilon
    for a in range(ell):
        for b in range(ell):
            if a == b:
                continue
            g = GroupElement(*map(int, transporters("ordered_pairs", a, b, ell)))
            for lam in range(1, ell):
                den = pow((1 - eps * lam * lam) % ell, -1, ell)
                # sign of y is immaterial in the half plane: compare orbits
                expect = orbit_index((a - eps * lam * lam * b) * den % ell,
                                     lam * (a - b) * den % ell, ell)
                assert orbit_index(*move_cartan(g, 0, lam, ctx), ell) == expect
            for s in range(1, ell):
                for lam in range(1, ell):
                    den = pow((pow(lam * s + 1, 2, ell) - lam * lam * eps) % ell,
                              -1, ell)
                    x = ((b * lam * s + a) * (lam * s + 1) - b * lam * lam * eps) \
                        * den % ell
                    y = lam * (b - a) * den % ell
                    assert move_cartan(g, lam * s % ell, lam, ctx) == (x, y)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_path_conjugate_pair_symmetry(ell, contexts):
    ctx = contexts[ell]
    for s in range(1, ell):
        cols = paths(ctx, s)
        for (i, j), fwd in cols.items():
            assert cols[j, i] == {(x, (-y) % ell) for x, y in fwd}


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_geodesic_conic_membership_exhaustive(ell, contexts):
    ctx = contexts[ell]
    for (a, b), pts in geodesics(ctx).items():
        assert len(pts) == ctx.r
        if b != ell:
            assert all(conic_holds_geodesic(a, b, w, ctx) for w in pts)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_path_conic_membership_exhaustive(ell, contexts):
    ctx = contexts[ell]
    for s in range(1, ell):
        for (a, b), pts in paths(ctx, s).items():
            assert len(pts) == ell - 1
            if ell not in (a, b):
                assert all(conic_holds_path(a, b, s, z, ctx) for z in pts)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_well_definedness_under_transporter_choice(ell, contexts):
    """Every g carrying (0, inf) to the pair, in either order for a
    geodesic, carries the base geodesic or path onto the column verify
    builds."""
    ctx = contexts[ell]
    rng = random.Random(f"wd:{ell}")
    units = list(range(1, ell))
    for (i, j), pts in geodesics(ctx).items():
        t, u = rng.choice(units), rng.choice(units)
        assert geodesic_set(i, j, ctx, t, u) == geodesic_set(j, i, ctx, t, u) == pts
    for s in (1, ell - 1):
        for (i, j), pts in paths(ctx, s).items():
            assert path_set(i, j, s, ctx, rng.choice(units), rng.choice(units)) == pts


def test_psi_plus_shapes_and_rank(contexts):
    ctx = contexts[3]
    m = build_psi_plus(ctx)
    assert m.shape == (3, 6)
    assert (m.data.sum(axis=0) == 1).all()
    assert rank_over_Q(m) == 3
    m5 = build_psi_plus(contexts[5])
    assert m5.shape == (10, 15)
    assert (m5.data.sum(axis=0) == 2).all()


def test_psi_plus_matches_geodesics(contexts):
    ctx = contexts[7]
    m = build_psi_plus(ctx)
    assert set(np.unique(m.data)) <= {0, 1}
    for (i, j), entries in dense_sets(m, ctx.ell).items():
        assert set(entries) == geodesic_set(i, j, ctx)


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
    assert (psi.data.sum(axis=0) == expected).all()
    h = build_H_s(ctx, 1)
    assert (h.data.sum(axis=0) == ell - 1).all()


def test_restrict_to_affine(contexts):
    ctx = contexts[3]
    m = build_psi_plus(ctx)
    r = restrict_to_affine(m, 3)
    assert r.shape == (3, 3)
    assert (r.row_tag, r.col_tag) == ("H_ell", "unordered_pairs_affine")
    assert rank_over_Q(r) == 3   # nonsingular
    # the columns kept are those of the pairs {i, j} with j < 3, in order
    assert np.array_equal(r.data, m.data[:, [0, 1, 3]])
    rc = restrict_to_affine(build_psi(contexts[5]), 5)
    assert rc.shape == (20, 20)
    assert rc.col_tag == "ordered_pairs_affine"


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
    for (i, j), entries in list(dense_sets(psi, ctx.ell).items())[::7]:
        through = {s: path_set(i, j, s, ctx) for s in range(1, ctx.ell)}
        for z in zip(*(c.tolist() for c in decode("C_ell", ctx.ell))):
            # alpha_s + beta_s = 1 + s^-1
            expected = sum(1 + pow(s, -1, ctx.ell) for s, pts in through.items()
                           if z in pts)
            assert entries.get(z, 0) == expected


def path_kernel_operators(ctx):
    """(op, dense operator) of psi+, psi and every H_s, scattered from the
    incidence arrays of route 1's kernel (geodesic_incidence, path_columns);
    psi is summed over the H_s as they come."""
    ell = ctx.ell
    yield "psi_plus", incidence_operator(ctx, geodesic_incidence(ctx)).data
    psi = 0
    for s in range(1, ell):
        h_s = incidence_operator(ctx, path_incidence(ctx, s)).data
        psi = psi + (1 + pow(s, -1, ell)) * h_s
        yield s, h_s
    yield "psi", psi


@pytest.mark.parametrize("ctx", [PrimeContext(ell) for ell in PRIMES_ALL]
                         + [PrimeContext(13, 5, 7)], ids=str)
def test_the_closed_form_is_the_path_kernel_operator(ctx):
    """operator_rows reads no incidence array, yet gives the operator
    route 1's kernel scatters, for psi+, psi and every H_s: whole, and at
    some rows and the affine columns, numbered as restrict_to_affine numbers
    them."""
    ell = ctx.ell
    rng = np.random.default_rng(ell)
    for op, want in path_kernel_operators(ctx):
        got = operator_rows(ctx, op)
        assert got.dtype == np.int32 and np.array_equal(got, want), op
        row_tag, col_tag = operator_tags(op)
        i, j = decode(col_tag, ell)
        affine = np.flatnonzero((i < ell) & (j < ell))
        rows = np.sort(rng.choice(len(want), size=ell, replace=False))
        restricted = restrict_to_affine(OperatorMatrix(row_tag, col_tag, want), ell).data
        assert np.array_equal(operator_rows(ctx, op, rows, affine), restricted[rows]), op
        assert np.array_equal(operator_rows(ctx, op, slice(2, 2 + ell), affine),
                              restricted[2:2 + ell]), op


def test_distinct_sorted_names_the_column_that_repeats_a_row(contexts):
    """A column of an incidence array that lists a row twice is refused, with
    that column's endpoints decoded from its index."""
    ctx = contexts[7]
    cases = [(path_incidence(ctx, 2), "ordered_pairs", "path at slope 2"),
             (geodesic_incidence(ctx), "unordered_pairs", "geodesic")]
    for idx, tag, what in cases:
        for col in (5, idx.shape[1] - 1):  # an affine pair, then one with inf
            bad = idx.copy()
            bad[1, col] = bad[0, col]
            ends = pair_label(tag, *(int(c[col]) for c in decode(tag, ctx.ell)), ctx.ell)
            msg = f"{what} through {ends} is not {len(idx)} distinct points"
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
    i, j = decode("ordered_pairs", 7)
    assert ordered_pair_index(int(i[17]), int(j[17]), 7) == 17
    msg = f"path at slope 3 through {pair_label('ordered_pairs', int(i[17]), int(j[17]), 7)} " \
          f"is not 6 distinct points"
    with pytest.raises(AssertionError, match=re.escape(msg)):
        path_columns(ctx, bases, cols)
    with pytest.raises(ValueError, match="nonzero"):
        base_paths(ctx, [1, 7])
    assert list(base_paths(ctx, [-1, 9])) == [6, 2]
