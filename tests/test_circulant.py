import numpy as np
import pytest

from cartanmaps.circulant import (
    CertificateError,
    ReducedCountMatrixN,
    build_block_matrix_N,
    build_reduced_C,
    circulant_det_mod,
    circulant_eigenvalues,
    eigenvalues_C,
    eigenvalues_N,
    reduce_mod_frak_L,
    verify_chart_conjugacy,
)
from cartanmaps import circulant
from cartanmaps.correspondence import (
    build_H_s,
    build_psi_plus,
    geodesic_incidence,
    restrict_to_affine,
)
from cartanmaps.exact_linalg import det_mod_p
from cartanmaps.geometry import decode
from cartanmaps.modular_arith import PrimeContext, legendre

from conftest import PRIMES_ALL, PRIMES_SMALL


def test_block_index_sets_example(contexts):
    bm = build_block_matrix_N(contexts[5])
    ms = sorted({m for (m, _) in bm.keys()})
    Ms = sorted({M for (_, M) in bm.keys()})
    assert ms == [1, 4] and Ms == [2, 3]


def test_block_example_smallest_prime(contexts):
    # ell=3: single block (1, 2); 1+2 = 0 has the lone root x = 0, so the
    # block is the identity permutation with multiplicity one
    bm = build_block_matrix_N(contexts[3])
    assert set(bm.keys()) == {(1, 2)}
    assert np.array_equal(bm.block(1, 2), np.eye(3, dtype=np.int8))


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_blocks_are_circulant_and_correct(ell, contexts):
    ctx = contexts[ell]
    bm = build_block_matrix_N(ctx)
    assert len(bm.keys()) == ctx.r * ctx.r
    for m, M in bm.keys():
        block = bm.block(m, M)
        assert legendre(m, ell) == 1 and legendre(M, ell) == -1
        row0 = block[0]
        for t in range(ell):
            for T in range(ell):
                assert block[t, T] == row0[(T - t) % ell]
                assert block[t, T] == (1 if pow(T - t, 2, ell) == (m + M) % ell else 0)
        # shift decomposition: row-0 support is the square-root set of m+M
        support = {T for T in range(ell) if row0[T]}
        assert support == {x % ell for x in range(ell) if x * x % ell == (m + M) % ell}


def test_reduce_example(contexts):
    ctx = contexts[7]
    rm = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
    # a_j = #{x : x^2 = 1 + 3 * 3^(2j)} for j = 0, 1, 2
    assert rm.first_row == (2, 1, 0)
    rm5 = reduce_mod_frak_L(build_block_matrix_N(contexts[5]), contexts[5])
    assert rm5.first_row == (0, 2)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_reduce_row_sums(ell, contexts):
    # sum_j a_j counts the x with (x^2 - 1)/eps a nonzero square
    ctx = contexts[ell]
    rm = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
    inv_eps = pow(ctx.epsilon, -1, ell)
    brute = sum(1 for x in range(ell)
                if legendre((x * x - 1) * inv_eps % ell, ell) == 1)
    assert sum(rm.first_row) == brute
    # full matrix is circulant with that first row
    mat = rm.matrix()
    for i in range(ctx.r):
        for j in range(ctx.r):
            assert mat[i, j] == rm.first_row[(j - i) % ctx.r]


def test_eigenvalues_N_frozen_values(contexts):
    recs = eigenvalues_N(reduce_mod_frak_L(build_block_matrix_N(contexts[7]),
                                           contexts[7]), contexts[7])
    got = [(r.k, r.k_prime, r.residue, r.closed_form, r.matrix_eigenvalue) for r in recs]
    assert got == [(0, 0, 6, 6, 3), (1, 2, 2, 2, 4), (2, 1, 6, 6, 6)]
    recs5 = eigenvalues_N(reduce_mod_frak_L(build_block_matrix_N(contexts[5]),
                                            contexts[5]), contexts[5])
    got5 = [(r.k, r.residue, r.matrix_eigenvalue, r.scale) for r in recs5]
    assert got5 == [(0, 4, 2, 3), (1, 4, 3, 2)]


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_eigenvalues_N_against_independent_sum(ell, contexts):
    """residue must equal the parametrized sum over the second conic form."""
    ctx = contexts[ell]
    eps = ctx.epsilon
    recs = eigenvalues_N(reduce_mod_frak_L(build_block_matrix_N(ctx), ctx), ctx)
    for r in recs:
        oracle = sum(
            pow(lam * pow((1 - eps * lam * lam) % ell, -1, ell) % ell, 2 * r.k, ell)
            for lam in range(1, ell)
        ) % ell
        assert r.residue == oracle
        assert r.matches and r.nonzero
        assert r.matrix_eigenvalue == r.scale * r.residue % ell
    assert recs[0].residue == ell - 1


def test_eigenvalues_N_detects_corruption(contexts):
    ctx = contexts[7]
    bad = ReducedCountMatrixN(7, 3, 3, (2, 1, 1))
    with pytest.raises(CertificateError) as err:
        eigenvalues_N(bad, ctx)
    assert err.value.reports  # partial context is carried


def test_eigenvalues_C_frozen_values(contexts):
    recs = eigenvalues_C(contexts[5])
    got = [(r.k, r.k_prime, r.residue, r.alpha_part, r.beta_part,
            r.matrix_eigenvalue) for r in recs]
    assert got == [(0, 0, 1, 1, 0, 1), (1, 3, 1, 0, 1, 1),
                   (2, 2, 1, 1, 0, 1), (3, 1, 2, 0, 2, 2)]


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_eigenvalues_C_against_double_sum_oracle(ell, contexts):
    """Brute-force double sums over (s, lam) are the authority for the parts."""
    ctx = contexts[ell]
    eps = ctx.epsilon
    recs = eigenvalues_C(ctx)
    for r in recs:
        alpha = beta = 0
        for s in range(1, ell):
            inner = 0
            for lam in range(1, ell):
                den = (pow(lam * s + 1, 2, ell) - eps * lam * lam) % ell
                inner += pow(lam * pow(den, -1, ell) % ell, r.k, ell)
            alpha += inner
            beta += pow(s, -1, ell) * inner
        assert r.alpha_part == alpha % ell
        assert r.beta_part == beta % ell
        assert r.residue == (alpha + beta) % ell
        assert r.matches and r.nonzero
    assert recs[0].residue == 1


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_parity_split(ell, contexts):
    """alpha part vanishes exactly on odd k', beta part exactly on even k' (k > 0)."""
    for r in eigenvalues_C(contexts[ell]):
        if r.k == 0:
            assert (r.alpha_part, r.beta_part) == (1, 0)
            continue
        if r.k_prime % 2 == 0:
            assert r.alpha_part != 0 and r.beta_part == 0
        else:
            assert r.alpha_part == 0 and r.beta_part != 0


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_reduced_C_rows(ell, contexts):
    ctx = contexts[ell]
    rc = build_reduced_C(ctx)
    g, eps = ctx.g, ctx.epsilon
    for s in range(1, ell):
        for j in range(ell - 1):
            rhs = (1 + 4 * eps * pow(g, 2 * j, ell) - 4 * s * pow(g, j, ell)) % ell
            assert rc.s_rows[s][j] == len([v for v in range(ell)
                                           if v * v % ell == rhs])
    for j in range(ell - 1):
        expected = sum((1 + pow(s, -1, ell)) * rc.s_rows[s][j]
                       for s in range(1, ell)) % ell
        assert rc.combined_row[j] == expected


def test_circulant_det_identity_and_ones(contexts):
    ctx = contexts[7]
    assert circulant_det_mod((1, 0, 0), 2, ctx) == 1
    assert circulant_det_mod((1, 0, 0, 0, 0, 0), 1, ctx) == 1
    # all-ones circulant is rank 1, determinant 0 for size >= 2
    assert circulant_det_mod((1, 1, 1), 2, ctx) == 0
    assert circulant_det_mod((1,) * 6, 1, ctx) == 0
    with pytest.raises(ValueError):
        circulant_det_mod((1, 0, 0, 0), 1, ctx)   # 4 does not divide 6
    with pytest.raises(ValueError):
        circulant_det_mod((1, 0, 0), 1, ctx)      # g^1 has order 6, not 3


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_circulant_eigenvalues_are_eigenvalues(ell, contexts):
    """The k-th value of circulant_eigenvalues(row, u) is the eigenvalue of
    the eigenvector (u^(ki))_i of the dense circulant, for u = g and g^2."""
    ctx = contexts[ell]
    rng = np.random.default_rng(ell)
    for e in (1, 2):
        n = (ell - 1) // e
        u = pow(ctx.g, e, ell)
        row = rng.integers(0, ell, n)
        eigs = circulant_eigenvalues(row, u, ell)
        assert len(eigs) == n
        for k, eig in enumerate(eigs):
            v = np.array([pow(u, k * i, ell) for i in range(n)], dtype=np.int64)
            assert np.array_equal(circulant._circulant(row) @ v % ell, eig * v % ell)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_circulant_det_matches_direct_determinant(ell, contexts):
    ctx = contexts[ell]
    rm = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
    prod = circulant_det_mod(rm.first_row, 2, ctx)
    assert prod == det_mod_p(rm.matrix(), ell)
    rc = build_reduced_C(ctx)
    prod_c = circulant_det_mod(rc.combined_row, 1, ctx)
    assert prod_c == det_mod_p(rc.matrix(), ell)
    assert prod != 0 and prod_c != 0


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_chart_conjugacy(ell, contexts):
    """The check passes, and the dense psi+ on affine pairs has its ones
    exactly where the chart condition (T - t)^2 = m + M holds."""
    ctx = contexts[ell]
    assert verify_chart_conjugacy(ctx, geodesic_incidence(ctx))
    restricted = restrict_to_affine(build_psi_plus(ctx), ell)
    a, b = decode("unordered_pairs", ell)
    affine = b < ell
    x, y = decode("H_ell", ell)
    for ci, (i, j) in enumerate(zip(a[affine].tolist(), b[affine].tolist())):
        # (t, n) = (a + b, ab), m = t^2 - 4n
        t = (i + j) % ell
        m = (t * t - 4 * i * j) % ell
        for ri, (u, v) in enumerate(zip(x.tolist(), y.tolist())):
            # (T, N) = (z + zbar, z zbar) = (2x, x^2 - eps y^2), M = T^2 - 4N
            T = 2 * u % ell
            M = (T * T - 4 * (u * u - ctx.epsilon * v * v)) % ell
            assert restricted.data[ri, ci] == (pow(T - t, 2, ell) == (m + M) % ell)


CHART_CONTEXTS = [(ell, None, None) for ell in PRIMES_SMALL] + [(13, 5, 7)]


@pytest.mark.parametrize("ell,eps,root", CHART_CONTEXTS)
def test_chart_conjugacy_sees_moved_entries_and_swapped_columns(ell, eps, root):
    ctx = PrimeContext(ell, eps, root)
    geodesics = geodesic_incidence(ctx)
    at_inf = decode("unordered_pairs", ell)[1] == ell
    affine, at_inf = np.flatnonzero(~at_inf), np.flatnonzero(at_inf)

    def moved(j):
        """geodesics with the last entry of column j moved to a row outside it."""
        out = geodesics.copy()
        out[-1, j] = min(set(range(ell * ctx.r)) - set(out[:, j].tolist()))
        return out

    assert not verify_chart_conjugacy(ctx, moved(affine[0]))
    assert not verify_chart_conjugacy(ctx, moved(affine[-1]))
    swapped = geodesics.copy()
    swapped[:, [affine[0], affine[-1]]] = swapped[:, [affine[-1], affine[0]]]
    assert not verify_chart_conjugacy(ctx, swapped)
    # every column one point short
    assert not verify_chart_conjugacy(ctx, geodesics[1:])
    # a pair through infinity has no chart coordinates, so its column is not read
    assert verify_chart_conjugacy(ctx, moved(at_inf[0]))


def test_chart_conjugacy_needs_an_injective_row_chart(contexts, monkeypatch):
    """A row chart that names two rows alike fails before any column is read."""
    ctx = contexts[7]

    geodesics = geodesic_incidence(ctx)
    decoded = decode

    def rows_alike(tag, ell):
        """Every class of H_ell as x + se, so that the row chart repeats;
        the columns must not be decoded."""
        if tag != "H_ell":
            raise AssertionError("a column was read")
        x, y = decoded(tag, ell)
        return x, np.ones_like(y)

    monkeypatch.setattr(circulant, "decode", rows_alike)
    assert not verify_chart_conjugacy(ctx, geodesics)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_chart_entries_C_side(ell, contexts):
    """Geometric slope operator entries match the relabeled count condition
    with the labels g^i = b - a, g^j = y."""
    ctx = contexts[ell]
    g, eps = ctx.g, ctx.epsilon
    dlog = {pow(g, k, ell): k for k in range(ell - 1)}
    first, second = decode("ordered_pairs", ell)
    affine = (first < ell) & (second < ell)
    pairs = list(zip(first[affine].tolist(), second[affine].tolist()))
    points = list(zip(*(c.tolist() for c in decode("C_ell", ell))))
    for s in range(1, ell):
        h = restrict_to_affine(build_H_s(ctx, s), ell)
        for ci, (a, b) in enumerate(pairs):
            t = (a + b) % ell
            i = dlog[(b - a) % ell]
            for ri, (x, y) in enumerate(points):
                T = 2 * x % ell
                j = dlog[y]
                rhs = (pow(g, 2 * i, ell) + 4 * eps * pow(g, 2 * j, ell)
                       - 4 * s * pow(g, i + j, ell)) % ell
                assert h.data[ri, ci] == (1 if pow(T - t, 2, ell) == rhs else 0)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_certificates_for_other_roots_and_epsilons(ell):
    """The certificates hold for every primitive root and non-square choice."""
    base = PrimeContext(ell)
    for gr in base.primitive_roots():
        ctx = PrimeContext(ell, base.epsilon, gr)
        eigenvalues_N(reduce_mod_frak_L(build_block_matrix_N(ctx), ctx), ctx)
        eigenvalues_C(ctx)
    for eps in base.nonsquares():
        ctx = PrimeContext(ell, eps, base.g)
        eigenvalues_N(reduce_mod_frak_L(build_block_matrix_N(ctx), ctx), ctx)
        eigenvalues_C(ctx)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_det_nonzero_iff_restriction_full_rank(ell, contexts):
    """The certificate's nonvanishing must agree with the geometric rank."""
    from cartanmaps.exact_linalg import rank_mod_p
    ctx = contexts[ell]
    rm = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
    det_n = det_mod_p(rm.matrix(), ell)
    restricted = restrict_to_affine(build_psi_plus(ctx), ell)
    assert det_n != 0
    assert rank_mod_p(restricted, ell) == restricted.shape[1]


# ---------------------------------------------------------------------------
# The vectorised circulant-shift checks, against the loops they replaced.
# ---------------------------------------------------------------------------

def looped_reduce_N(bm, ctx):
    """reduce_mod_frak_L as scalar loops: its first row, or the error text."""
    ell, g, eps, r = ctx.ell, ctx.g, ctx.epsilon, ctx.r
    counts = ctx.sqrt_counts
    row = []
    for j in range(r):
        M = eps * pow(g, 2 * j, ell) % ell
        block_count = int(bm.block(1 % ell, M)[0].sum())
        direct = counts[(1 + M) % ell]
        if block_count != direct:
            return f"block (1, {M}) collapses to {block_count}, direct count is {direct}"
        row.append(direct)
    for i in range(r):
        for j in range(r):
            val = counts[(pow(g, 2 * i, ell) + eps * pow(g, 2 * j, ell)) % ell]
            if val != row[(j - i) % r]:
                return f"count matrix is not circulant at ({i},{j})"
    return tuple(row)


def looped_reduce_C(ctx):
    """build_reduced_C as scalar loops: (s_rows, combined_row), or the error
    text."""
    ell, g, eps = ctx.ell, ctx.g, ctx.epsilon
    counts = ctx.sqrt_counts
    n = ell - 1
    gpow = [pow(g, j, ell) for j in range(n)]
    s_rows = {}
    for s in range(1, ell):
        row = tuple(counts[(1 + 4 * eps * gpow[j] * gpow[j] - 4 * s * gpow[j]) % ell]
                    for j in range(n))
        for i in range(n):
            for j in range(n):
                val = counts[(gpow[i] * gpow[i] + 4 * eps * gpow[j] * gpow[j]
                              - 4 * s * gpow[i] * gpow[j]) % ell]
                if val != row[(j - i) % n]:
                    return f"slope-{s} count matrix is not circulant at ({i},{j})"
        s_rows[s] = row
    # alpha_s + beta_s = 1 + s^-1
    combined = tuple(sum((1 + pow(s, -1, ell)) * s_rows[s][j] for s in range(1, ell)) % ell
                     for j in range(n))
    return s_rows, combined


def vectorised_reduce_N(bm, ctx):
    try:
        return reduce_mod_frak_L(bm, ctx).first_row
    except CertificateError as exc:
        return str(exc)


def vectorised_reduce_C(ctx):
    try:
        rm = build_reduced_C(ctx)
    except CertificateError as exc:
        return str(exc)
    return rm.s_rows, rm.combined_row


LOOP_CONTEXTS = [PrimeContext(ell) for ell in PRIMES_ALL] + [PrimeContext(13, 5, 7)]


@pytest.mark.parametrize("ctx", LOOP_CONTEXTS, ids=str)
def test_count_circulants_match_the_loops(ctx):
    bm = build_block_matrix_N(ctx)
    first_row = vectorised_reduce_N(bm, ctx)
    assert first_row == looped_reduce_N(bm, ctx)
    assert all(type(v) is int for v in first_row)
    s_rows, combined = vectorised_reduce_C(ctx)
    assert (s_rows, combined) == looped_reduce_C(ctx)
    assert all(type(v) is int for v in combined + s_rows[1])


@pytest.mark.parametrize("ell", [7, 13])
def test_a_tampered_count_fails_with_the_loops_witness(ell):
    """Each entry of sqrt_counts in turn is off by one: the vectorised checks
    fail exactly when the loops do, naming the same slope and (i, j)."""
    circulant_errors = set()
    for a in range(ell):
        ctx = PrimeContext(ell)
        counts = list(ctx.sqrt_counts)
        counts[a] += 1
        ctx.__dict__["sqrt_counts"] = tuple(counts)
        bm = build_block_matrix_N(ctx)
        got_n, got_c = vectorised_reduce_N(bm, ctx), vectorised_reduce_C(ctx)
        assert got_n == looped_reduce_N(bm, ctx), a
        assert got_c == looped_reduce_C(ctx), a
        circulant_errors |= {e for e in (got_n, got_c)
                             if isinstance(e, str) and "not circulant at" in e}
    # the half-plane and some slope's circulant check each caught a tampering
    assert any(e.startswith("count matrix") for e in circulant_errors)
    assert any(e.startswith("slope-") for e in circulant_errors)
