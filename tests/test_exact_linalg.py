import random
from fractions import Fraction

import numpy as np
import pytest

from cartanmaps import exact_linalg
from cartanmaps.correspondence import build_psi_plus
from cartanmaps.exact_linalg import (
    RankCertificate,
    det_mod_p,
    rank_exact,
    rank_mod_p,
    rank_mod_p_stack,
)
from cartanmaps.modular_arith import PrimeContext, is_prime

from conftest import exact_det, oracle_mod_p, restrict_to_affine


def fraction_rank(rows) -> int:
    """Independent oracle: rational Gaussian elimination."""
    a = [[Fraction(int(v)) for v in row] for row in rows]
    if not a:
        return 0
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


def fraction_det(rows) -> Fraction:
    a = [[Fraction(int(v)) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return det


def test_rank_mod_p_examples():
    assert rank_mod_p(np.zeros((4, 5), dtype=np.int64), 7) == 0
    assert rank_mod_p(np.eye(6, dtype=np.int64), 2) == 6
    ctx = PrimeContext(3)
    restricted = restrict_to_affine(build_psi_plus(ctx), ctx.ell)
    assert rank_mod_p(restricted, 3) == 3


def test_det_examples():
    assert det_mod_p(np.eye(3, dtype=np.int64), 5) == 1
    assert det_mod_p(np.diag([2, 3]), 5) == 1
    assert det_mod_p(np.array([[1, 1], [1, 1]]), 5) == 0
    assert exact_det(np.diag([2, 3])) == 6
    assert exact_det(np.array([[1, 1], [1, 1]])) == 0
    ctx = PrimeContext(3)
    restricted = restrict_to_affine(build_psi_plus(ctx), ctx.ell)
    d = exact_det(restricted.data)
    assert d != 0 and det_mod_p(restricted, 3) == d % 3


def test_det_validation():
    with pytest.raises(ValueError):
        det_mod_p(np.zeros((2, 3), dtype=np.int64), 5)


def test_rank_exact_preferred_prime_path():
    ctx = PrimeContext(5)
    cert = rank_exact(build_psi_plus(ctx), preferred_primes=(5,))
    assert cert.rank == 10
    assert cert.conclusive
    assert cert.method == "single-prime full rank"
    assert cert.witnesses == ((5, 10),)
    # the 10x10 affine restriction is itself full rank through the same route
    restricted = restrict_to_affine(build_psi_plus(ctx), ctx.ell)
    cert_r = rank_exact(restricted, preferred_primes=(5,))
    assert restricted.shape == (10, 10)
    assert cert_r.rank == 10 and cert_r.conclusive


def test_rank_exact_escalates_trivially():
    cert = rank_exact(np.array([[1, 1], [1, 1]]), preferred_primes=(5,))
    assert cert.rank == 1
    assert cert.conclusive
    assert cert.method == "fraction-free exact"
    assert cert.witnesses == ((5, 1),)


def test_rank_exact_multi_prime_path(monkeypatch):
    # rank-8 product matrix, too big for the exact path once its limit is 0
    monkeypatch.setattr(exact_linalg, "_BAREISS_LIMIT", 0)
    rng = np.random.default_rng(11)
    A = rng.integers(-3, 4, size=(20, 8)) @ rng.integers(-3, 4, size=(8, 20))
    cert = rank_exact(A)
    assert cert.method == "multi-prime stabilized"
    assert not cert.conclusive
    assert cert.rank == fraction_rank(A.tolist()) == 8
    assert all(r == 8 for (_, r) in cert.witnesses)
    # the random primes stop once the last _STABILIZE_WINDOW ranks agree
    assert len(cert.witnesses) == exact_linalg._STABILIZE_WINDOW


def test_rank_mod_p_is_lower_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = rng.integers(-9, 10, size=(6, 7))
        exact = fraction_rank(A.tolist())
        for p in (2, 3, 5, 101, 1048583):
            assert rank_mod_p(A, p) <= exact
        assert rank_exact(A).rank == exact


def test_fuzz_rank_and_det_500():
    rng = random.Random(20250810)
    for trial in range(500):
        m = rng.randrange(1, 13)
        n = rng.randrange(1, 13)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        cert = rank_exact(np.array(A, dtype=np.int64))
        assert cert.conclusive, f"trial {trial} not conclusive"
        assert cert.rank == fraction_rank(A), f"trial {trial} rank mismatch"
        if m == n:
            d = exact_det(A)
            assert d == fraction_det(A)
            for p in (97, 1048583):
                assert det_mod_p(np.array(A, dtype=np.int64), p) == d % p


@pytest.mark.parametrize("p", (2, 3, 97, 1_048_583, 67_108_859))
def test_rank_and_det_mod_p_match_the_oracle(p):
    """Planted ranks, every other matrix square; 67108859 is the largest
    prime below 2^26, the bound of the dense engine."""
    rng = np.random.default_rng(p)
    for trial in range(40):
        m, n = (int(v) for v in rng.integers(1, 25, size=2))
        if trial % 2:
            n = m
        r = int(rng.integers(0, min(m, n) + 1))
        left = rng.integers(0, p, size=(m, r, 1))
        right = rng.integers(0, p, size=(1, r, n))
        A = (left * right % p).sum(axis=1) % p
        # residues of either sign, up to 3p in size
        A += p * rng.integers(-3, 3, size=A.shape)
        rank, det = oracle_mod_p(A.tolist(), p)
        assert rank_mod_p(A, p) == rank, (trial, m, n)
        if m == n:
            assert det_mod_p(A, p) == det, (trial, m)


@pytest.mark.parametrize("p", (4093, 4099, 1_048_609))
@pytest.mark.parametrize("bound", ["default", "every prime", "no prime"])
def test_rank_mod_p_stack_matches_the_oracle(p, bound, monkeypatch):
    """Planted ranks in stacks of matrices of one shape, at small primes and
    at an auxiliary prime, with residues of either sign; at each prime with
    the trailing block reduced when int64 would run out of room (the
    default), after every column step, and never (safe for these sizes)."""
    if bound != "default":
        monkeypatch.setattr(exact_linalg, "_reduction_room",
                            (lambda p: 1) if bound == "every prime"
                            else (lambda p: -1))
    rng = np.random.default_rng(p)
    for trial in range(12):
        m, n = (int(v) for v in rng.integers(1, 16, size=2))
        ranks = rng.integers(0, min(m, n) + 1, size=6)
        B = np.stack([(rng.integers(0, p, size=(m, r, 1))
                       * rng.integers(0, p, size=(1, r, n)) % p).sum(axis=1) % p
                      for r in ranks.tolist()])
        # residues of either sign, up to 3p in size
        B += p * rng.integers(-3, 3, size=B.shape)
        want = [oracle_mod_p(A.tolist(), p)[0] for A in B]
        assert rank_mod_p_stack(B, p).sum(axis=1).tolist() == want, (trial, m, n)


def eliminated_rank(rows, p: int) -> int:
    """The rank mod p of one matrix by elimination with row swaps over Python
    ints: the per-matrix reference of the stacked kernel."""
    a = [[int(v) % p for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][col] * inv % p
            a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def stacks_of(rng, batch, m, k, p):
    """Uniform members (full rank but for chance), planted members of every
    rank up to min(m, k), and identity rows shuffled among zero rows, whose
    pivots fall in no row order."""
    yield rng.integers(0, p, size=(batch, m, k))
    ranks = rng.integers(0, min(m, k) + 1, size=batch)
    yield np.array([(rng.integers(0, p, size=(m, r, 1)) * rng.integers(0, p, size=(1, r, k))
                     % p).sum(axis=1) % p for r in ranks.tolist()],
                   dtype=np.int64).reshape(batch, m, k)
    shuffled = np.zeros((batch, m, k), dtype=np.int64)
    for b in range(batch):
        n = int(rng.integers(0, min(m, k) + 1))
        rows, cols = rng.permutation(m)[:n], rng.permutation(k)[:n]
        shuffled[b, rows, cols] = rng.integers(1, p, size=n)
    yield shuffled


STACK_SHAPES = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1), (5, 6, 6), (4, 7, 3),
                (4, 3, 9), (6, 12, 14), (3, 22, 24)]


@pytest.mark.parametrize("p, forced", [(3, False), (1_048_609, False),
                                       (2_147_483_629, False), (2_147_483_629, True)])
def test_swap_free_stack_ranks_equal_a_per_matrix_elimination(p, forced, monkeypatch):
    """rank_mod_p_stack, which moves no row, against the per-matrix
    elimination with swaps: uniform, planted and shuffled stacks, batch 0,
    m = 0 and k = 0, and a prime just below 2^31, also with the trailing
    block reduced at every column."""
    assert is_prime(p)
    if forced:
        monkeypatch.setattr(exact_linalg, "_reduction_room", lambda p: 1)
    rng = np.random.default_rng(p + forced)
    for batch, m, k in STACK_SHAPES:
        for B in stacks_of(rng, batch, m, k, p):
            got = rank_mod_p_stack(B, p)
            assert got.shape == (batch, k) and got.dtype == bool
            assert got.sum(axis=1).tolist() == [eliminated_rank(A.tolist(), p)
                                                for A in B], (m, k)
    if p > 3:
        # uniform members at a large prime are of full rank
        B = rng.integers(0, p, size=(8, 10, 12))
        assert rank_mod_p_stack(B, p).sum(axis=1).tolist() == [10] * 8


def dependent_columns(rng, batch, m, k, p):
    """Uniform members in which about half the columns are replaced by a
    combination of the columns before them, and uniform members with about
    two columns in five zero."""
    B = rng.integers(0, p, size=(batch, m, k))
    for j in range(1, k):
        coeff = rng.integers(0, p, size=(batch, 1, j))
        combined = (B[:, :, :j] * coeff % p).sum(axis=2) % p
        planted = rng.random(batch) < 0.5
        B[planted, :, j] = combined[planted]
    yield B
    yield rng.integers(0, p, size=(batch, m, k)) * (rng.random((batch, 1, k)) >= 0.4)


@pytest.mark.parametrize("p", (2, 3, 1_048_609, 2_147_483_647))
def test_stack_pivots_count_the_rank_of_every_column_prefix(p):
    """The kernel's pivot columns are the column rank profile: the pivots
    among a member's first j columns number the rank of those j columns, by
    the per-matrix elimination, for every j, on uniform, planted, shuffled,
    dependent-column and zero-column stacks, batch 0 and m = 0 among them."""
    assert is_prime(p)
    rng = np.random.default_rng(p)
    for batch, m, k in STACK_SHAPES:
        for B in [*stacks_of(rng, batch, m, k, p), *dependent_columns(rng, batch, m, k, p)]:
            pivots = rank_mod_p_stack(B, p)
            assert pivots.shape == (batch, k) and pivots.dtype == bool
            want = [[eliminated_rank(A[:, :j].tolist(), p) for j in range(1, k + 1)]
                    for A in B]
            assert pivots.cumsum(axis=1).tolist() == want, (m, k)


def float_panel_echelon(A, p: int) -> tuple[int, int]:
    """(rank, det mod p) by the float64 panel elimination the dense engine
    used before its int64 row operations: every dot product a sum of at
    most `width` terms below (p - 1)^2, exact below 2^53.  The reference for
    the results of rank_mod_p and det_mod_p."""
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    W = np.mod(A, p).astype(np.float64)
    width = min(192, (1 << 53) // (p - 1) ** 2)
    F, R = np.zeros((m, width)), np.zeros((width, n))
    slots = rank = 0
    sign = piv_prod = 1
    for j in range(n):
        if rank == m:
            break
        col = W[:, j].copy()
        if slots:
            col = (col - F[:, :slots] @ R[:slots, j]) % p
        nz = np.nonzero(col[rank:])[0]
        if nz.size == 0:
            continue
        i0 = rank + int(nz[0])
        if i0 != rank:
            W[[rank, i0]], F[[rank, i0]] = W[[i0, rank]], F[[i0, rank]]
            col[rank], col[i0] = col[i0], col[rank]
            sign = -sign
        rowvec = W[rank].copy()
        if slots:
            rowvec = (rowvec - F[rank, :slots] @ R[:slots]) % p
        pv = int(rowvec[j]) % p
        piv_prod = piv_prod * pv % p
        R[slots] = np.mod(rowvec * pow(pv, -1, p), p)
        F[:, slots] = np.where(np.arange(m) > rank, col, 0.0)
        W[rank], F[rank] = rowvec, 0.0
        slots, rank = slots + 1, rank + 1
        if slots == width:
            W = (W - F @ R) % p
            F[:], R[:], slots = 0.0, 0.0, 0
    return rank, sign * piv_prod % p if m == n == rank else 0


@pytest.mark.parametrize("p", (2, 3, 97, 1_048_583, 67_108_859))
def test_dense_engine_matches_the_exact_det_and_the_float_engine(p):
    """det_mod_p is the exact determinant mod p, and rank_mod_p and det_mod_p are
    the float64 panel engine's, on random matrices: square ones, singular
    ones (a row a combination of two others) and wide and tall ones."""
    rng = np.random.default_rng(p)
    for trial in range(60):
        n = int(rng.integers(1, 20))
        A = rng.integers(-50, 51, size=(n, n))
        if trial % 3 == 1 and n > 2:
            A[-1] = 2 * A[0] - 3 * A[1]
        rank, det = float_panel_echelon(A, p)
        if trial % 3 == 2:
            A = rng.integers(-50, 51, size=(n, int(rng.integers(1, 20))))
            rank, det = float_panel_echelon(A, p)
        else:
            assert det_mod_p(A, p) == exact_det(A) % p == det, (trial, n)
            if trial % 3 == 1 and n > 2:
                assert det == 0
        assert rank_mod_p(A, p) == rank, (trial, A.shape)


def test_certificate_serialization():
    cert = RankCertificate(3, 4, 3, ((5, 3),), "single-prime full rank", True)
    doc = cert.to_json()
    assert doc["rank"] == 3 and doc["conclusive"] is True
    assert doc["witnesses"] == [[5, 3]]


def test_accepts_operator_matrix_and_lists():
    ctx = PrimeContext(3)
    m = build_psi_plus(ctx)
    assert rank_mod_p(m, 3) == rank_mod_p(m.data, 3) == 3
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
    with pytest.raises(ValueError):
        rank_mod_p(np.zeros(3), 5)
