import random
from fractions import Fraction

import numpy as np
import pytest

from cartanmaps import exact_linalg
from cartanmaps.correspondence import build_psi_plus, restrict_to_affine
from cartanmaps.exact_linalg import (
    RankCertificate,
    det_exact_small,
    det_mod_p,
    rank_exact,
    rank_mod_p,
    rank_mod_p_stack,
)
from cartanmaps.modular_arith import PrimeContext

from conftest import oracle_mod_p


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
    restricted = restrict_to_affine(build_psi_plus(ctx))
    assert rank_mod_p(restricted, 3) == 3


def test_det_examples():
    assert det_mod_p(np.eye(3, dtype=np.int64), 5) == 1
    assert det_mod_p(np.diag([2, 3]), 5) == 1
    assert det_mod_p(np.array([[1, 1], [1, 1]]), 5) == 0
    assert det_exact_small(np.diag([2, 3])) == 6
    assert det_exact_small(np.array([[1, 1], [1, 1]])) == 0
    ctx = PrimeContext(3)
    restricted = restrict_to_affine(build_psi_plus(ctx))
    d = det_exact_small(restricted)
    assert d != 0 and det_mod_p(restricted, 3) == d % 3


def test_det_validation(monkeypatch):
    with pytest.raises(ValueError):
        det_mod_p(np.zeros((2, 3), dtype=np.int64), 5)
    with pytest.raises(ValueError):
        det_exact_small(np.eye(65, dtype=np.int64))
    monkeypatch.setattr(exact_linalg, "_DET_EXACT_MAX_DIM", 65)
    assert det_exact_small(np.eye(65, dtype=np.int64)) == 1


def test_rank_exact_preferred_prime_path():
    ctx = PrimeContext(5)
    cert = rank_exact(build_psi_plus(ctx), preferred_primes=(5,))
    assert cert.rank == 10
    assert cert.conclusive
    assert cert.method == "single-prime full rank"
    assert cert.witnesses == ((5, 10),)
    # the 10x10 affine restriction is itself full rank through the same route
    restricted = restrict_to_affine(build_psi_plus(ctx))
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
            d = det_exact_small(np.array(A, dtype=np.int64))
            assert d == fraction_det(A)
            for p in (97, 1048583):
                assert det_mod_p(np.array(A, dtype=np.int64), p) == d % p


@pytest.mark.parametrize("p", (2, 3, 97, 1_048_583, 67_108_859))
def test_rank_and_det_mod_p_match_the_oracle(p):
    """Planted ranks, every other matrix square; 67108859 is the largest
    prime below 2^26, where a float64 panel is 2 pivots wide."""
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
        assert rank_mod_p_stack(B, p).tolist() == want, (trial, m, n)


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
