"""Exact rank and determinant of integer matrices via modular elimination.

The mod-p engine eliminates in panels whose updates are applied as float64
matrix products; the panel width is capped so every dot product stays below
2^53 and is therefore exact.  This float64 engine takes primes p < 2^26
only, where (p - 1)^2 < 2^52 leaves a panel at least 2 wide, and raises
ValueError above.  A stack of small matrices is ranked in one vectorized int64
elimination, for p < 2^31.  Fraction-free (Bareiss) elimination over Python
ints provides the unconditionally exact route for small matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .modular_arith import is_prime

_PANEL_CAP = 192
FLOAT_PRIME_BOUND = 1 << 26  # the primes of the float64 mod-p engine lie below
# rank_exact's escalation after its preferred primes, and det_exact_small's bound
_BAREISS_LIMIT = 256
_RANDOM_PRIME_COUNT = 8
_RANDOM_PRIME_RANGE = (1 << 24, 1 << 25)
_STABILIZE_WINDOW = 3
_SEED = 0
_DET_EXACT_MAX_DIM = 64


def _as_int_matrix(m) -> np.ndarray:
    """Coerce an OperatorMatrix / array-like to a 2-D int64 ndarray."""
    if hasattr(m, "data"):
        m = m.data
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a.astype(np.int64, copy=False)


def check_float_modulus(p: int) -> None:
    """Refuse a modulus outside the float64 engine's domain 2 <= p < 2^26."""
    if p <= 1:
        raise ValueError("modulus must be >= 2")
    if p >= FLOAT_PRIME_BOUND:
        raise ValueError(f"modulus {p} is not below 2^26, the bound of the "
                         f"float64 mod-p engine")


def _echelon_float(A: np.ndarray, p: int) -> tuple[int, int]:
    """Row echelon mod p with batched float64 GEMM updates.

    Returns (rank, det mod p); det is meaningful only for square input.
    Exact because every dot product is a sum of at most `width` terms,
    each below (p-1)^2, and width*(p-1)^2 < 2^53.
    """
    m, n = A.shape
    W = np.mod(A, p).astype(np.float64)
    width = min(_PANEL_CAP, (1 << 53) // (p - 1) ** 2)
    F = np.zeros((m, width))
    R = np.zeros((width, n))
    slots = 0
    rank = 0
    sign = 1
    piv_prod = 1
    for j in range(n):
        if rank == m:
            break
        col = W[:, j].copy()
        if slots:
            col -= F[:, :slots] @ R[:slots, j]
            col %= p
        nz = np.nonzero(col[rank:])[0]
        if nz.size == 0:
            continue
        i0 = rank + int(nz[0])
        if i0 != rank:
            W[[rank, i0], :] = W[[i0, rank], :]
            F[[rank, i0], :] = F[[i0, rank], :]
            col[rank], col[i0] = col[i0], col[rank]
            sign = -sign
        rowvec = W[rank, :].copy()
        if slots:
            rowvec -= F[rank, :slots] @ R[:slots, :]
            rowvec %= p
        pv = int(rowvec[j]) % p
        piv_prod = piv_prod * pv % p
        R[slots, :] = np.mod(rowvec * pow(pv, -1, p), p)
        fcol = np.zeros(m)
        fcol[rank + 1:] = col[rank + 1:]
        F[:, slots] = fcol
        # The pivot row is final: fold its pending updates in and clear its factors.
        W[rank, :] = rowvec
        F[rank, :] = 0.0
        slots += 1
        rank += 1
        if slots == width:
            W -= F @ R
            W %= p
            F[:] = 0.0
            R[:] = 0.0
            slots = 0
    det = sign * piv_prod % p if (m == n and rank == n) else 0
    return rank, det


def rank_mod_p(m, p: int) -> int:
    """Rank over F_p, p < 2^26, by Gaussian elimination."""
    check_float_modulus(p)
    return _echelon_float(_as_int_matrix(m), p)[0]


def rank_mod_p_stack(B, p: int) -> np.ndarray:
    """Rank over F_p of every matrix in an integer stack of shape (batch, m, k).

    One elimination runs over the whole stack; Python loops over columns
    only.  Each matrix swaps its pivot row to position rank[b] and subtracts
    (entry / pivot) * pivot_row from its rows, with the multipliers and the
    pivot row reduced below p.  Every update thus grows an entry by less
    than (p - 1)^2, so the trailing block is reduced mod p only when int64
    would run out of room (never for the primes below about 2^20 that
    `verify` uses, once a step near 2^31).  The update also zeroes the pivot
    row itself in every later column, so a row that holds a pivot is never
    chosen again, and rows above rank.min() are left out of the search and
    the update.  Each pivot is inverted by Python's pow(v, -1, p).
    """
    if p >= 1 << 31:
        raise ValueError(f"modulus {p} does not fit the int64 elimination path")
    if p < 2:
        raise ValueError("modulus must be >= 2")
    W = np.array(B, dtype=np.int64)
    W %= p
    if W.ndim != 3:
        raise ValueError(f"expected a (batch, m, k) stack, got shape {W.shape}")
    batch, m, k = W.shape
    rank = np.zeros(batch, dtype=np.int64)
    if batch == 0:
        return rank
    b = np.arange(batch)
    room = _reduction_room(p)
    pending = 0
    for j in range(k):
        lo = int(rank.min())
        if lo == m:
            break
        col = W[:, lo:, j] % p
        free = col != 0
        found = free.any(axis=1)
        if not found.any():
            continue
        fb, top, piv = b[found], rank[found], lo + free[found].argmax(axis=1)
        W[fb, top, j:], W[fb, piv, j:] = W[fb, piv, j:], W[fb, top, j:]
        col[fb, top - lo], col[fb, piv - lo] = col[fb, piv - lo], col[fb, top - lo]
        # a matrix without a pivot here has a zero column from lo down, so
        # its multipliers are zero and the update leaves it as it is
        at = np.minimum(rank, m - 1)
        pv = np.where(found, col[b, at - lo], 1)
        inv = np.array([pow(v, -1, p) for v in pv.tolist()], dtype=np.int64)
        mult = col * inv[:, None] % p
        W[:, lo:, j + 1:] -= mult[:, :, None] * (W[b, at, j + 1:] % p)[:, None, :]
        pending += 1
        if pending == room:
            W[:, lo:, j + 1:] %= p
            pending = 0
        rank += found
    return rank


def _reduction_room(p: int) -> int:
    """Updates of at most (p - 1)^2 each that an int64 entry below p can
    take; rank_mod_p_stack reduces its trailing block after that many."""
    return ((1 << 63) - p) // (p - 1) ** 2


def det_mod_p(m, p: int) -> int:
    """Determinant mod p, p < 2^26, of a square integer matrix."""
    A = _as_int_matrix(m)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got {A.shape}")
    check_float_modulus(p)
    return _echelon_float(A, p)[1]


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("fraction-free elimination produced a non-integer")
    return q


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank over Q, det) by fraction-free elimination with column skipping,
    over Python ints; det is 0 unless the matrix is square of full rank."""
    a = [list(map(int, r)) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    sign = prev = 1
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                a[i][j] = _exact_div(a[i][j] * a[rank][col] - a[i][col] * a[rank][j], prev)
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == m:
            break
    return rank, sign * prev if m == n == rank else 0


def det_exact_small(m) -> int:
    """Exact determinant over Z, restricted to small matrices (cross-checks only)."""
    A = _as_int_matrix(m)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got {A.shape}")
    if A.shape[0] > _DET_EXACT_MAX_DIM:
        raise ValueError(f"dimension {A.shape[0]} exceeds det_exact_small bound "
                         f"{_DET_EXACT_MAX_DIM}")
    return _bareiss(A.tolist())[1]


@dataclass(frozen=True)
class RankCertificate:
    rows: int
    cols: int
    rank: int
    witnesses: tuple[tuple[int, int], ...]  # (prime, rank mod prime)
    method: str
    conclusive: bool

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "witnesses": [list(w) for w in self.witnesses],
            "method": self.method,
            "conclusive": self.conclusive,
        }


def _random_prime(rng: random.Random) -> int:
    lo, hi = _RANDOM_PRIME_RANGE
    while True:
        cand = rng.randrange(lo, hi) | 1
        if is_prime(cand):
            return cand


def rank_exact(m, preferred_primes: tuple[int, ...] = ()) -> RankCertificate:
    """Rank over Q with a certificate.

    Tries the preferred primes (each below 2^26) first: full rank mod p is
    exact.  Matrices of at most _BAREISS_LIMIT rows and columns then go
    through fraction-free elimination (exact); larger ones through up to
    _RANDOM_PRIME_COUNT random primes in (2^24, 2^25), drawn from a fixed
    seed, until full rank or until the last _STABILIZE_WINDOW ranks agree
    (explicit non-conclusive flag, never silent).
    """
    A = _as_int_matrix(m)
    rows, cols = A.shape
    full = min(rows, cols)
    witnesses: list[tuple[int, int]] = []
    for p in preferred_primes:
        r = rank_mod_p(A, p)
        witnesses.append((p, r))
        if r == full:
            return RankCertificate(rows, cols, r, tuple(witnesses),
                                   "single-prime full rank", True)
    if max(rows, cols) <= _BAREISS_LIMIT:
        r = _bareiss(A.tolist())[0]
        return RankCertificate(rows, cols, r, tuple(witnesses),
                               "fraction-free exact", True)
    rng = random.Random(_SEED)
    ranks: list[int] = []
    for _ in range(_RANDOM_PRIME_COUNT):
        p = _random_prime(rng)
        r = rank_mod_p(A, p)
        witnesses.append((p, r))
        ranks.append(r)
        if r == full:
            return RankCertificate(rows, cols, r, tuple(witnesses),
                                   "single-prime full rank", True)
        if (len(ranks) >= _STABILIZE_WINDOW
                and len(set(ranks[-_STABILIZE_WINDOW:])) == 1):
            break
    best = max(ranks) if ranks else 0
    return RankCertificate(rows, cols, best, tuple(witnesses),
                           "multi-prime stabilized", False)
