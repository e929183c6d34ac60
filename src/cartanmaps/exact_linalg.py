"""Exact rank and determinant of integer matrices via modular elimination.

The mod-p engine eliminates in panels whose updates are applied as float64
matrix products; the panel width is capped so every dot product stays below
2^53 and is therefore exact. Larger primes fall back to an int64 per-pivot
path. A stack of small matrices is ranked in one vectorized int64
elimination. Fraction-free (Bareiss) elimination over Python ints provides
the unconditionally exact route for small matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .modular_arith import is_prime

_PANEL_CAP = 192
_RANDOM_PRIME_RANGE = (1 << 24, 1 << 25)


def _as_int_matrix(m) -> np.ndarray:
    """Coerce an OperatorMatrix / array-like to a 2-D int64 ndarray."""
    if hasattr(m, "data"):
        m = m.data
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a.astype(np.int64, copy=False)


def _panel_width(p: int) -> int:
    if p <= 1:
        raise ValueError("modulus must be >= 2")
    return min(_PANEL_CAP, (1 << 53) // max(1, (p - 1) ** 2))


def _echelon_float(A: np.ndarray, p: int) -> tuple[int, int]:
    """Row echelon mod p with batched float64 GEMM updates.

    Returns (rank, det mod p); det is meaningful only for square input.
    Exact because every dot product is a sum of at most `width` terms,
    each below (p-1)^2, and width*(p-1)^2 < 2^53.
    """
    m, n = A.shape
    W = np.mod(A, p).astype(np.float64)
    width = _panel_width(p)
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


def _echelon_int64(A: np.ndarray, p: int) -> tuple[int, int]:
    """Per-pivot int64 elimination; valid for p < 2^31."""
    if p >= 1 << 31:
        raise ValueError(f"modulus {p} does not fit the int64 elimination path")
    m, n = A.shape
    W = np.mod(A, p).astype(np.int64)
    rank = 0
    sign = 1
    piv_prod = 1
    for j in range(n):
        if rank == m:
            break
        nz = np.nonzero(W[rank:, j])[0]
        if nz.size == 0:
            continue
        i0 = rank + int(nz[0])
        if i0 != rank:
            W[[rank, i0], :] = W[[i0, rank], :]
            sign = -sign
        pv = int(W[rank, j])
        piv_prod = piv_prod * pv % p
        row = W[rank, :] * pow(pv, -1, p) % p
        W[rank, :] = row
        below = W[rank + 1:, j]
        mask = below != 0
        if mask.any():
            W[rank + 1:, :][mask] = (
                W[rank + 1:, :][mask] - np.outer(below[mask], row)
            ) % p
        rank += 1
    det = sign * piv_prod % p if (m == n and rank == n) else 0
    return rank, det


def _echelon_mod_p(A: np.ndarray, p: int) -> tuple[int, int]:
    if _panel_width(p) >= 4:
        return _echelon_float(A, p)
    return _echelon_int64(A, p)


def rank_mod_p(m, p: int) -> int:
    """Rank over F_p by Gaussian elimination."""
    A = _as_int_matrix(m)
    if A.size == 0:
        return 0
    return _echelon_mod_p(A, p)[0]


def _inverse_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p elementwise: the inverses of the units of F_p, p < 2^31."""
    out = np.ones_like(a)
    base, e = a % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


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
    the update.
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
    room = ((1 << 63) - p) // (p - 1) ** 2  # updates an entry below p can take
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
        mult = col * _inverse_mod_p(pv, p)[:, None] % p
        W[:, lo:, j + 1:] -= mult[:, :, None] * (W[b, at, j + 1:] % p)[:, None, :]
        pending += 1
        if pending == room:
            W[:, lo:, j + 1:] %= p
            pending = 0
        rank += found
    return rank


def det_mod_p(m, p: int) -> int:
    """Determinant mod p of a square integer matrix."""
    A = _as_int_matrix(m)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got {A.shape}")
    if A.shape[0] == 0:
        return 1 % p
    return _echelon_mod_p(A, p)[1]


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("fraction-free elimination produced a non-integer")
    return q


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination (Python ints)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _exact_div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Exact rank over Q by fraction-free elimination with column skipping."""
    m = len(rows)
    if m == 0:
        return 0
    a = [list(map(int, r)) for r in rows]
    n = len(a[0])
    prev = 1
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                a[i][j] = _exact_div(a[i][j] * a[rank][col] - a[i][col] * a[rank][j], prev)
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == m:
            break
    return rank


def det_exact_small(m, max_dim: int = 64) -> int:
    """Exact determinant over Z, restricted to small matrices (cross-checks only)."""
    A = _as_int_matrix(m)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got {A.shape}")
    if A.shape[0] > max_dim:
        raise ValueError(f"dimension {A.shape[0]} exceeds det_exact_small bound {max_dim}")
    return _bareiss_det(A.tolist())


@dataclass(frozen=True)
class RankPolicy:
    """How rank_exact escalates when the preferred primes are not conclusive."""

    preferred_primes: tuple[int, ...] = ()
    random_prime_count: int = 8
    stabilize_window: int = 3
    bareiss_limit: int = 256
    seed: int = 0


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


def rank_exact(m, policy: RankPolicy | None = None) -> RankCertificate:
    """Rank over Q with a certificate.

    Tries the policy's preferred primes first (full rank mod p is exact);
    small matrices then go through fraction-free elimination (exact), larger
    ones through random primes until the rank stabilizes (explicit
    non-conclusive flag, never silent).
    """
    policy = policy or RankPolicy()
    A = _as_int_matrix(m)
    rows, cols = A.shape
    full = min(rows, cols)
    witnesses: list[tuple[int, int]] = []
    for p in policy.preferred_primes:
        r = rank_mod_p(A, p)
        witnesses.append((p, r))
        if r == full:
            return RankCertificate(rows, cols, r, tuple(witnesses),
                                   "single-prime full rank", True)
    if max(rows, cols) <= policy.bareiss_limit:
        r = _bareiss_rank(A.tolist())
        return RankCertificate(rows, cols, r, tuple(witnesses),
                               "fraction-free exact", True)
    rng = random.Random(policy.seed)
    ranks: list[int] = []
    for _ in range(policy.random_prime_count):
        p = _random_prime(rng)
        r = rank_mod_p(A, p)
        witnesses.append((p, r))
        ranks.append(r)
        if r == full:
            return RankCertificate(rows, cols, r, tuple(witnesses),
                                   "single-prime full rank", True)
        window = policy.stabilize_window
        if len(ranks) >= window and len(set(ranks[-window:])) == 1:
            break
    best = max(ranks) if ranks else 0
    return RankCertificate(rows, cols, best, tuple(witnesses),
                           "multi-prime stabilized", False)
