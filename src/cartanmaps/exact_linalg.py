"""Exact rank and determinant of integer matrices via modular elimination.

The dense mod-p engine eliminates by int64 row operations; it takes primes
p < 2^26 only, where a product of two residues stays below 2^52, and raises
ValueError above.  A stack of small matrices is ranked in one vectorized
int64 elimination, for p < 2^31.  Fraction-free (Bareiss) elimination over
Python ints provides the unconditionally exact route for small matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .modular_arith import is_prime

DENSE_PRIME_BOUND = 1 << 26  # the primes of the dense mod-p engine lie below
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


def _echelon(A, p: int) -> tuple[int, int]:
    """Row echelon mod p, 2 <= p < 2^26, by int64 row operations: (rank,
    det mod p), det 0 unless A is square of full rank.  The rows below a
    pivot subtract multiples of the pivot row, both reduced below p, so an
    update grows an entry by less than (p - 1)^2 < 2^52; a column is reduced
    when it is read, the trailing block when int64 would run out of room."""
    if p <= 1:
        raise ValueError("modulus must be >= 2")
    if p >= DENSE_PRIME_BOUND:
        raise ValueError(f"modulus {p} is not below 2^26, the bound of the "
                         f"dense mod-p engine")
    W = np.mod(_as_int_matrix(A), p)
    m, n = W.shape
    room, rank, det, pending = _reduction_room(p), 0, 1, 0
    for j in range(n):
        if rank == m:
            break
        col = W[rank:, j] % p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = int(nz[0])
        if i:
            W[[rank, rank + i]] = W[[rank + i, rank]]
            det = -det
        pv = int(col[i])
        det = det * pv % p
        if nz.size > 1:
            # the rows from the next one with an entry down, below the swap
            mult = col[nz[1]:] * pow(pv, -1, p) % p
            W[rank + nz[1]:, j + 1:] -= mult[:, None] * (W[rank, j + 1:] % p)
            pending += 1
            if pending == room:
                W[rank + 1:, j + 1:] %= p
                pending = 0
        rank += 1
    return rank, det % p if m == n == rank else 0


def rank_mod_p(m, p: int) -> int:
    """Rank over F_p, p < 2^26, by Gaussian elimination."""
    return _echelon(m, p)[0]


def _inverses(values: list[int], p: int) -> list[int]:
    """The inverses mod p of nonzero residues by batch inversion (P. L.
    Montgomery, Math. Comp. 48, 1987): one pow and 3(n - 1) products."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv, out = pow(acc, -1, p), []
    for v, before in zip(reversed(values), reversed(prefix)):
        out.append(inv * before % p)
        inv = inv * v % p
    return out[::-1]


def rank_mod_p_stack(B, p: int) -> np.ndarray:
    """Rank over F_p of every matrix in an integer stack of shape (batch, m, k).

    One elimination runs over the whole stack; Python loops over columns
    only, and no row moves.  A matrix's pivot in a column is its first row
    nonzero mod p there; its rows subtract (entry / pivot) * pivot_row, with
    multipliers and pivot row reduced below p, which zeroes the pivot row in
    every later column.  Rows zero in the column in every matrix are left
    out.  An update grows an entry by less than (p - 1)^2, so the trailing
    block is reduced only when int64 would run out of room (never below
    about 2^20, where `verify`'s primes lie).  A column's pivots are
    inverted together (_inverses).
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
    if batch == 0 or m == 0:
        return rank
    b, room, pending = np.arange(batch), _reduction_room(p), 0
    for j in range(k):
        col = W[:, :, j] % p
        free = col != 0
        rows = free.any(axis=0)
        if not rows.any():
            continue
        lo, hi = int(rows.argmax()), m - int(rows[::-1].argmax())
        piv = free.argmax(axis=1)
        pv = col[b, piv]
        # a matrix without a pivot here (pv = 0) has a zero column, so its
        # multipliers are zero and the update leaves it as it is
        inv = np.array(_inverses((pv + (pv == 0)).tolist(), p), dtype=np.int64)
        mult = col[:, lo:hi] * inv[:, None] % p
        W[:, lo:hi, j + 1:] -= mult[:, :, None] * (W[b, piv, j + 1:] % p)[:, None, :]
        pending += 1
        if pending == room:
            W[:, :, j + 1:] %= p
            pending = 0
        rank += pv != 0
    return rank


def _reduction_room(p: int) -> int:
    """Updates of at most (p - 1)^2 each that an int64 entry below p can
    take; the eliminations reduce their trailing block after that many."""
    return ((1 << 63) - p) // (p - 1) ** 2


def det_mod_p(m, p: int) -> int:
    """Determinant mod p, p < 2^26, of a square integer matrix."""
    A = _as_int_matrix(m)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got {A.shape}")
    return _echelon(A, p)[1]


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
        return {**vars(self), "witnesses": [list(w) for w in self.witnesses]}


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
