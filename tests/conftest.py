import pytest

from cartanmaps import GroupElement, PrimeContext
from cartanmaps.geometry import decode

# Exhaustive property range and the full desk-scale sweep.
PRIMES_SMALL = (3, 5, 7, 11, 13)
PRIMES_ALL = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.fixture(scope="session")
def contexts():
    return {ell: PrimeContext(ell) for ell in PRIMES_ALL}


def oracle_mod_p(rows, p: int) -> tuple[int, int]:
    """(rank, det) mod p by Gaussian elimination over Python ints: a reference
    independent of the numpy engines.  det is 0 unless the matrix is square
    of full rank (1 for the empty matrix)."""
    a = [[int(v) % p for v in row] for row in rows]
    m, n = len(a), len(a[0]) if a else 0
    rank, det = 0, 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det = det * a[rank][col] % p
        inv = pow(a[rank][col], -1, p)
        for i in range(rank + 1, m):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank, det % p if m == n == rank else 0


# ---------------------------------------------------------------------------
# References for the four G-sets, by Python int arithmetic from the paper's
# definitions: P^1 indices (ell is infinity), x + y*se as (x, y).
# ---------------------------------------------------------------------------

def random_invertible(rng, ell: int) -> GroupElement:
    while True:
        m = GroupElement(*(rng.randrange(ell) for _ in range(4)))
        if (m.a * m.d - m.b * m.c) % ell:
            return m


def p1_move(m, i: int, ell: int) -> int:
    """(x : y) -> (ax + by : cx + dy) on the P^1 index i."""
    a, b, c, d = m
    x, y = (1, 0) if i == ell else (i, 1)
    num, den = (a * x + b * y) % ell, (c * x + d * y) % ell
    return ell if den == 0 else num * pow(den, -1, ell) % ell


def fq_move(m, x: int, y: int, ctx) -> tuple[int, int]:
    """(az + b)/(cz + d) for z = x + y*se, in F_ell(se): the numerator times
    the conjugate of the denominator, over the denominator's norm."""
    ell, eps = ctx.ell, ctx.epsilon
    a, b, c, d = m
    nx, ny = (a * x + b) % ell, a * y % ell
    dx, dy = (c * x + d) % ell, c * y % ell
    inv = pow((dx * dx - eps * dy * dy) % ell, -1, ell)
    return (nx * dx - eps * ny * dy) * inv % ell, (ny * dx - nx * dy) * inv % ell


def carrier(i: int, j: int, ell: int, t: int = 1, u: int = 1) -> GroupElement:
    """The g with g(0) = i and g(inf) = j whose columns are t (j : 1) and
    u (i : 1), infinity's (1 : 0): every such g, as t and u run over the
    units."""
    return GroupElement(t if j == ell else j * t % ell, u if i == ell else i * u % ell,
                        0 if j == ell else t, 0 if i == ell else u)


def geodesic_set(i: int, j: int, ctx, t: int = 1, u: int = 1) -> set:
    """The geodesic {i, j}: g(lam*se) for lam in F_ell^x and g = carrier(i,
    j), each point as its class (x, min(y, ell - y)) in H_ell."""
    ell = ctx.ell
    g = carrier(i, j, ell, t, u)
    return {(x, min(y, ell - y))
            for x, y in (fq_move(g, 0, lam, ctx) for lam in range(1, ell))}


def path_set(i: int, j: int, s: int, ctx, t: int = 1, u: int = 1) -> set:
    """The slope-s path (i, j): g(lam*s + lam*se) for lam in F_ell^x and g =
    carrier(i, j)."""
    ell = ctx.ell
    g = carrier(i, j, ell, t, u)
    return {fq_move(g, lam * s % ell, lam, ctx) for lam in range(1, ell)}


def incidence_sets(idx, row_tag: str, col_tag: str, ell: int) -> dict:
    """{(i, j): the set of (x, y) of the rows idx lists in column (i, j)} of
    an incidence array, decoded."""
    x, y = decode(row_tag, ell)
    i, j = decode(col_tag, ell)
    return {(a, b): set(zip(x[rows].tolist(), y[rows].tolist()))
            for a, b, rows in zip(i.tolist(), j.tolist(), idx.T)}


def pair_label(tag: str, i: int, j: int, ell: int) -> str:
    """{i,j} or (i,j), infinity as inf: how messages and titles name a pair."""
    ends = ",".join("inf" if k == ell else str(k) for k in (i, j))
    return f"{{{ends}}}" if tag == "unordered_pairs" else f"({ends})"
