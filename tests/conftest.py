import pytest

from cartanmaps import PrimeContext

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
