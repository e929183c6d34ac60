import math

import pytest

from cartanmaps.modular_arith import (
    PrimeContext,
    binom_mod,
    find_nonsquare,
    find_primitive_root,
    is_odd_prime,
    is_prime,
    legendre,
    multiplicative_order,
)

from conftest import PRIMES_ALL


def brute_squares(ell):
    return {x * x % ell for x in range(1, ell)}


def test_is_prime_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(561)      # Carmichael
    assert not is_prime(341550071728321)
    assert is_prime(2_147_483_647)
    assert is_odd_prime(31)
    assert not is_odd_prime(2)


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(1, 13) == 1
    # brute-force squares mod 7 are {1, 2, 4}
    assert brute_squares(7) == {1, 2, 4}
    assert legendre(3, 7) == -1


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_legendre_euler_criterion(ell):
    for a in range(1, ell):
        e = pow(a, (ell - 1) // 2, ell)
        assert legendre(a, ell) == (1 if e == 1 else -1)
        assert (a in brute_squares(ell)) == (legendre(a, ell) == 1)
    assert sum(1 for a in range(1, ell) if legendre(a, ell) == 1) == (ell - 1) // 2


def test_sqrt_mod_examples():
    """sqrt_counts[a] counts the square roots of a mod ell."""
    counts = PrimeContext(11).sqrt_counts
    assert (counts[0], counts[4], counts[6]) == (1, 2, 0)
    # brute-force squares mod 11 are {1, 3, 4, 5, 9}
    assert brute_squares(11) == {1, 3, 4, 5, 9}
    assert {a for a in range(11) if counts[a] == 2} == brute_squares(11)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_sqrt_mod_counts(ell):
    counts = PrimeContext(ell).sqrt_counts
    assert len(counts) == ell and counts[0] == 1
    for a in range(1, ell):
        assert counts[a] == sum(x * x % ell == a for x in range(ell)) == 1 + legendre(a, ell)


def test_find_nonsquare_examples():
    assert find_nonsquare(3) == 2
    assert find_nonsquare(7) == 3
    for bad in (9, 2, 15, -3):
        with pytest.raises(ValueError):
            find_nonsquare(bad)


def test_find_primitive_root_examples():
    assert find_primitive_root(5) == 2
    # powers of 2 mod 5 are 2, 4, 3, 1
    assert [pow(2, k, 5) for k in (1, 2, 3, 4)] == [2, 4, 3, 1]
    with pytest.raises(ValueError):
        find_primitive_root(8)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_primitive_root_has_full_order(ell):
    g = find_primitive_root(ell)
    divisors = [d for d in range(1, ell - 1) if (ell - 1) % d == 0]
    for d in divisors:
        assert pow(g, d, ell) != 1
    assert multiplicative_order(g, ell) == ell - 1
    # smallest: everything below fails
    for a in range(2, g):
        assert multiplicative_order(a, ell) != ell - 1


def test_binom_mod_examples():
    assert binom_mod(4, 2, 7) == 6
    assert binom_mod(3, 0, 5) == 1
    assert binom_mod(2, 3, 11) == 0
    with pytest.raises(ValueError):
        binom_mod(7, 2, 7)
    with pytest.raises(ValueError):
        binom_mod(3, -1, 7)
    for n in range(13):
        for k in range(13):
            assert binom_mod(n, k, 13) == math.comb(n, k) % 13


def test_prime_context_defaults_and_validation():
    ctx = PrimeContext(7)
    assert (ctx.ell, ctx.epsilon, ctx.g, ctx.r) == (7, 3, 3, 3)
    ctx2 = PrimeContext(7, epsilon=5, g=5)
    assert ctx2.epsilon == 5 and ctx2.g == 5
    with pytest.raises(ValueError):
        PrimeContext(9)
    with pytest.raises(ValueError):
        PrimeContext(4)
    with pytest.raises(ValueError):
        PrimeContext(7, epsilon=2)   # square
    with pytest.raises(ValueError):
        PrimeContext(7, g=2)         # order 3, not primitive
    with pytest.raises(ValueError):
        PrimeContext(7, g=0)


@pytest.mark.parametrize("ell", PRIMES_ALL)
def test_prime_context_tables(ell):
    ctx = PrimeContext(ell)
    for a in range(1, ell):
        assert int(ctx.inverse_table[a]) * a % ell == 1
        assert ctx.sqrt_counts[a] == 1 + legendre(a, ell)
    assert ctx.inverse_table[0] == 0
    assert ctx.sqrt_counts[0] == 1
    assert set(ctx.nonsquares()) == {a for a in range(1, ell) if legendre(a, ell) == -1}
    assert ctx.g in ctx.primitive_roots()
