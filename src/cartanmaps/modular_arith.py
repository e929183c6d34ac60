"""Exact arithmetic modulo an odd prime ell.

Residues are canonical ints in [0, ell); every function reduces its output.
PrimeContext bundles the prime with the non-square epsilon and primitive
root g that the rest of the package keys its constructions on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

# Enough witnesses to make Miller-Rabin deterministic for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all inputs up to 64 bits."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(n: int) -> bool:
    return n >= 3 and n % 2 == 1 and is_prime(n)


def _require_odd_prime(ell: int) -> None:
    if not isinstance(ell, int) or not is_odd_prime(ell):
        raise ValueError(f"modulus must be an odd prime, got {ell!r}")


def legendre(a: int, ell: int) -> int:
    """Legendre symbol (a/ell) via Euler's criterion: 0, +1 or -1."""
    a %= ell
    if a == 0:
        return 0
    t = pow(a, (ell - 1) // 2, ell)
    return 1 if t == 1 else -1


def _tonelli_shanks(a: int, ell: int) -> int:
    """One square root of a mod ell; a must be a nonzero square."""
    if ell % 4 == 3:
        return pow(a, (ell + 1) // 4, ell)
    q = ell - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, ell) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, ell), pow(a, q, ell), pow(a, (q + 1) // 2, ell)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % ell
            i += 1
        b = pow(c, 1 << (m - i - 1), ell)
        m, c = i, b * b % ell
        t, r = t * c % ell, r * b % ell
    return r


def sqrt_mod(a: int, ell: int) -> tuple[int, ...]:
    """All x with x^2 = a (mod ell), sorted: (), (0,), or (x, ell-x), by
    Tonelli-Shanks."""
    a %= ell
    if a == 0:
        return (0,)
    if legendre(a, ell) == -1:
        return ()
    x = _tonelli_shanks(a, ell)
    return tuple(sorted((x, ell - x)))


def find_nonsquare(ell: int) -> int:
    """Smallest non-square in F_ell^x (deterministic)."""
    _require_odd_prime(ell)
    return next(a for a in range(2, ell) if legendre(a, ell) == -1)


def _factorize(n: int) -> list[int]:
    """Distinct prime factors by trial division (fine for the supported range)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def find_primitive_root(ell: int) -> int:
    """Smallest primitive root modulo ell (deterministic)."""
    _require_odd_prime(ell)
    exps = [(ell - 1) // q for q in _factorize(ell - 1)]
    for g in range(2, ell):
        if all(pow(g, e, ell) != 1 for e in exps):
            return g
    raise AssertionError("unreachable: every odd prime has a primitive root")


def multiplicative_order(a: int, ell: int) -> int:
    a %= ell
    if a == 0:
        raise ValueError("order of 0 is undefined")
    order = ell - 1
    for q in _factorize(ell - 1):
        while order % q == 0 and pow(a, order // q, ell) == 1:
            order //= q
    return order


def binom_mod(n: int, k: int, ell: int) -> int:
    """C(n, k) mod ell, restricted to 0 <= n < ell (the only regime needed)."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if n >= ell:
        raise ValueError(f"binom_mod requires n < ell, got n={n}, ell={ell}")
    if k > n:
        return 0
    return math.comb(n, k) % ell


@lru_cache(maxsize=None)
def inverse_table(ell: int) -> np.ndarray:
    """inverse_table(ell)[a] = a^-1 mod ell for a in [1, ell); entry 0 is 0."""
    tab = np.zeros(ell, dtype=np.int64)
    tab[1:] = [pow(a, -1, ell) for a in range(1, ell)]
    tab.flags.writeable = False
    return tab


@dataclass(frozen=True)
class PrimeContext:
    """The prime ell with a chosen non-square epsilon and primitive root g.

    Defaults are the smallest valid representatives, so runs are
    reproducible; both can be overridden to probe independence of the
    verified statements from these choices.
    """

    ell: int
    epsilon: int | None = None
    g: int | None = None
    r: int = field(init=False)

    def __post_init__(self) -> None:
        _require_odd_prime(self.ell)
        ell = self.ell
        eps = self.epsilon if self.epsilon is not None else find_nonsquare(ell)
        eps %= ell
        if legendre(eps, ell) != -1:
            raise ValueError(f"epsilon={eps} is a square modulo {ell}")
        g = self.g if self.g is not None else find_primitive_root(ell)
        g %= ell
        if g == 0 or multiplicative_order(g, ell) != ell - 1:
            raise ValueError(f"g={g} is not a primitive root modulo {ell}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "r", (ell - 1) // 2)

    @property
    def inverse_table(self) -> np.ndarray:
        return inverse_table(self.ell)

    @cached_property
    def dlog(self) -> tuple[int, ...]:
        """dlog[a] = the i in [0, ell-1) with g^i = a; dlog[0] = -1."""
        tab = [-1] * self.ell
        acc = 1
        for i in range(self.ell - 1):
            tab[acc] = i
            acc = acc * self.g % self.ell
        return tuple(tab)

    @cached_property
    def sqrt_counts(self) -> tuple[int, ...]:
        """sqrt_counts[a] = number of x with x^2 = a (mod ell)."""
        counts = [0] * self.ell
        for x in range(self.ell):
            counts[x * x % self.ell] += 1
        return tuple(counts)

    def sqrts(self, a: int) -> tuple[int, ...]:
        return sqrt_mod(a, self.ell)

    def nonsquares(self) -> list[int]:
        return [a for a in range(1, self.ell) if legendre(a, self.ell) == -1]

    def primitive_roots(self) -> list[int]:
        return [a for a in range(2, self.ell)
                if multiplicative_order(a, self.ell) == self.ell - 1]

    def __repr__(self) -> str:
        return f"PrimeContext(ell={self.ell}, epsilon={self.epsilon}, g={self.g})"
