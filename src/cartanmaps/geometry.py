"""The finite sets P^1(F_ell), C_ell, H_ell, the GL2 action, and coordinate charts.

Enumeration orders fixed here define the row/column indexing of every operator
matrix downstream: lexicographic on stored fields, with the point at infinity
sorted last.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .modular_arith import PrimeContext, inverse_table


@dataclass(frozen=True, order=True)
class ProjectivePoint:
    """A point of P^1(F_ell): Affine(x) = (x : 1) or Infinity = (1 : 0)."""

    at_infinity: bool
    x: int = 0

    def __str__(self) -> str:
        return "inf" if self.at_infinity else str(self.x)


INFINITY = ProjectivePoint(True, 0)


@dataclass(frozen=True, order=True)
class UnorderedPair:
    """{lo, hi}, distinct points; construction normalizes the order."""

    lo: ProjectivePoint
    hi: ProjectivePoint

    def __post_init__(self) -> None:
        if self.lo == self.hi:
            raise ValueError(f"pair members must be distinct, got {self.lo}")
        if self.hi < self.lo:
            lo, hi = self.hi, self.lo
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)

    @property
    def is_affine(self) -> bool:
        return not self.hi.at_infinity

    def __str__(self) -> str:
        return "{%s,%s}" % (self.lo, self.hi)


@dataclass(frozen=True, order=True)
class OrderedPair:
    """(first, second), distinct points."""

    first: ProjectivePoint
    second: ProjectivePoint

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError(f"pair members must be distinct, got {self.first}")

    @property
    def is_affine(self) -> bool:
        return not (self.first.at_infinity or self.second.at_infinity)

    def __str__(self) -> str:
        return "(%s,%s)" % (self.first, self.second)


class CartanPoint(NamedTuple):
    """x + y*sqrt(epsilon) in C_ell; y != 0."""

    x: int
    y: int

    def __str__(self) -> str:
        return f"{self.x}+{self.y}*se"


class CartanOrbit(NamedTuple):
    """The conjugation class {x + y*se, x - y*se} in H_ell, stored with 1 <= y <= r."""

    x: int
    y: int

    def __str__(self) -> str:
        return f"{self.x}+{self.y}*se"


def cartan_point(x: int, y: int, ell: int) -> CartanPoint:
    x, y = x % ell, y % ell
    if y == 0:
        raise ValueError("CartanPoint requires y != 0")
    return CartanPoint(x, y)


def orbit_of(x: int, y: int, ell: int) -> CartanOrbit:
    """Normalize (x, y) to the stored orbit representative with 1 <= y <= (ell-1)/2."""
    x, y = x % ell, y % ell
    if y == 0:
        raise ValueError("CartanOrbit requires y != 0")
    if y > (ell - 1) // 2:
        y = ell - y
    return CartanOrbit(x, y)


class GroupElement(NamedTuple):
    """The matrix (a b; c d) in GL2(F_ell); entries are canonical residues."""

    a: int
    b: int
    c: int
    d: int


IDENTITY = GroupElement(1, 0, 0, 1)


def det_mod(m: GroupElement, ell: int) -> int:
    return (m.a * m.d - m.b * m.c) % ell


def mat_mul(m: GroupElement, n: GroupElement, ell: int) -> GroupElement:
    return GroupElement(
        (m.a * n.a + m.b * n.c) % ell,
        (m.a * n.b + m.b * n.d) % ell,
        (m.c * n.a + m.d * n.c) % ell,
        (m.c * n.b + m.d * n.d) % ell,
    )


def mat_inv(m: GroupElement, ell: int) -> GroupElement:
    di = pow(det_mod(m, ell), -1, ell)
    return GroupElement(
        m.d * di % ell, -m.b * di % ell, -m.c * di % ell, m.a * di % ell
    )


def random_invertible(rng: random.Random, ell: int) -> GroupElement:
    while True:
        m = GroupElement(*(rng.randrange(ell) for _ in range(4)))
        if det_mod(m, ell) != 0:
            return m


# ---------------------------------------------------------------------------
# Group actions.  `move_p1` and `move_cartan` state each action once, as
# elementwise arithmetic on integer coordinates: a point of P^1 by its index
# (x, or ell for infinity), a point of C_ell or H_ell by (x, y).  The entries
# of m (see `stack`) and the coordinates may be ints or broadcastable numpy
# arrays.  The dataclass actions are converters around them, and the
# encoders map coordinates to positions in the enumerations below.
# ---------------------------------------------------------------------------

def stack(elements) -> GroupElement:
    """Group elements as one GroupElement whose entries are int64 arrays."""
    return GroupElement(*np.array(elements, dtype=np.int64).reshape(-1, 4).T)


def move_p1(m, p, ell: int):
    """Action on column vectors: (x : y) -> (ax + by : cx + dy), renormalized."""
    a, b, c, d = m
    inf = p == ell
    x = p + inf * (1 - ell)  # (x : y) = (p : 1), or (1 : 0) at infinity
    y = 1 - inf
    num = (a * x + b * y) % ell
    den = (c * x + d * y) % ell
    # den = 0 sends the point to infinity; then num != 0 and num * 0 = 0
    return num * inverse_table(ell)[den] % ell + (den == 0) * ell


def move_cartan(m, x, y, ctx: PrimeContext):
    """z -> (az + b)/(cz + d) on z = x + y*se, expanded in the basis {1, se}.

    The denominator norm never vanishes: cz + d = 0 with z outside F_ell
    would force c = d = 0, contradicting invertibility.  Reducing after each
    product keeps array intermediates below ell^3.
    """
    ell, eps = ctx.ell, ctx.epsilon
    a, b, c, d = m
    dn = (c * x + d) % ell
    dy = c * y % ell
    norm = (dn * dn - eps * dy * dy) % ell
    ni = ctx.inverse_table[norm]
    nx = ((a * x + b) % ell * dn - eps * a % ell * y % ell * dy) % ell * ni % ell
    ny = y * ((a * d - b * c) % ell) % ell * ni % ell
    return nx, ny


def mobius_act(m: GroupElement, p: ProjectivePoint, ell: int) -> ProjectivePoint:
    i = move_p1(m, p1_index(p, ell), ell)
    return INFINITY if i == ell else ProjectivePoint(False, int(i))


def cartan_act(m: GroupElement, z: CartanPoint, ctx: PrimeContext) -> CartanPoint:
    x, y = move_cartan(m, z.x, z.y, ctx)
    return CartanPoint(int(x), int(y))


def orbit_act(m: GroupElement, w: CartanOrbit, ctx: PrimeContext) -> CartanOrbit:
    x, y = move_cartan(m, w.x, w.y, ctx)
    return orbit_of(int(x), int(y), ctx.ell)


def generators(ctx: PrimeContext) -> tuple[GroupElement, ...]:
    """(1 1; 0 1), (1 0; 1 1) and diag(g, 1), which generate GL2(F_ell).

    The two elementary matrices generate SL2 over a prime field, and the
    determinant of diag(g, 1) generates F_ell^x.
    """
    return (GroupElement(1, 1, 0, 1), GroupElement(1, 0, 1, 1),
            GroupElement(ctx.g, 0, 0, 1))


def p1_index(p: ProjectivePoint, ell: int) -> int:
    return ell if p.at_infinity else p.x


def unordered_pair_index(i, j, ell: int):
    """{i, j} for P^1 indices i != j: row-major over lo < hi."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return lo * ell - lo * (lo - 1) // 2 + hi - lo - 1


def ordered_pair_index(i, j, ell: int):
    """(i, j) for P^1 indices i != j: row-major, the diagonal skipped."""
    return i * ell + j - (j > i)


def orbit_index(x, y, ell: int):
    """The orbit of x + y*se in H_ell, for any y != 0."""
    r = (ell - 1) // 2
    return x * r + np.minimum(y, ell - y) - 1


def cartan_index(x, y, ell: int):
    """x + y*se in C_ell."""
    return x * (ell - 1) + y - 1


@lru_cache(maxsize=None)
def decode(tag: str, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of every element of the basis with this tag, in the
    order of its enumeration below: the P^1 indices (i, j) of the pair for
    "unordered_pairs" and "ordered_pairs", (x, y) of x + y*se for "H_ell"
    (1 <= y <= r) and "C_ell".  The encoders above invert it.  Kept for the
    process, as read-only arrays."""
    if tag == "unordered_pairs":
        coords = np.triu_indices(ell + 1, 1)
    elif tag == "ordered_pairs":
        coords = np.nonzero(~np.eye(ell + 1, dtype=bool))
    elif tag in ("H_ell", "C_ell"):
        n = (ell - 1) // 2 if tag == "H_ell" else ell - 1
        x, y = np.divmod(np.arange(ell * n), n)
        coords = x, y + 1
    else:
        raise ValueError(f"no basis {tag!r}")
    for a in coords:
        a.flags.writeable = False
    return tuple(coords)


def transporters(tag: str, u, v, ell: int) -> GroupElement:
    """An x in GL2 with x * base = the element with coordinates (u, v) (see
    decode) of the basis with this tag, for ints or broadcastable arrays.

    For a pair (i, j) the base is {0, inf} or (0, inf), and x is
    (j 1; 1 0) for i = inf, (1 i; 0 1) for j = inf, else (j i; 1 1).  For
    x + y*se in H_ell or C_ell the base is se, and x is (y x; 0 1).
    """
    if tag in ("unordered_pairs", "ordered_pairs"):
        i_fin, j_fin = 1 * (u != ell), 1 * (v != ell)
        return GroupElement(np.where(j_fin, v, 1), np.where(i_fin, u, 1), j_fin, i_fin)
    return GroupElement(v, u, 0 * u, 0 * u + 1)


def permutation(m: GroupElement, tag: str, ctx: PrimeContext) -> np.ndarray:
    """out[i] = the index of m * (element i) in the basis with this tag."""
    ell = ctx.ell
    u, v = decode(tag, ell)
    if tag == "unordered_pairs":
        return unordered_pair_index(move_p1(m, u, ell), move_p1(m, v, ell), ell)
    if tag == "ordered_pairs":
        return ordered_pair_index(move_p1(m, u, ell), move_p1(m, v, ell), ell)
    x, y = move_cartan(m, u, v, ctx)
    return orbit_index(x, y, ell) if tag == "H_ell" else cartan_index(x, y, ell)


# ---------------------------------------------------------------------------
# Canonical enumerations (these orders are part of the matrix export format)
# ---------------------------------------------------------------------------

def enumerate_p1(ctx: PrimeContext) -> list[ProjectivePoint]:
    return [ProjectivePoint(False, x) for x in range(ctx.ell)] + [INFINITY]


def enumerate_pairs_unordered(ctx: PrimeContext) -> list[UnorderedPair]:
    pts = enumerate_p1(ctx)
    return [UnorderedPair(pts[i], pts[j])
            for i in range(len(pts)) for j in range(i + 1, len(pts))]


def enumerate_pairs_ordered(ctx: PrimeContext) -> list[OrderedPair]:
    pts = enumerate_p1(ctx)
    return [OrderedPair(p, q) for p in pts for q in pts if p != q]


def enumerate_H(ctx: PrimeContext) -> list[CartanOrbit]:
    return [CartanOrbit(x, y) for x in range(ctx.ell) for y in range(1, ctx.r + 1)]


def enumerate_C(ctx: PrimeContext) -> list[CartanPoint]:
    return [CartanPoint(x, y) for x in range(ctx.ell) for y in range(1, ctx.ell)]


class Basis:
    """A tagged, ordered basis with O(1) element -> index lookup."""

    __slots__ = ("tag", "elements", "_index")

    def __init__(self, tag: str, elements: Iterable):
        self.tag = tag
        self.elements = tuple(elements)
        self._index = {el: i for i, el in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError(f"duplicate elements in basis {tag!r}")

    def index_of(self, element) -> int:
        return self._index[element]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Basis) and self.tag == other.tag
                and self.elements == other.elements)

    def __repr__(self) -> str:
        return f"Basis({self.tag!r}, size={len(self.elements)})"


def basis(tag: str, ctx: PrimeContext) -> Basis:
    """The basis with this tag, whose elements decode gives coordinates of."""
    return Basis(tag, {"unordered_pairs": enumerate_pairs_unordered,
                       "ordered_pairs": enumerate_pairs_ordered,
                       "H_ell": enumerate_H, "C_ell": enumerate_C}[tag](ctx))


# ---------------------------------------------------------------------------
# Coordinate charts between the geometric sets and the (t, n)/(t, m) planes.
# Each map below is a bijection onto its stated codomain; round-trips are the
# identity. The split-side charts cover only pairs of affine points.
# ---------------------------------------------------------------------------

class SplitPairTN(NamedTuple):
    """(t, n) = (a + b, a*b) with t^2 - 4n a nonzero square (the set B+)."""

    t: int
    n: int


class SplitPairTM(NamedTuple):
    """(t, m) with m = t^2 - 4n a nonzero square (the set S+)."""

    t: int
    m: int


class NonsplitTN(NamedTuple):
    """(T, N) = (z + zbar, z*zbar) with T^2 - 4N a non-square (the set B'+)."""

    t: int
    n: int


class NonsplitTM(NamedTuple):
    """(T, M) with M = T^2 - 4N a non-square (the set S'+)."""

    t: int
    m: int


class SplitDiff(NamedTuple):
    """(t, t') = (a + b, a - b) with t' != 0 (the set S)."""

    t: int
    tp: int


class NonsplitDiff(NamedTuple):
    """(T, T') = (z + zbar, 2y) where z - zbar = 2y*se (the set S')."""

    t: int
    tp: int


def _require_affine_unordered(pair: UnorderedPair) -> tuple[int, int]:
    if not pair.is_affine:
        raise ValueError(f"chart covers only affine pairs, got {pair}")
    return pair.lo.x, pair.hi.x


def pair_to_tn(pair: UnorderedPair, ctx: PrimeContext) -> SplitPairTN:
    a, b = _require_affine_unordered(pair)
    return SplitPairTN((a + b) % ctx.ell, a * b % ctx.ell)


def tn_to_pair(tn: SplitPairTN, ctx: PrimeContext) -> UnorderedPair:
    """Roots of x^2 - t x + n; requires the discriminant to be a nonzero square."""
    ell = ctx.ell
    disc = (tn.t * tn.t - 4 * tn.n) % ell
    roots = ctx.sqrts(disc)
    if len(roots) != 2:
        raise ValueError(f"(t,n)={tn} is outside B+: t^2-4n = {disc}")
    half = pow(2, -1, ell)
    a, b = ((tn.t + s) * half % ell for s in roots)
    return UnorderedPair(ProjectivePoint(False, a), ProjectivePoint(False, b))


def tn_to_tm(tn: SplitPairTN, ctx: PrimeContext) -> SplitPairTM:
    return SplitPairTM(tn.t, (tn.t * tn.t - 4 * tn.n) % ctx.ell)


def tm_to_tn(tm: SplitPairTM, ctx: PrimeContext) -> SplitPairTN:
    inv4 = pow(4, -1, ctx.ell)
    return SplitPairTN(tm.t, (tm.t * tm.t - tm.m) * inv4 % ctx.ell)


def orbit_to_tn(w: CartanOrbit, ctx: PrimeContext) -> NonsplitTN:
    """{z, zbar} -> (z + zbar, z*zbar) = (2x, x^2 - eps*y^2)."""
    ell = ctx.ell
    return NonsplitTN(2 * w.x % ell, (w.x * w.x - ctx.epsilon * w.y * w.y) % ell)


def tn_to_orbit(tn: NonsplitTN, ctx: PrimeContext) -> CartanOrbit:
    ell = ctx.ell
    disc = (tn.t * tn.t - 4 * tn.n) % ell
    # disc = 4*eps*y^2, so disc/eps must be a nonzero square
    roots = ctx.sqrts(disc * pow(ctx.epsilon, -1, ell) % ell)
    if len(roots) != 2:
        raise ValueError(f"(T,N)={tn} is outside B'+: T^2-4N = {disc}")
    half = pow(2, -1, ell)
    x = tn.t * half % ell
    y = roots[0] * half % ell
    return orbit_of(x, y, ell)


def nonsplit_tn_to_tm(tn: NonsplitTN, ctx: PrimeContext) -> NonsplitTM:
    return NonsplitTM(tn.t, (tn.t * tn.t - 4 * tn.n) % ctx.ell)


def nonsplit_tm_to_tn(tm: NonsplitTM, ctx: PrimeContext) -> NonsplitTN:
    inv4 = pow(4, -1, ctx.ell)
    return NonsplitTN(tm.t, (tm.t * tm.t - tm.m) * inv4 % ctx.ell)


def pair_to_diff(pair: OrderedPair, ctx: PrimeContext) -> SplitDiff:
    if not pair.is_affine:
        raise ValueError(f"chart covers only affine pairs, got {pair}")
    a, b = pair.first.x, pair.second.x
    return SplitDiff((a + b) % ctx.ell, (a - b) % ctx.ell)


def diff_to_pair(d: SplitDiff, ctx: PrimeContext) -> OrderedPair:
    ell = ctx.ell
    if d.tp % ell == 0:
        raise ValueError("(t, t') requires t' != 0")
    half = pow(2, -1, ell)
    a = (d.t + d.tp) * half % ell
    b = (d.t - d.tp) * half % ell
    return OrderedPair(ProjectivePoint(False, a), ProjectivePoint(False, b))


def cartan_to_diff(z: CartanPoint, ctx: PrimeContext) -> NonsplitDiff:
    """z -> (z + zbar, T') where z - zbar = T'*se, i.e. (2x, 2y)."""
    ell = ctx.ell
    return NonsplitDiff(2 * z.x % ell, 2 * z.y % ell)


def diff_to_cartan(d: NonsplitDiff, ctx: PrimeContext) -> CartanPoint:
    ell = ctx.ell
    if d.tp % ell == 0:
        raise ValueError("(T, T') requires T' != 0")
    half = pow(2, -1, ell)
    return CartanPoint(d.t * half % ell, d.tp * half % ell)


# ---------------------------------------------------------------------------
# Canonical string forms for the CLI emitters
# ---------------------------------------------------------------------------

def parse_point(text: str, ell: int) -> ProjectivePoint:
    text = text.strip()
    if text == "inf":
        return INFINITY
    return ProjectivePoint(False, int(text) % ell)


def subgroup_order(kind: str, ell: int) -> int:
    """Cardinalities of the named stabilizer subgroups of GL2(F_ell)."""
    sizes = {
        "C": (ell - 1) ** 2,
        "C'": ell * ell - 1,
        "N": 2 * (ell - 1) ** 2,
        "N'": 2 * (ell * ell - 1),
        "B": ell * (ell - 1) ** 2,
    }
    return sizes[kind]


def gl2_order(ell: int) -> int:
    return (ell * ell - 1) * (ell * ell - ell)
