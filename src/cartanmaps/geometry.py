"""The finite sets P^1(F_ell), C_ell, H_ell and the GL2 action on them.

Each set is encoded by integer coordinates: a point of P^1 by its index (x,
or ell for infinity), a pair by the indices of its points, and x + y*se in
C_ell or H_ell by (x, y).  The enumeration orders fixed here (see decode)
define the row/column indexing of every operator matrix downstream:
lexicographic on the coordinates, with the point at infinity last.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .modular_arith import PrimeContext, inverse_table


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
    """The inverse of m, one element or a stack of them (see stack)."""
    det = det_mod(m, ell)
    # entry 0 of the inverse table is 0: a singular element must not pass
    if np.any(det == 0):
        raise ValueError(f"a singular element has no inverse mod {ell}")
    di = inverse_table(ell)[det]
    return GroupElement(m.d * di % ell, -m.b * di % ell, -m.c * di % ell, m.a * di % ell)


# ---------------------------------------------------------------------------
# Group actions.  `move_p1` and `move_cartan` state each action once, as
# elementwise arithmetic on the integer coordinates.  The entries of m (see
# `stack`) and the coordinates may be ints or broadcastable numpy arrays.  The
# encoders map coordinates to positions in the enumerations of decode; `act`
# composes the two, and is how every other module moves an element.
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
    would force c = d = 0, contradicting invertibility.  With every entry
    and coordinate a residue, array intermediates stay below ell^5, so below
    2^63 for ell < 6208, and are reduced only to index the inverse table.
    """
    ell, eps = ctx.ell, ctx.epsilon
    a, b, c, d = m
    dn = c * x + d  # below ell^2, like dy
    dy = c * y
    ni = ctx.inverse_table[(dn * dn - eps * dy * dy) % ell]
    nx = ((a * x + b) * dn - eps * a * y * dy) % ell * ni % ell
    ny = (a * d - b * c) * y % ell * ni % ell
    return nx, ny


def generators(ctx: PrimeContext) -> tuple[GroupElement, ...]:
    """(1 1; 0 1), (1 0; 1 1) and diag(g, 1), which generate GL2(F_ell).

    The two elementary matrices generate SL2 over a prime field, and the
    determinant of diag(g, 1) generates F_ell^x.
    """
    return (GroupElement(1, 1, 0, 1), GroupElement(1, 0, 1, 1),
            GroupElement(ctx.g, 0, 0, 1))


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
    basis order: the P^1 indices (i, j) of the pair for "unordered_pairs"
    (i < j) and "ordered_pairs" (i != j), (x, y) of x + y*se for "H_ell"
    (the class {x + y*se, x - y*se}, 1 <= y <= r) and "C_ell" (y != 0).
    Each is lexicographic, so these orders are part of the matrix export
    format.  The encoders above invert it.  Kept for the process, as
    read-only arrays."""
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
    """An x in GL2 with x * base_object(tag) = the element with coordinates
    (u, v) (see decode) of the basis with this tag, for ints or broadcastable
    arrays.

    For a pair (i, j), x is (j 1; 1 0) for i = inf, (1 i; 0 1) for j = inf,
    else (j i; 1 1); for x + y*se in H_ell or C_ell it is (y x; 0 1).
    """
    if tag in ("unordered_pairs", "ordered_pairs"):
        i_fin, j_fin = 1 * (u != ell), 1 * (v != ell)
        return GroupElement(np.where(j_fin, v, 1), np.where(i_fin, u, 1), j_fin, i_fin)
    return GroupElement(v, u, 0 * u, 0 * u + 1)


# The stabiliser in GL2(F_ell) of the base object of each G-set, by tag: the
# G-set is GL2/K, gK the image of the base object (see base_object) under g
STABILISERS = {"unordered_pairs": "N", "ordered_pairs": "C", "H_ell": "N'", "C_ell": "C'"}


def base_object(tag: str, ell: int) -> tuple[int, int]:
    """The coordinates (see decode) of the object of the G-set with this tag
    that its stabiliser fixes: {0, inf} or (0, inf) for the pairs, se in
    H_ell and C_ell."""
    return (0, ell) if tag in ("unordered_pairs", "ordered_pairs") else (0, 1)


def act(m: GroupElement, tag: str, u, v, ctx: PrimeContext):
    """The index of m * (the element with coordinates (u, v), see decode) in
    the basis with this tag: the one place an action meets an encoder."""
    ell = ctx.ell
    if tag == "unordered_pairs":
        return unordered_pair_index(move_p1(m, u, ell), move_p1(m, v, ell), ell)
    if tag == "ordered_pairs":
        return ordered_pair_index(move_p1(m, u, ell), move_p1(m, v, ell), ell)
    x, y = move_cartan(m, u, v, ctx)
    return orbit_index(x, y, ell) if tag == "H_ell" else cartan_index(x, y, ell)


def permutation(m: GroupElement, tag: str, ctx: PrimeContext) -> np.ndarray:
    """out[i] = the index of m * (element i) in the basis with this tag."""
    return act(m, tag, *decode(tag, ctx.ell), ctx)


def subgroup_order(kind: str, ell: int) -> int:
    """Cardinalities of the named stabilizer subgroups of GL2(F_ell)."""
    sizes = {
        "C": (ell - 1) ** 2,
        "C'": ell * ell - 1,
        "N": 2 * (ell - 1) ** 2,
        "N'": 2 * (ell * ell - 1),
    }
    return sizes[kind]


def gl2_order(ell: int) -> int:
    return (ell * ell - 1) * (ell * ell - ell)
