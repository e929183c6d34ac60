"""Subgroups of GL2(F_ell), double coset decompositions, and induced operators.

Subgroups are materialized as arrays of their elements' entries; coset
membership is keyed by the geometric object a coset stabilizes, so bucketing
never does O(|K|) comparisons for the named subgroup kinds, and every g of a
family of double cosets HgK is bucketed in one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .correspondence import OperatorMatrix
from .geometry import (
    GroupElement,
    IDENTITY,
    basis,
    cartan_index,
    decode,
    det_mod,
    gl2_order,
    mat_inv,
    mat_mul,
    move_cartan,
    move_p1,
    orbit_index,
    ordered_pair_index,
    stack,
    subgroup_order,
    transporters,
    unordered_pair_index,
)
from .modular_arith import PrimeContext

SPLIT_CARTAN = "C"
NONSPLIT_CARTAN = "C'"
NORMALIZER_SPLIT = "N"
NORMALIZER_NONSPLIT = "N'"
BOREL = "B"
CUSTOM = "custom"

NAMED_KINDS = (SPLIT_CARTAN, NONSPLIT_CARTAN, NORMALIZER_SPLIT,
               NORMALIZER_NONSPLIT, BOREL)


@dataclass(frozen=True, eq=False)
class SubgroupSpec:
    """A subgroup as one GroupElement of read-only int64 arrays, one entry per
    element; the tuple forms are derived from it on demand."""

    kind: str
    stacked: GroupElement

    def __post_init__(self) -> None:
        for a in self.stacked:
            a.flags.writeable = False

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(map(GroupElement._make, zip(*(a.tolist() for a in self.stacked))))

    @cached_property
    def element_set(self) -> frozenset[GroupElement]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.stacked.a)

    def __repr__(self) -> str:
        return f"SubgroupSpec(kind={self.kind!r}, order={len(self)})"


def _validate_group(elements: tuple[GroupElement, ...], ctx: PrimeContext) -> None:
    """Group-axiom check with a witness of the first failed axiom."""
    elems = set(elements)
    if len(elems) != len(elements):
        raise ValueError("element list contains duplicates")
    if IDENTITY not in elems:
        raise ValueError("not a group: identity matrix missing")
    for m in elements:
        if det_mod(m, ctx.ell) == 0:
            raise ValueError(f"not a subgroup of GL2: {m} is singular")
        if mat_inv(m, ctx.ell) not in elems:
            raise ValueError(f"not a group: inverse of {m} missing")
    for m in elements:
        for n in elements:
            if mat_mul(m, n, ctx.ell) not in elems:
                raise ValueError(f"not a group: product {m} * {n} escapes the set")


def _grid(*ranges) -> list[np.ndarray]:
    """Every tuple of the product of the ranges, in row-major order, as one
    flat int64 array per coordinate."""
    return [g.ravel() for g in np.meshgrid(*(np.arange(*r, dtype=np.int64)
                                              for r in ranges), indexing="ij")]


def enumerate_subgroup(kind: str, ctx: PrimeContext) -> SubgroupSpec:
    """One of the named subgroup kinds, enumerated row-major over the
    parameters of its elements: (a 0; 0 d) and (0 a; d 0) over units a, d;
    (x eps*y; y x) and (x -eps*y; y -x) over (x, y) != (0, 0); (a b; 0 d)
    over units a, d, then b."""
    ell, eps = ctx.ell, ctx.epsilon
    units = (1, ell)
    if kind in (SPLIT_CARTAN, NORMALIZER_SPLIT):
        a, d = _grid(units, units)
        zero = 0 * a
        parts = [(a, zero, zero, d)]
        if kind == NORMALIZER_SPLIT:
            parts.append((zero, a, d, zero))
    elif kind in (NONSPLIT_CARTAN, NORMALIZER_NONSPLIT):
        x, y = (u[1:] for u in _grid((ell,), (ell,)))  # (0, 0) comes first
        parts = [(x, eps * y % ell, y, x)]
        if kind == NORMALIZER_NONSPLIT:
            parts.append((x, -eps * y % ell, y, -x % ell))
    elif kind == BOREL:
        a, d, b = _grid(units, units, (ell,))
        parts = [(a, b, 0 * a, d)]
    else:
        raise ValueError(f"unknown subgroup kind {kind!r}")
    spec = SubgroupSpec(kind, GroupElement(*map(np.concatenate, zip(*parts))))
    if len(spec) != subgroup_order(kind, ell):
        raise AssertionError(f"|{kind}| = {len(spec)}, expected "
                             f"{subgroup_order(kind, ell)}")
    return spec


def custom_subgroup(elements, ctx: PrimeContext) -> SubgroupSpec:
    """A user-supplied subgroup; the group axioms are verified on construction."""
    elems = tuple(GroupElement(*(int(v) % ctx.ell for v in m)) for m in elements)
    _validate_group(elems, ctx)
    return SubgroupSpec(CUSTOM, stack(elems))


def full_group(ctx: PrimeContext) -> SubgroupSpec:
    """All of GL2(F_ell) as a custom subgroup (exhaustive-test sizes only)."""
    ell = ctx.ell
    m = GroupElement(*_grid((ell,), (ell,), (ell,), (ell,)))
    invertible = det_mod(m, ell) != 0
    spec = SubgroupSpec(CUSTOM, GroupElement(*(e[invertible] for e in m)))
    if len(spec) != gl2_order(ell):
        raise AssertionError("GL2 enumeration size mismatch")
    return spec


def coset_key(K: SubgroupSpec, m, ctx: PrimeContext):
    """A canonical key for the coset mK: the basis index of the geometric
    object it stabilizes.  m is one group element or a stack of them."""
    ell = ctx.ell
    kind = K.kind
    if kind == NORMALIZER_SPLIT:
        return unordered_pair_index(move_p1(m, 0, ell), move_p1(m, ell, ell), ell)
    if kind == SPLIT_CARTAN:
        return ordered_pair_index(move_p1(m, 0, ell), move_p1(m, ell, ell), ell)
    if kind == NORMALIZER_NONSPLIT:
        return orbit_index(*move_cartan(m, 0, 1, ctx), ell)
    if kind == NONSPLIT_CARTAN:
        return cartan_index(*move_cartan(m, 0, 1, ctx), ell)
    if kind == BOREL:
        return move_p1(m, ell, ell)
    # no geometric identification: the smallest coset member, as base-ell digits
    return reduce(np.minimum, (np.ravel_multi_index(mat_mul(m, k, ell), (ell,) * 4)
                               for k in K.elements))


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    H: SubgroupSpec
    K: SubgroupSpec
    g: GroupElement
    representatives: tuple[GroupElement, ...]  # alpha with HgK = disjoint U alpha g K
    degree: int


# Entry budget of the (|H|, chunk) and (|K|, chunk) arrays of one chunk of
# decompose_all: one chunk serves every slope of a prime up to 37, and at
# ell = 61 a single chunk would raise the peak RSS of verify by ~9 MB
_DECOMPOSE_ENTRIES = 1 << 16


def decompose_all(H: SubgroupSpec, gs, K: SubgroupSpec,
                  ctx: PrimeContext) -> list[DoubleCosetDecomposition]:
    """Decompose HgK into disjoint cosets alpha g K, for every g in gs.

    The keys coset_key(K, h*g) of all h and a chunk of the g's form one
    (|H|, chunk) array.  One sort of key*|H| + row per column puts the rows
    of each key together, the first of them in H order, so the degree is the
    number of distinct keys and the representatives are the first h of each
    key, in H order.  The degree is cross-checked against the index
    [H : H n gKg^-1], which does not use the keys.
    """
    ell = ctx.ell
    gs = list(gs)
    hs = H.stacked
    n = len(H)
    rows = np.arange(n, dtype=np.int64)[:, None]
    # |H n gKg^-1|, matching the elements by their base-ell digits; a set
    # intersection, as np.isin sorts here and its first call adds ~1.4 MB RSS
    digits = (ell,) * 4
    h_digits = set(np.ravel_multi_index(hs, digits).tolist())
    h_col = GroupElement(*(e[:, None] for e in hs))
    k_col = GroupElement(*(e[:, None] for e in K.stacked))
    per = max(1, _DECOMPOSE_ENTRIES // max(n, len(K)))
    out = []
    for lo in range(0, len(gs), per):
        chunk = gs[lo:lo + per]
        g = stack(chunk)
        keys = coset_key(K, mat_mul(h_col, g, ell), ctx)
        order = np.sort(keys * n + rows, axis=0)
        first = np.ones(order.shape, dtype=bool)
        first[1:] = np.diff(order // n, axis=0) != 0
        degrees = first.sum(axis=0).tolist()
        # column by column, the representatives' rows in H order
        rep_rows = np.sort((order % n + n * np.arange(len(chunk)))[first]) % n
        reps = list(map(GroupElement._make, zip(*(e[rep_rows].tolist() for e in hs))))
        conj = np.ravel_multi_index(
            mat_mul(mat_mul(g, k_col, ell), stack([mat_inv(x, ell) for x in chunk]), ell),
            digits)
        start = 0
        for c, (x, degree) in enumerate(zip(chunk, degrees)):
            stab = len(h_digits.intersection(conj[:, c].tolist()))
            if stab == 0 or n % stab != 0 or degree != n // stab:
                raise AssertionError(
                    f"degree mismatch: {degree} buckets vs index "
                    f"{n}/{stab} for {H.kind} g {K.kind}")
            out.append(DoubleCosetDecomposition(
                H, K, x, tuple(reps[start:start + degree]), degree))
            start += degree
    return out


def decompose(H: SubgroupSpec, g: GroupElement, K: SubgroupSpec,
              ctx: PrimeContext) -> DoubleCosetDecomposition:
    """Decompose HgK into disjoint cosets alpha g K (see decompose_all)."""
    return decompose_all(H, [g], K, ctx)[0]


# The basis G/K is identified with, by the kind of K: gK is g * (the base
# object, whose stabilizer is K), as coset_key encodes it
_DOMAIN_TAGS = {
    NORMALIZER_SPLIT: "unordered_pairs",
    SPLIT_CARTAN: "ordered_pairs",
    NORMALIZER_NONSPLIT: "H_ell",
    NONSPLIT_CARTAN: "C_ell",
}


def coset_incidence(dec: DoubleCosetDecomposition, ctx: PrimeContext) -> np.ndarray:
    """The induced map Z[G/H] -> Z[G/K] on the canonical bases as an index
    array: column j lists, in ascending order, the codomain object each
    representative sends the j-th domain object to, repeats included.  Only
    the four stabilizer identifications are supported."""
    ell = ctx.ell
    for side in (dec.H, dec.K):
        if side.kind not in _DOMAIN_TAGS:
            raise ValueError(f"no basis identification for subgroup kind "
                             f"{side.kind!r}")
    # x_j H is the j-th object of G/H: x_j carries its base object there
    tag = _DOMAIN_TAGS[dec.H.kind]
    x = transporters(tag, *decode(tag, ell), ell)
    moved = mat_mul(stack(dec.representatives), dec.g, ell)
    keys = coset_key(dec.K, mat_mul(x, GroupElement(*(e[:, None] for e in moved)),
                                    ell), ctx)
    return np.sort(keys, axis=0)


def coset_operator(dec: DoubleCosetDecomposition, ctx: PrimeContext) -> OperatorMatrix:
    """coset_incidence as a matrix, whose entries count the repeats."""
    keys = coset_incidence(dec, ctx)
    rows, cols = (basis(_DOMAIN_TAGS[side.kind], ctx) for side in (dec.K, dec.H))
    data = np.zeros((len(rows), len(cols)), dtype=np.int32)
    np.add.at(data, (keys, np.arange(len(cols))), 1)
    return OperatorMatrix(rows, cols, data)
