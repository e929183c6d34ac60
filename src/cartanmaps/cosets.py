"""Subgroups of GL2(F_ell), double coset decompositions, and induced operators.

Subgroups are materialized as explicit element lists; coset membership is
keyed by the geometric object a coset stabilizes, so bucketing never does
O(|K|) comparisons for the named subgroup kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .correspondence import OperatorMatrix, transporter
from .geometry import (
    GroupElement,
    IDENTITY,
    basis_C,
    basis_H,
    basis_ordered_pairs,
    basis_unordered_pairs,
    cartan_index,
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


@dataclass(frozen=True)
class SubgroupSpec:
    kind: str
    elements: tuple[GroupElement, ...]

    @cached_property
    def element_set(self) -> frozenset[GroupElement]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"SubgroupSpec(kind={self.kind!r}, order={len(self.elements)})"


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


def enumerate_subgroup(kind: str, ctx: PrimeContext) -> SubgroupSpec:
    """Explicit element list for one of the named subgroup kinds."""
    ell, eps = ctx.ell, ctx.epsilon
    units = range(1, ell)
    if kind == SPLIT_CARTAN:
        elems = [GroupElement(a, 0, 0, d) for a in units for d in units]
    elif kind == NORMALIZER_SPLIT:
        elems = [GroupElement(a, 0, 0, d) for a in units for d in units]
        elems += [GroupElement(0, a, d, 0) for a in units for d in units]
    elif kind == NONSPLIT_CARTAN:
        elems = [GroupElement(x, eps * y % ell, y, x)
                 for x in range(ell) for y in range(ell) if (x, y) != (0, 0)]
    elif kind == NORMALIZER_NONSPLIT:
        elems = [GroupElement(x, eps * y % ell, y, x)
                 for x in range(ell) for y in range(ell) if (x, y) != (0, 0)]
        elems += [GroupElement(x, -eps * y % ell, y, -x % ell)
                  for x in range(ell) for y in range(ell) if (x, y) != (0, 0)]
    elif kind == BOREL:
        elems = [GroupElement(a, b, 0, d)
                 for a in units for d in units for b in range(ell)]
    else:
        raise ValueError(f"unknown subgroup kind {kind!r}")
    spec = SubgroupSpec(kind, tuple(elems))
    if len(spec) != subgroup_order(kind, ell):
        raise AssertionError(f"|{kind}| = {len(spec)}, expected "
                             f"{subgroup_order(kind, ell)}")
    return spec


def custom_subgroup(elements, ctx: PrimeContext) -> SubgroupSpec:
    """A user-supplied subgroup; the group axioms are verified on construction."""
    elems = tuple(GroupElement(*(int(v) % ctx.ell for v in m)) for m in elements)
    _validate_group(elems, ctx)
    return SubgroupSpec(CUSTOM, elems)


def full_group(ctx: PrimeContext) -> SubgroupSpec:
    """All of GL2(F_ell) as a custom subgroup (exhaustive-test sizes only)."""
    ell = ctx.ell
    elems = tuple(
        GroupElement(a, b, c, d)
        for a in range(ell) for b in range(ell)
        for c in range(ell) for d in range(ell)
        if (a * d - b * c) % ell != 0
    )
    if len(elems) != gl2_order(ell):
        raise AssertionError("GL2 enumeration size mismatch")
    return SubgroupSpec(CUSTOM, elems)


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


def decompose(H: SubgroupSpec, g: GroupElement, K: SubgroupSpec,
              ctx: PrimeContext) -> DoubleCosetDecomposition:
    """Decompose HgK into disjoint cosets alpha g K.

    Representatives come from bucketing h*g by right-K-coset; the bucket count
    is cross-checked against the index [H : H n gKg^-1].
    """
    ell = ctx.ell
    buckets: dict = {}
    hs = stack(H.elements)
    keys = coset_key(K, mat_mul(hs, g, ell), ctx)
    for h, key in zip(H.elements, keys.tolist()):
        buckets.setdefault(key, h)
    degree = len(buckets)
    conj = mat_mul(mat_mul(g, stack(K.elements), ell), mat_inv(g, ell), ell)
    # |H n gKg^-1|, matching the elements by their base-ell digits; a set
    # intersection, as np.isin sorts here and its first call adds ~1.4 MB RSS
    digits = (ell,) * 4
    stab = len(set(np.ravel_multi_index(hs, digits).tolist())
               .intersection(np.ravel_multi_index(conj, digits).tolist()))
    if len(H.elements) % stab != 0 or degree != len(H.elements) // stab:
        raise AssertionError(
            f"degree mismatch: {degree} buckets vs index "
            f"{len(H.elements)}/{stab} for {H.kind} g {K.kind}")
    return DoubleCosetDecomposition(H, K, g, tuple(buckets.values()), degree)


_DOMAIN_BASES = {
    NORMALIZER_SPLIT: basis_unordered_pairs,
    SPLIT_CARTAN: basis_ordered_pairs,
    NORMALIZER_NONSPLIT: basis_H,
    NONSPLIT_CARTAN: basis_C,
}


def _object_transporter(kind: str, obj, ell: int) -> GroupElement:
    """Some x in G whose coset xK corresponds to the given basis object."""
    if kind == NORMALIZER_SPLIT:
        return transporter(obj.lo, obj.hi, ell)
    if kind == SPLIT_CARTAN:
        return transporter(obj.first, obj.second, ell)
    # both Cartan-side objects (x, y) are reached from se by (y x; 0 1)
    return GroupElement(obj.y, obj.x, 0, 1)


def coset_operator(dec: DoubleCosetDecomposition, ctx: PrimeContext) -> OperatorMatrix:
    """Matrix of the induced map Z[G/H] -> Z[G/K] on the canonical bases.

    Entry multiplicities count representatives landing on each codomain
    object; only the four stabilizer identifications are supported.
    """
    ell = ctx.ell
    for side in (dec.H, dec.K):
        if side.kind not in _DOMAIN_BASES:
            raise ValueError(f"no basis identification for subgroup kind "
                             f"{side.kind!r}")
    col_basis = _DOMAIN_BASES[dec.H.kind](ctx)
    row_basis = _DOMAIN_BASES[dec.K.kind](ctx)
    x = stack([_object_transporter(dec.H.kind, obj, ell) for obj in col_basis])
    moved = stack([mat_mul(alpha, dec.g, ell) for alpha in dec.representatives])
    # (representatives, columns): the row each representative sends a column to
    keys = coset_key(dec.K, mat_mul(x, GroupElement(*(e[:, None] for e in moved)),
                                    ell), ctx)
    data = np.zeros((len(row_basis), len(col_basis)), dtype=np.int32)
    np.add.at(data, (keys, np.arange(len(col_basis))), 1)
    return OperatorMatrix(row_basis, col_basis, data)
