"""The paper's stabilizers in GL2(F_ell), double coset decompositions, and
induced operators.

Subgroups are materialized as arrays of their elements' entries; coset
membership is keyed by the geometric object a coset stabilizes, so bucketing
never compares elements of K.  A family of double cosets HgK, one per g, is
decomposed as one object, with every g bucketed in one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import OperatorMatrix
from .geometry import (
    STABILISERS,
    GroupElement,
    act,
    base_object,
    decode,
    mat_inv,
    mat_mul,
    stack,
    subgroup_order,
    transporters,
)
from .modular_arith import PrimeContext

SPLIT_CARTAN = "C"
NONSPLIT_CARTAN = "C'"
NORMALIZER_SPLIT = "N"
NORMALIZER_NONSPLIT = "N'"

NAMED_KINDS = (SPLIT_CARTAN, NONSPLIT_CARTAN, NORMALIZER_SPLIT, NORMALIZER_NONSPLIT)


@dataclass(frozen=True, eq=False)
class SubgroupSpec:
    """A subgroup as one GroupElement of read-only int64 arrays, one entry per
    element."""

    kind: str
    stacked: GroupElement

    def __post_init__(self) -> None:
        for a in self.stacked:
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.stacked.a)

    def __repr__(self) -> str:
        return f"SubgroupSpec(kind={self.kind!r}, order={len(self)})"


def _grid(*ranges) -> list[np.ndarray]:
    """Every tuple of the product of the ranges, in row-major order, as one
    flat int64 array per coordinate."""
    return [g.ravel() for g in np.meshgrid(*(np.arange(*r, dtype=np.int64)
                                              for r in ranges), indexing="ij")]


def enumerate_subgroup(kind: str, ctx: PrimeContext) -> SubgroupSpec:
    """One of the named subgroup kinds, enumerated row-major over the
    parameters of its elements: (a 0; 0 d) and (0 a; d 0) over units a, d;
    (x eps*y; y x) and (x -eps*y; y -x) over (x, y) != (0, 0)."""
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
    else:
        raise ValueError(f"unknown subgroup kind {kind!r}")
    spec = SubgroupSpec(kind, GroupElement(*map(np.concatenate, zip(*parts))))
    if len(spec) != subgroup_order(kind, ell):
        raise AssertionError(f"|{kind}| = {len(spec)}, expected "
                             f"{subgroup_order(kind, ell)}")
    return spec


def _g_set(kind: str) -> str:
    """The tag of the basis G/K is identified with, K of this kind: gK is
    g * (the base object K stabilises), inverting geometry.STABILISERS."""
    tags = {k: tag for tag, k in STABILISERS.items()}
    if kind not in tags:
        raise ValueError(f"no basis identification for subgroup kind {kind!r}")
    return tags[kind]


def coset_key(K: SubgroupSpec, m, ctx: PrimeContext):
    """A canonical key for the coset mK: the basis index of the object it
    stabilizes, m * (K's base object).  m is one group element or a stack of
    them."""
    tag = _g_set(K.kind)
    return act(m, tag, *base_object(tag, ctx.ell), ctx)


@dataclass(frozen=True, eq=False)
class DoubleCosetDecomposition:
    """HgK = disjoint U alpha g K for every g of a family.  g is stacked, one
    entry per g; representatives stacks the alpha of every g, in g order and
    in H order within each g, degrees[i] of them for the i-th g."""

    H: SubgroupSpec
    K: SubgroupSpec
    g: GroupElement
    representatives: GroupElement
    degrees: np.ndarray


# Entry budget of the (|H|, chunk) arrays of one chunk of decompose_all: one
# chunk serves every slope of a prime up to 41, and at ell = 61 a single
# chunk would raise the peak RSS of verify by ~9 MB
_DECOMPOSE_ENTRIES = 1 << 16


def decompose_all(H: SubgroupSpec, gs, K: SubgroupSpec,
                  ctx: PrimeContext) -> DoubleCosetDecomposition:
    """Decompose HgK into disjoint cosets alpha g K, for every g in gs, as
    one family.

    The keys coset_key(K, h*g) of all h and a chunk of the g's form one
    (|H|, chunk) array.  One sort of key*|H| + row per column puts the rows
    of each key together, the first of them in H order, so the degree is the
    number of distinct keys and the representatives are the first h of each
    key, in H order.  The degree is cross-checked against the index
    [H : H n gKg^-1], which does not use the keys: |H n gKg^-1| is the
    number of h with g^-1 (h g) in K.
    """
    ell = ctx.ell
    gs = list(gs)
    hs = H.stacked
    n = len(H)
    rows = np.arange(n, dtype=np.int64)[:, None]
    # g^-1 (h g) is matched with K by its base-ell digits; a set
    # intersection, as np.isin sorts here and its first call adds ~1.4 MB RSS
    digits = (ell,) * 4
    k_digits = set(np.ravel_multi_index(K.stacked, digits).tolist())
    h_col = GroupElement(*(e[:, None] for e in hs))
    per = max(1, _DECOMPOSE_ENTRIES // n)
    rep_rows, degrees = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(gs), per):
        chunk = gs[lo:lo + per]
        g = stack(chunk)
        hg = mat_mul(h_col, g, ell)
        keys = coset_key(K, hg, ctx)
        order = np.sort(keys * n + rows, axis=0)
        first = np.ones(order.shape, dtype=bool)
        first[1:] = np.diff(order // n, axis=0) != 0
        degree = first.sum(axis=0)
        # column by column, the representatives' rows in H order
        rep_rows.append(np.sort((order % n + n * np.arange(len(chunk)))[first]) % n)
        degrees.append(degree)
        conj = np.ravel_multi_index(mat_mul(mat_inv(g, ell), hg, ell), digits)
        # the h are distinct, so their conjugates are too
        stab = np.array([len(k_digits.intersection(c)) for c in conj.T.tolist()])
        bad = degree * stab != n
        if bad.any():
            c = bad.argmax()
            raise AssertionError(
                f"degree mismatch: {degree[c]} buckets vs index "
                f"{n}/{stab[c]} for {H.kind} g {K.kind}")
    return DoubleCosetDecomposition(
        H, K, stack(gs), GroupElement(*(e[np.concatenate(rep_rows)] for e in hs)),
        np.concatenate(degrees))


def decompose(H: SubgroupSpec, g: GroupElement, K: SubgroupSpec,
              ctx: PrimeContext) -> DoubleCosetDecomposition:
    """Decompose HgK into disjoint cosets alpha g K: the one-g family of
    decompose_all."""
    return decompose_all(H, [g], K, ctx)


def coset_incidence(dec: DoubleCosetDecomposition,
                    ctx: PrimeContext) -> list[np.ndarray]:
    """The induced maps Z[G/H] -> Z[G/K] of every g of the family, in g
    order, on the canonical bases as index arrays: column j lists, in
    ascending order, the codomain object each representative of that g sends
    the j-th domain object to, repeats included.  Every g's keys come from
    one broadcast of sum(degrees) x |G/H| entries.  Only the four stabilizer
    identifications are supported."""
    ell = ctx.ell
    # x_j H is the j-th object of G/H: x_j carries its base object there
    tag = _g_set(dec.H.kind)
    x = transporters(tag, *decode(tag, ell), ell)
    # each alpha times its own g
    moved = mat_mul(dec.representatives,
                    GroupElement(*(np.repeat(e, dec.degrees) for e in dec.g)), ell)
    keys = coset_key(dec.K, mat_mul(x, GroupElement(*(e[:, None] for e in moved)),
                                    ell), ctx)
    return [np.sort(k, axis=0) for k in np.split(keys, np.cumsum(dec.degrees)[:-1])]


def coset_operator(dec: DoubleCosetDecomposition, ctx: PrimeContext) -> OperatorMatrix:
    """coset_incidence of a one-g family as a matrix, whose entries count the
    repeats."""
    if len(dec.degrees) != 1:
        raise ValueError(f"coset_operator takes a one-g family, not {len(dec.degrees)}")
    keys, = coset_incidence(dec, ctx)
    row_tag, col_tag = _g_set(dec.K.kind), _g_set(dec.H.kind)
    data = np.zeros((len(decode(row_tag, ctx.ell)[0]), keys.shape[1]), dtype=np.int32)
    np.add.at(data, (keys, np.arange(keys.shape[1])), 1)
    return OperatorMatrix(row_tag, col_tag, data)
