"""The paper's stabilizers in GL2(F_ell), double coset decompositions, and
induced operators.

Subgroups are materialized as arrays of their elements' entries, H of HgK
as its transversal of H/Z; coset membership is keyed by the geometric object
a coset stabilizes, so bucketing never compares elements of K.  A family of
double cosets HgK, one per g, is decomposed as one object, with every g
bucketed in one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Transversal(NamedTuple):
    """The first element in H order of each class hZ of H of this kind, Z the
    scalars, stacked (see geometry.stack): a transversal of H/Z."""
    kind: str
    stacked: GroupElement


def enumerate_subgroup(kind: str, ctx: PrimeContext) -> SubgroupSpec:
    """C' or N', enumerated row-major over the parameters of its elements:
    (x eps*y; y x) and (x -eps*y; y -x) over (x, y) != (0, 0).  C and N enter
    only as their transversals of H/Z (named_transversal)."""
    ell, eps = ctx.ell, ctx.epsilon
    if kind not in (NONSPLIT_CARTAN, NORMALIZER_NONSPLIT):
        raise ValueError(f"no enumeration of subgroup kind {kind!r}")
    # every (x, y) but (0, 0), row-major
    x, y = np.divmod(np.arange(1, ell * ell, dtype=np.int64), ell)
    parts = [(x, eps * y % ell, y, x)]
    if kind == NORMALIZER_NONSPLIT:
        parts.append((x, -eps * y % ell, y, -x % ell))
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
    """HgK = disjoint U alpha g K for every g of a family, H as its T of H/Z.
    g is stacked, one entry per g; representatives stacks the alpha of every
    g, in g order and in H order within each g, degrees[i] of them for the
    i-th g.  scalars_in_K: whether K's elements hold the scalars."""

    H: Transversal
    K: SubgroupSpec
    g: GroupElement
    representatives: GroupElement
    degrees: np.ndarray
    scalars_in_K: bool


# Entry budget of the (|T|, chunk) arrays of one chunk of decompose_all: one
# chunk serves every slope of a prime up to 257
_DECOMPOSE_ENTRIES = 1 << 16


def _digits(m, ell: int) -> np.ndarray:
    """Each element of the stack m as the base-ell digits of its entries."""
    return np.ravel_multi_index(tuple(m), (ell,) * 4)


def _member(sorted_digits: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Whether each of digits occurs in sorted_digits (ascending)."""
    at = np.minimum(np.searchsorted(sorted_digits, digits), len(sorted_digits) - 1)
    return sorted_digits[at] == digits


def named_transversal(kind: str, ctx: PrimeContext) -> Transversal:
    """T of C or N without enumerating either: the first element in H order
    of each class hZ, diag(1, d), and for N then (0 1; d 0), d = 1..ell-1."""
    if kind not in (SPLIT_CARTAN, NORMALIZER_SPLIT):
        raise ValueError(f"no closed-form transversal for subgroup kind {kind!r}")
    d = np.arange(1, ctx.ell, dtype=np.int64)
    one, zero = d ** 0, 0 * d
    parts = [(one, zero, zero, d)] + [(zero, one, d, zero)] * (kind == NORMALIZER_SPLIT)
    return Transversal(kind, GroupElement(*map(np.concatenate, zip(*parts))))


def decompose_all(H: Transversal, gs: GroupElement, K: SubgroupSpec,
                  ctx: PrimeContext) -> DoubleCosetDecomposition:
    """Decompose HgK into disjoint cosets alpha g K, for every g of the stack
    gs, as one family.

    The scalars Z are central and fix every point of G/K, so the H-orbit of
    gK is that of the transversal T of H/Z, which H is given as.  The keys
    coset_key(K, t*g) of all t and a chunk of the g's form one (|T|, chunk)
    array.  One sort of key*|T| + row per column puts the rows of each key
    together, the first in H order, so the degree is the number of distinct
    keys and the representatives are the first t of each key: the first h,
    as t comes first in its class.  Where K's elements hold the scalars, t
    lies in gKg^-1 iff tZ does, and the degree is cross-checked against the
    index, which does not use the keys:
    degree * #{t : g^-1 (t g) in K} = |T|.
    """
    ell = ctx.ell
    # g^-1 (t g) is matched with K by its base-ell digits
    k_digits = np.sort(_digits(K.stacked, ell))
    units = np.arange(1, ell, dtype=np.int64)
    scalars_in_K = bool(_member(k_digits, _digits((units, 0 * units, 0 * units, units),
                                                  ell)).all())
    ts = H.stacked
    n = len(ts.a)
    t_col = GroupElement(*(e[:, None] for e in ts))
    t_rows = np.arange(n, dtype=np.int64)[:, None]
    per = max(1, _DECOMPOSE_ENTRIES // n)
    rep_rows, degrees = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(gs.a), per):
        g = GroupElement(*(e[lo:lo + per] for e in gs))
        tg = mat_mul(t_col, g, ell)
        keys = coset_key(K, tg, ctx)
        order = np.sort(keys * n + t_rows, axis=0)
        first = np.ones(order.shape, dtype=bool)
        first[1:] = np.diff(order // n, axis=0) != 0
        degree = first.sum(axis=0)
        # column by column, the representatives' rows in T order
        rep_rows.append(np.sort((order % n + n * np.arange(len(g.a)))[first]) % n)
        degrees.append(degree)
        if not scalars_in_K:
            continue
        # the t are distinct, so their conjugates are too
        stab = _member(k_digits, _digits(mat_mul(mat_inv(g, ell), tg, ell), ell)).sum(axis=0)
        bad = degree * stab != n
        if bad.any():
            c = bad.argmax()
            raise AssertionError(
                f"degree mismatch: {degree[c]} buckets vs index "
                f"{n}/{stab[c]} for {H.kind} g {K.kind}")
    return DoubleCosetDecomposition(
        H, K, gs, GroupElement(*(e[np.concatenate(rep_rows)] for e in ts)),
        np.concatenate(degrees), scalars_in_K)


def decompose(H: Transversal, g: GroupElement, K: SubgroupSpec,
              ctx: PrimeContext) -> DoubleCosetDecomposition:
    """Decompose HgK into disjoint cosets alpha g K: the one-g family of
    decompose_all."""
    return decompose_all(H, stack([g]), K, ctx)


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
