"""Geodesics, paths, and the intertwining operators as exact integer matrices.

The half-plane map sends an unordered pair to the formal sum of its geodesic's
points; the punctured-plane map is the coefficient combination over all slopes
of the per-slope path operators. Matrices are indexed by the canonical
enumerations fixed in `geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .geometry import (
    Basis,
    CartanOrbit,
    CartanPoint,
    GroupElement,
    OrderedPair,
    ProjectivePoint,
    UnorderedPair,
    basis_C,
    basis_H,
    basis_ordered_pairs,
    basis_unordered_pairs,
    cartan_act,
    cartan_index,
    generators,
    move_cartan,
    orbit_act,
    orbit_index,
    permutation,
    stack,
)
from .exact_linalg import rank_mod_p_stack
from .modular_arith import PrimeContext, find_primitive_root


def transporter(a: ProjectivePoint, b: ProjectivePoint, ell: int) -> GroupElement:
    """A matrix g with g(0) = a and g(infinity) = b."""
    if a == b:
        raise ValueError("transporter endpoints must be distinct")
    if a.at_infinity:
        return GroupElement(b.x, 1, 1, 0)
    if b.at_infinity:
        return GroupElement(1, a.x, 0, 1)
    return GroupElement(b.x, a.x, 1, 1)


@dataclass(frozen=True)
class Geodesic:
    """The translate of F_ell^x * se joining the endpoints, as a set in H_ell."""

    endpoints: UnorderedPair
    points: frozenset[CartanOrbit]


@dataclass(frozen=True)
class PathSpec:
    """The translate of the slope-s line {lam*s + lam*se}, as a set in C_ell."""

    endpoints: OrderedPair
    slope: int
    points: frozenset[CartanPoint]


def geodesic_points(pair: UnorderedPair, ctx: PrimeContext) -> Geodesic:
    g = transporter(pair.lo, pair.hi, ctx.ell)
    pts = frozenset(
        orbit_act(g, CartanOrbit(0, lam), ctx) for lam in range(1, ctx.r + 1)
    )
    # lam and its negative land on conjugate points, so (ell-1)/2 orbits remain
    if len(pts) != ctx.r:
        raise AssertionError(f"geodesic through {pair} has {len(pts)} points, "
                             f"expected {ctx.r}")
    return Geodesic(pair, pts)


def path_points(pair: OrderedPair, s: int, ctx: PrimeContext) -> PathSpec:
    s %= ctx.ell
    if s == 0:
        raise ValueError("path slope must be nonzero")
    g = transporter(pair.first, pair.second, ctx.ell)
    pts = frozenset(
        cartan_act(g, CartanPoint(lam * s % ctx.ell, lam), ctx)
        for lam in range(1, ctx.ell)
    )
    if len(pts) != ctx.ell - 1:
        raise AssertionError(f"path through {pair} at slope {s} has {len(pts)} "
                             f"points, expected {ctx.ell - 1}")
    return PathSpec(pair, s, pts)


@dataclass(frozen=True)
class CoefficientScheme:
    """Per-slope integer weights: the combined operator is sum_s (alpha_s + beta_s) H_s."""

    alpha: tuple[int, ...]  # alpha[s-1] for s = 1..ell-1
    beta: tuple[int, ...]

    @classmethod
    def standard(cls, ctx: PrimeContext) -> "CoefficientScheme":
        """alpha_s = 1 and beta_s the canonical representative of s^-1."""
        ell = ctx.ell
        return cls(
            alpha=(1,) * (ell - 1),
            beta=tuple(pow(s, -1, ell) for s in range(1, ell)),
        )

    def validate(self, ctx: PrimeContext) -> None:
        ell = ctx.ell
        if len(self.alpha) != ell - 1 or len(self.beta) != ell - 1:
            raise ValueError("scheme must supply weights for every s in 1..ell-1")
        for name, vals in (("alpha", self.alpha), ("beta", self.beta)):
            for s, v in enumerate(vals, start=1):
                if not 0 <= v <= ell - 1:
                    raise ValueError(f"{name}_{s} = {v} outside [0, {ell - 1}]")

    def is_standard(self, ctx: PrimeContext) -> bool:
        ell = ctx.ell
        return all(a % ell == 1 for a in self.alpha) and all(
            b % ell == pow(s, -1, ell) for s, b in enumerate(self.beta, start=1)
        )

    def combined(self, s: int) -> int:
        return self.alpha[s - 1] + self.beta[s - 1]


class OperatorMatrix:
    """Exact integer matrix between free modules on the tagged bases."""

    __slots__ = ("row_basis", "col_basis", "data")

    def __init__(self, row_basis: Basis, col_basis: Basis, data: np.ndarray):
        if data.shape != (len(row_basis), len(col_basis)):
            raise ValueError(f"data shape {data.shape} does not match bases "
                             f"({len(row_basis)}, {len(col_basis)})")
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.data = data

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def column_sums(self) -> np.ndarray:
        return self.data.sum(axis=0)

    def row_sums(self) -> np.ndarray:
        return self.data.sum(axis=1)

    def to_triplets(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero entries as (row, col, value), row-major."""
        rows, cols = np.nonzero(self.data)
        for r, c in zip(rows.tolist(), cols.tolist()):
            yield r, c, int(self.data[r, c])

    def write_csv(self, fh, ctx: PrimeContext) -> None:
        fh.write(f"# basis_rows={self.row_basis.tag} basis_cols={self.col_basis.tag} "
                 f"ell={ctx.ell} epsilon={ctx.epsilon}\n")
        for r, c, v in self.to_triplets():
            fh.write(f"{r},{c},{v}\n")

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorMatrix)
                and self.row_basis.tag == other.row_basis.tag
                and self.col_basis.tag == other.col_basis.tag
                and np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return (f"OperatorMatrix({self.row_basis.tag} x {self.col_basis.tag}, "
                f"shape={self.shape})")


# ---------------------------------------------------------------------------
# Assembly: one broadcast action of the stacked column transporters on the
# base geodesic or path.  Index arrays are (points, columns), so temporaries
# stay at about ell times the column count.
# ---------------------------------------------------------------------------

def _require_distinct(idx: np.ndarray, cols: Basis, what: str) -> None:
    """Every column of idx must list distinct row indices."""
    ok = (np.diff(np.sort(idx, axis=0), axis=0) > 0).all(axis=0)
    if not ok.all():
        raise AssertionError(f"{what} through {cols.elements[np.argmin(ok)]} "
                             f"is not {len(idx)} distinct points")


def _path_rows(ctx: PrimeContext, g: GroupElement, cols: Basis, s: int) -> np.ndarray:
    """C_ell indices of the slope-s paths, one column per transporter in g."""
    ell = ctx.ell
    lam = np.arange(1, ell, dtype=np.int64)[:, None]
    idx = cartan_index(*move_cartan(g, lam * s % ell, lam, ctx), ell)
    _require_distinct(idx, cols, f"path at slope {s}")
    return idx


def build_psi_plus(ctx: PrimeContext) -> OperatorMatrix:
    """0/1 incidence matrix of geodesic membership: rows H_ell, cols unordered pairs."""
    ell = ctx.ell
    rows = basis_H(ctx)
    cols = basis_unordered_pairs(ctx)
    g = stack([transporter(pair.lo, pair.hi, ell) for pair in cols])
    lam = np.arange(1, ctx.r + 1, dtype=np.int64)[:, None]
    idx = orbit_index(*move_cartan(g, 0, lam, ctx), ell)
    # lam and its negative land on conjugate points, so lam <= r suffices
    _require_distinct(idx, cols, "geodesic")
    data = np.zeros((len(rows), len(cols)), dtype=np.int32)
    data[idx, np.arange(len(cols))] = 1
    return OperatorMatrix(rows, cols, data)


@lru_cache(maxsize=4)
def _path_frame(ell: int) -> tuple[Basis, Basis, GroupElement]:
    """(C_ell basis, ordered-pairs basis, stacked column transporters): all
    that the path operators of one ell share, whatever the slope, epsilon
    or primitive root.  The transporter arrays are read-only."""
    ctx = PrimeContext(ell)
    cols = basis_ordered_pairs(ctx)
    g = stack([transporter(pair.first, pair.second, ell) for pair in cols])
    for entry in g:
        entry.flags.writeable = False
    return basis_C(ctx), cols, g


def build_H_s(ctx: PrimeContext, s: int) -> OperatorMatrix:
    """0/1 incidence matrix of slope-s path membership: rows C_ell, cols ordered pairs."""
    s %= ctx.ell
    if s == 0:
        raise ValueError("path slope must be nonzero")
    rows, cols, g = _path_frame(ctx.ell)
    data = np.zeros((len(rows), len(cols)), dtype=np.int32)
    data[_path_rows(ctx, g, cols, s), np.arange(len(cols))] = 1
    return OperatorMatrix(rows, cols, data)


def build_psi(ctx: PrimeContext, scheme: CoefficientScheme | None = None) -> OperatorMatrix:
    """The combined operator sum_s (alpha_s + beta_s) H_s as one integer matrix."""
    ell = ctx.ell
    scheme = scheme or CoefficientScheme.standard(ctx)
    scheme.validate(ctx)
    rows, cols, g = _path_frame(ell)
    data = np.zeros((len(rows), len(cols)), dtype=np.int32)
    for s in range(1, ell):
        # within one slope every (row, column) occurs once, so += is exact
        data[_path_rows(ctx, g, cols, s), np.arange(len(cols))] += scheme.combined(s)
    return OperatorMatrix(rows, cols, data)


def restrict_to_affine(m: OperatorMatrix, side: str) -> OperatorMatrix:
    """Drop columns whose basis pair involves infinity; yields a square matrix."""
    expected = {"N": "unordered_pairs", "C": "ordered_pairs"}.get(side)
    if expected is None:
        raise ValueError(f"side must be 'N' or 'C', got {side!r}")
    if m.col_basis.tag != expected:
        raise ValueError(f"restriction on side {side} needs column basis {expected}, "
                         f"got {m.col_basis.tag}")
    keep = [i for i, pair in enumerate(m.col_basis) if pair.is_affine]
    cols = Basis(expected + "_affine", (m.col_basis.elements[i] for i in keep))
    return OperatorMatrix(m.row_basis, cols, m.data[:, keep])


# ---------------------------------------------------------------------------
# Equivariance, proved on the assembled matrices: M intertwines the actions
# on its row and column bases iff M[P_row(h)][:, P_col(h)] == M for every h
# in a generating set of GL2(F_ell).  The comparison runs over blocks of
# rows, so its temporaries stay near _CHECK_ENTRIES entries and in cache;
# permuting a whole ell = 61 matrix at once was 5-7 times slower.
# ---------------------------------------------------------------------------

_CHECK_ENTRIES = 1 << 17


def _fixed_by(m: OperatorMatrix, perms) -> bool:
    """True iff m[p_row][:, p_col] == m for every (p_row, p_col) in perms."""
    M = m.data
    step = max(1, _CHECK_ENTRIES // max(1, M.shape[1]))
    return all(np.array_equal(M[p_row[i:i + step]][:, p_col], M[i:i + step])
               for p_row, p_col in perms for i in range(0, len(M), step))


def _fixed_by_generators(m: OperatorMatrix, ctx: PrimeContext) -> bool:
    return _fixed_by(m, ((permutation(h, m.row_basis.tag, ctx),
                          permutation(h, m.col_basis.tag, ctx))
                         for h in generators(ctx)))


def check_equivariance_psi_plus(psi_plus: OperatorMatrix, ctx: PrimeContext) -> bool:
    return _fixed_by_generators(psi_plus, ctx)


def check_equivariance_psi(psi: OperatorMatrix, ctx: PrimeContext) -> bool:
    """Also applies to each H_s, which has the bases of psi."""
    return _fixed_by_generators(psi, ctx)


# ---------------------------------------------------------------------------
# Rank by torus characters.  An operator fixed by h = diag(g, 1) commutes with
# the split torus T = <h> of order n = ell - 1.  Over an F_p holding an
# element w of order n (so p does not divide n), the permutation modules
# split into the eigenspaces of h, and the rank is the sum of the ranks on
# the eigenspaces.  The w^a-eigenspace of the columns is spanned by
# v_j = sum_k w^(-ak) e_(h^k c_j) over the orbit representatives c_j, and an
# eigenvector on the rows is determined by its entries at the representatives
# r_i; so the block of eigenvalue w^a is
#     B_a[i, j] = (M v_j)[r_i] = sum_k w^(ak) M[h^k r_i, c_j].
# An orbit with a nontrivial stabilizer contributes a zero row or column to
# the blocks whose character is nontrivial on that stabilizer, so it needs
# no special case.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _torus_orbits(ctx: PrimeContext, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """(h, O) for h = diag(g, 1) on the basis with this tag: h as a
    permutation, and O[k, i] = h^k applied to the i-th orbit minimum, for
    k < ell - 1.  Both depend only on ctx and the tag, so every operator on
    that basis shares them; they are returned read-only."""
    h = permutation(GroupElement(ctx.g, 0, 0, 1), tag, ctx)
    O = np.empty((ctx.ell - 1, len(h)), dtype=np.int64)
    O[0] = np.arange(len(h))
    for k in range(1, len(O)):
        O[k] = h[O[k - 1]]
    O = O[:, O.min(axis=0) == O[0]]
    h.flags.writeable = O.flags.writeable = False
    return h, O


def torus_rank_mod_p(m: OperatorMatrix, p: int, ctx: PrimeContext) -> int:
    """Rank mod p of an operator fixed by diag(g, 1), from its ell - 1
    torus-character blocks of (row orbits) x (column orbits) each.

    Needs ell - 1 to divide p - 1 and m to be fixed by diag(g, 1); raises
    ValueError otherwise.
    """
    n = ctx.ell - 1
    if (p - 1) % n:
        raise ValueError(f"F_{p} has no element of order {n}: "
                         f"{p} - 1 is not divisible by {n}")
    row1, P = _torus_orbits(ctx, m.row_basis.tag)
    col1, C = _torus_orbits(ctx, m.col_basis.tag)
    if not _fixed_by(m, [(row1, col1)]):
        raise ValueError(f"{m!r} is not fixed by diag({ctx.g}, 1)")
    omega = ctx.g if p == ctx.ell else pow(find_primitive_root(p), (p - 1) // n, p)
    G = m.data[P[:, :, None], C[0]].astype(np.int64) % p
    powers = np.array([pow(omega, t, p) for t in range(n)], dtype=np.int64)
    k = np.arange(n)
    W = powers[np.outer(k, k) % n]
    # B = W @ G mod p, summed in slices short enough to stay exact in int64
    step = max(1, ((1 << 63) - p) // (p - 1) ** 2)
    B = np.zeros((n, G[0].size), dtype=np.int64)
    for k0 in range(0, n, step):
        B = (B + W[:, k0:k0 + step] @ G[k0:k0 + step].reshape(-1, G[0].size)) % p
    return int(rank_mod_p_stack(B.reshape(G.shape), p).sum())
