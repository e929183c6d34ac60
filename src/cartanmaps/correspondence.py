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

def _distinct_sorted(idx: np.ndarray, cols: Basis, what: str) -> np.ndarray:
    """idx with every column sorted; each column must list distinct row indices."""
    idx = np.sort(idx, axis=0)
    ok = (np.diff(idx, axis=0) > 0).all(axis=0)
    if not ok.all():
        raise AssertionError(f"{what} through {cols.elements[np.argmin(ok)]} "
                             f"is not {len(idx)} distinct points")
    return idx


def _path_rows(ctx: PrimeContext, g: GroupElement, cols: Basis, s: int) -> np.ndarray:
    """C_ell indices of the slope-s paths, one sorted column per transporter in g."""
    ell = ctx.ell
    lam = np.arange(1, ell, dtype=np.int64)[:, None]
    idx = cartan_index(*move_cartan(g, lam * s % ell, lam, ctx), ell)
    return _distinct_sorted(idx, cols, f"path at slope {s}")


def build_psi_plus(ctx: PrimeContext) -> OperatorMatrix:
    """0/1 incidence matrix of geodesic membership: rows H_ell, cols unordered pairs."""
    ell = ctx.ell
    rows = basis_H(ctx)
    cols = basis_unordered_pairs(ctx)
    g = stack([transporter(pair.lo, pair.hi, ell) for pair in cols])
    lam = np.arange(1, ctx.r + 1, dtype=np.int64)[:, None]
    idx = orbit_index(*move_cartan(g, 0, lam, ctx), ell)
    # lam and its negative land on conjugate points, so lam <= r suffices
    idx = _distinct_sorted(idx, cols, "geodesic")
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


def path_incidence(ctx: PrimeContext, s: int) -> np.ndarray:
    """H_s as its incidence index array: column j of H_s has its ones at the
    C_ell rows idx[:, j], which are ell - 1 distinct indices in ascending order."""
    s %= ctx.ell
    if s == 0:
        raise ValueError("path slope must be nonzero")
    _, cols, g = _path_frame(ctx.ell)
    return _path_rows(ctx, g, cols, s)


def incidence_operator(ctx: PrimeContext, idx: np.ndarray) -> OperatorMatrix:
    """The dense 0/1 operator, rows C_ell and cols ordered pairs, with a one
    at (idx[i, j], j) for every i and j."""
    rows, cols, _ = _path_frame(ctx.ell)
    data = np.zeros((len(rows), len(cols)), dtype=np.int32)
    data[idx, np.arange(len(cols))] = 1
    return OperatorMatrix(rows, cols, data)


def build_H_s(ctx: PrimeContext, s: int) -> OperatorMatrix:
    """0/1 incidence matrix of slope-s path membership: rows C_ell, cols ordered pairs."""
    return incidence_operator(ctx, path_incidence(ctx, s))


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


@lru_cache(maxsize=16)
def _generator_perms(ctx: PrimeContext, row_tag: str,
                     col_tag: str) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(P_row(h), P_col(h)) for the generators h of GL2(F_ell), read-only."""
    perms = tuple((permutation(h, row_tag, ctx), permutation(h, col_tag, ctx))
                  for h in generators(ctx))
    for pair in perms:
        for perm in pair:
            perm.flags.writeable = False
    return perms


def _fixed_by(m: OperatorMatrix, perms) -> bool:
    """True iff m[p_row][:, p_col] == m for every (p_row, p_col) in perms."""
    M = m.data
    step = max(1, _CHECK_ENTRIES // max(1, M.shape[1]))
    return all(np.array_equal(M[p_row[i:i + step]][:, p_col], M[i:i + step])
               for p_row, p_col in perms for i in range(0, len(M), step))


def _fixed_by_generators(m: OperatorMatrix, ctx: PrimeContext) -> bool:
    return _fixed_by(m, _generator_perms(ctx, m.row_basis.tag, m.col_basis.tag))


def check_equivariance_psi_plus(psi_plus: OperatorMatrix, ctx: PrimeContext) -> bool:
    return _fixed_by_generators(psi_plus, ctx)


def check_equivariance_psi(psi: OperatorMatrix, ctx: PrimeContext) -> bool:
    """Also applies to each H_s, which has the bases of psi."""
    return _fixed_by_generators(psi, ctx)


def check_equivariance_incidence(idx: np.ndarray, ctx: PrimeContext) -> bool:
    """check_equivariance_psi on incidence_operator(ctx, idx), read off idx.

    The columns of idx must list distinct rows.  For a 0/1 matrix whose
    column j has its ones at the rows R_j, M[P_row][:, P_col] == M says
    R_(P_col(j)) = P_row(R_j) for every column j; with every R_j sorted that
    is one array compare per generator.
    """
    S = np.sort(idx, axis=0)
    return all(np.array_equal(np.sort(p_row[S], axis=0), S[:, p_col])
               for p_row, p_col in _generator_perms(ctx, "C_ell", "ordered_pairs"))


# ---------------------------------------------------------------------------
# Rank by torus characters.  An operator fixed by h = diag(g, 1) commutes with
# the split torus T = <h> of order n = ell - 1.  Over an F_p holding an
# element w of order n (so p does not divide n), the permutation modules
# split into the eigenspaces of h, and the rank is the sum of the ranks on
# the eigenspaces.  The w^a-eigenspace of the columns is spanned by
# v_j = sum_k w^(-ak) e_(h^k c_j) over the orbit representatives c_j, and an
# eigenvector on the rows is determined by its entries at the representatives
# r_i; so the block of eigenvalue w^a is
#     B_a[i, j] = (M v_j)[r_i] = sum_k w^(ak) M[h^k r_i, c_j],
# which reads only the columns M[:, c_j].
# An orbit with a nontrivial stabilizer contributes a zero row or column to
# the blocks whose character is nontrivial on that stabilizer, so it needs
# no special case.
# ---------------------------------------------------------------------------

# Entry budget of one stacked elimination of the path operators' blocks.  A
# stack lives as about three int64/float64 arrays of this size at once; at
# 2^18 entries that raised the peak RSS of a 3..23 sweep by about 4 MB
# (12%), at 2^16 it stays where one dense H_s at a time left it.
_STACK_ENTRIES = 1 << 16


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


def _torus_blocks(cols: np.ndarray, row_tag: str, p: int,
                  ctx: PrimeContext) -> np.ndarray:
    """The (ell - 1, row orbits, k) stack of character blocks B_a mod p from
    cols, the k columns M[:, c_j] at column-orbit representatives; columns of
    several operators on the same rows may stand side by side."""
    n = ctx.ell - 1
    if (p - 1) % n:
        raise ValueError(f"F_{p} has no element of order {n}: "
                         f"{p} - 1 is not divisible by {n}")
    _, P = _torus_orbits(ctx, row_tag)
    omega = ctx.g if p == ctx.ell else pow(find_primitive_root(p), (p - 1) // n, p)
    # B = W @ G mod p, summed in slices short enough to stay exact: in
    # float64 (BLAS) while a product fits its 53-bit mantissa, else in int64
    bits, dtype = (53, np.float64) if (p - 1) ** 2 < 1 << 52 else (63, np.int64)
    step = max(1, ((1 << bits) - p) // (p - 1) ** 2)
    shape = (n, P.shape[1], cols.shape[1])
    # fmod keeps each integer's class mod p and its size below p, several
    # times faster than % on floats; in-place updates keep at most three
    # stack-sized arrays alive
    G = np.fmod(cols[P].astype(dtype).reshape(n, -1), p)
    powers = np.array([pow(omega, t, p) for t in range(n)], dtype=dtype)
    k = np.arange(n)
    W = powers[np.outer(k, k) % n]
    B = np.fmod(W[:, :step] @ G[:step], p)
    for k0 in range(step, n, step):
        B += W[:, k0:k0 + step] @ G[k0:k0 + step]
        np.fmod(B, p, out=B)
    del G
    return B.astype(np.int64).reshape(shape)


def torus_rank_mod_p(m: OperatorMatrix, p: int, ctx: PrimeContext) -> int:
    """Rank mod p of an operator fixed by diag(g, 1), from its ell - 1
    torus-character blocks of (row orbits) x (column orbits) each.

    Needs ell - 1 to divide p - 1 and m to be fixed by diag(g, 1); raises
    ValueError otherwise.
    """
    row1, _ = _torus_orbits(ctx, m.row_basis.tag)
    col1, C = _torus_orbits(ctx, m.col_basis.tag)
    if not _fixed_by(m, [(row1, col1)]):
        raise ValueError(f"{m!r} is not fixed by diag({ctx.g}, 1)")
    B = _torus_blocks(m.data[:, C[0]], m.row_basis.tag, p, ctx)
    return int(rank_mod_p_stack(B, p).sum())


def torus_block_shape(ctx: PrimeContext) -> tuple[int, int]:
    """(row orbits, column orbits) of diag(g, 1) on the bases of the H_s:
    the shape of each of their torus-character blocks."""
    return (_torus_orbits(ctx, "C_ell")[1].shape[1],
            _torus_orbits(ctx, "ordered_pairs")[1].shape[1])


def incidence_torus_columns(idx: np.ndarray, ctx: PrimeContext) -> np.ndarray:
    """The columns of an incidence index array at the column-orbit
    representatives of diag(g, 1): all that its torus blocks read."""
    return idx[:, _torus_orbits(ctx, "ordered_pairs")[1][0]]


def incidence_torus_ranks(reps: list[np.ndarray], p: int,
                          ctx: PrimeContext) -> list[int]:
    """torus_rank_mod_p of incidence_operator(ctx, idx) for every idx whose
    incidence_torus_columns are listed in reps.

    Each operator must be fixed by diag(g, 1) (check_equivariance_incidence
    proves it).  The blocks of consecutive operators are ranked together, in
    stacks of at most about _STACK_ENTRIES entries.
    """
    h, P = _torus_orbits(ctx, "C_ell")
    n, R = P.shape
    K = _torus_orbits(ctx, "ordered_pairs")[1].shape[1]
    per = max(1, _STACK_ENTRIES // (n * R * K))
    ranks = []
    for i in range(0, len(reps), per):
        rows = np.hstack(reps[i:i + per])
        cols = np.zeros((len(h), rows.shape[1]), dtype=np.int8)
        cols[rows, np.arange(rows.shape[1])] = 1
        # slope-major order, so the ell - 1 blocks of one slope are adjacent
        blocks = (_torus_blocks(cols, "C_ell", p, ctx).reshape(n, R, -1, K)
                  .transpose(2, 0, 1, 3).reshape(-1, R, K))
        ranks += rank_mod_p_stack(blocks, p).reshape(-1, n).sum(axis=1).tolist()
    return ranks
