"""Geodesics, paths, and the intertwining operators as exact integer matrices.

The half-plane map sends an unordered pair to the formal sum of its geodesic's
points; the punctured-plane map is the coefficient combination over all slopes
of the per-slope path operators. Matrices are indexed by the canonical
enumerations fixed in `geometry`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .geometry import (
    GroupElement,
    act,
    base_object,
    cartan_index,
    decode,
    det_mod,
    generators,
    permutation,
    transporters,
)
from .exact_linalg import rank_mod_p_stack
from .modular_arith import PrimeContext, find_primitive_root


def coefficients(ctx: PrimeContext) -> tuple[np.ndarray, np.ndarray]:
    """The weights (alpha, beta) of psi = sum_s (alpha_s + beta_s) H_s, indexed
    by s - 1 for s = 1..ell-1: alpha_s = 1 and beta_s the representative of
    s^-1 mod ell, the values the punctured-plane closed forms hold for."""
    beta = ctx.inverse_table[1:]
    return np.ones_like(beta), beta


class OperatorMatrix:
    """Exact integer matrix between free modules on the tagged bases: its
    rows and columns are in the order of decode(row_tag) and decode(col_tag),
    the latter restricted to the affine pairs for a tag ending in _affine."""

    __slots__ = ("row_tag", "col_tag", "data")

    def __init__(self, row_tag: str, col_tag: str, data: np.ndarray):
        self.row_tag = row_tag
        self.col_tag = col_tag
        self.data = data

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def to_triplets(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero entries as (row, col, value), row-major."""
        rows, cols = np.nonzero(self.data)
        for r, c in zip(rows.tolist(), cols.tolist()):
            yield r, c, int(self.data[r, c])

    def write_csv(self, fh, ctx: PrimeContext) -> None:
        fh.write(f"# basis_rows={self.row_tag} basis_cols={self.col_tag} "
                 f"ell={ctx.ell} epsilon={ctx.epsilon}\n")
        for r, c, v in self.to_triplets():
            fh.write(f"{r},{c},{v}\n")

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorMatrix)
                and (self.row_tag, self.col_tag) == (other.row_tag, other.col_tag)
                and np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"OperatorMatrix({self.row_tag} x {self.col_tag}, shape={self.shape})"


# ---------------------------------------------------------------------------
# Assembly: psi+ and each H_s as an incidence index array, from one broadcast
# action of the column transporters (geometry.transporters) on the base
# geodesic or path.  psi+ has rows H_ell and columns the unordered pairs,
# every H_s rows C_ell and columns the ordered pairs.  Arrays are (points,
# columns), so temporaries stay at about ell times the column count; the
# path operators are built at any subset of columns, for any set of slopes
# at once.  A dense operator is its array scattered.
# ---------------------------------------------------------------------------

def _tags(idx: np.ndarray, ctx: PrimeContext) -> tuple[str, str]:
    """(row tag, column tag) of an incidence array: a geodesic has r points,
    a path ell - 1."""
    if len(idx) == ctx.r:
        return "H_ell", "unordered_pairs"
    return "C_ell", "ordered_pairs"


def pair_text(tag: str, i: int, j: int, ell: int) -> str:
    """The pair of P^1 indices (i, j) as {i,j} ("unordered_pairs") or (i,j)
    ("ordered_pairs"), infinity as inf."""
    ends = ",".join("inf" if k == ell else str(k) for k in (i, j))
    return f"{{{ends}}}" if tag == "unordered_pairs" else f"({ends})"


def _distinct_sorted(idx: np.ndarray, col_tag: str, ell: int, what,
                     cols: np.ndarray | None = None) -> np.ndarray:
    """idx as int32 with every column sorted along its points axis, the
    second to last; each column must list distinct row indices.  A stack of
    arrays names its k-th member what[k], a single array what.  cols are the
    indices of idx's columns in the column basis, all of them by default."""
    idx = np.sort(idx.astype(np.int32), axis=-2)
    ok = (np.diff(idx, axis=-2) > 0).all(axis=-2)
    if not ok.all():
        *member, j = np.argwhere(~ok)[0].tolist()
        col = j if cols is None else int(cols[j])
        ends = pair_text(col_tag, *(int(c[col]) for c in decode(col_tag, ell)), ell)
        name = what[member[0]] if member else what
        raise AssertionError(f"{name} through {ends} is not {idx.shape[-2]} "
                             f"distinct points")
    return idx


def _scatter(out: np.ndarray, idx: np.ndarray, weight: int = 1) -> np.ndarray:
    """out[idx[i, j], j] += weight for every i and j.  A column of idx lists
    distinct rows, so every (row, column) occurs once and += is exact."""
    out[idx, np.arange(idx.shape[1])] += weight
    return out


def geodesic_incidence(ctx: PrimeContext) -> np.ndarray:
    """psi+ as its incidence index array: column j of psi+ has its ones at the
    H_ell rows idx[:, j], which are r distinct indices in ascending order."""
    ell, tag = ctx.ell, "unordered_pairs"
    g = transporters(tag, *decode(tag, ell), ell)
    lam = np.arange(1, ctx.r + 1, dtype=np.int64)[:, None]
    # lam and its negative land on conjugate points, so lam <= r suffices
    idx = act(g, "H_ell", 0, lam, ctx)
    return _distinct_sorted(idx, tag, ell, "geodesic")


def base_paths(ctx: PrimeContext, slopes) -> dict[int, np.ndarray]:
    """The base path of each slope s: the slope-s path through (0, inf),
    {lam*s + lam*se : lam in F_ell^x}, as its ell - 1 C_ell indices in
    ascending order, keyed by s mod ell."""
    ell = ctx.ell
    keys = [s % ell for s in slopes]
    if 0 in keys:
        raise ValueError("path slope must be nonzero")
    s = np.array(keys, dtype=np.int64)[:, None]
    lam = np.arange(1, ell, dtype=np.int64)
    bases = np.sort(cartan_index(lam * s % ell, lam, ell).astype(np.int32), axis=1)
    return dict(zip(keys, bases))


def path_columns(ctx: PrimeContext, bases: dict[int, np.ndarray],
                 cols: np.ndarray) -> dict[int, np.ndarray]:
    """The columns cols of the path operators with these base paths (see
    base_paths), by slope: column j of slope s lists the C_ell rows that the
    transporter of the ordered pair cols[j] carries bases[s] to, ell - 1
    distinct indices in ascending order.  One broadcast serves every slope."""
    if not bases:
        return {}
    ell, tag = ctx.ell, "ordered_pairs"
    i, j = decode(tag, ell)
    g = transporters(tag, i[cols], j[cols], ell)
    x, y = decode("C_ell", ell)
    b = np.stack(list(bases.values()))[:, :, None]
    idx = act(g, "C_ell", x[b], y[b], ctx)
    names = [f"path at slope {s}" for s in bases]
    return dict(zip(bases, _distinct_sorted(idx, tag, ell, names, cols)))


def path_incidence(ctx: PrimeContext, s: int) -> np.ndarray:
    """H_s as its incidence index array: column j of H_s has its ones at the
    C_ell rows idx[:, j], which are ell - 1 distinct indices in ascending order."""
    n = ctx.ell * (ctx.ell + 1)
    (idx,) = path_columns(ctx, base_paths(ctx, [s]), np.arange(n)).values()
    return idx


def incidence_operator(ctx: PrimeContext, idx: np.ndarray) -> OperatorMatrix:
    """The dense 0/1 operator of an incidence array, with a one at
    (idx[i, j], j) for every i and j: psi+ for geodesic_incidence, H_s for
    path_incidence."""
    row_tag, col_tag = _tags(idx, ctx)
    data = np.zeros((len(decode(row_tag, ctx.ell)[0]), idx.shape[1]), dtype=np.int32)
    return OperatorMatrix(row_tag, col_tag, _scatter(data, idx))


def build_psi_plus(ctx: PrimeContext) -> OperatorMatrix:
    """0/1 incidence matrix of geodesic membership: rows H_ell, cols unordered pairs."""
    return incidence_operator(ctx, geodesic_incidence(ctx))


def build_H_s(ctx: PrimeContext, s: int) -> OperatorMatrix:
    """0/1 incidence matrix of slope-s path membership: rows C_ell, cols ordered pairs."""
    return incidence_operator(ctx, path_incidence(ctx, s))


def build_psi(ctx: PrimeContext) -> OperatorMatrix:
    """The combined operator sum_s (alpha_s + beta_s) H_s as one integer matrix."""
    ell = ctx.ell
    data = np.zeros((ell * (ell - 1), ell * (ell + 1)), dtype=np.int32)
    for s, w in enumerate(sum(coefficients(ctx)).tolist(), start=1):
        _scatter(data, path_incidence(ctx, s), w)
    return OperatorMatrix("C_ell", "ordered_pairs", data)


def restrict_to_affine(m: OperatorMatrix, ell: int) -> OperatorMatrix:
    """Drop the columns whose pair involves infinity; yields a square matrix."""
    i, j = decode(m.col_tag, ell)
    affine = (i < ell) & (j < ell)
    return OperatorMatrix(m.row_tag, m.col_tag + "_affine", m.data[:, affine])


# ---------------------------------------------------------------------------
# Equivariance: M intertwines the actions on its row and column bases iff
# M[P_row(h)][:, P_col(h)] == M for every h in a generating set of GL2(F_ell).
# verify reads the proof off the incidence arrays; the dense compare below
# is the reference the tests check that proof against.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _generator_perms(ctx: PrimeContext, row_tag: str,
                     col_tag: str) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(P_row(h), P_col(h)) for the generators h of GL2(F_ell), read-only."""
    perms = tuple((permutation(h, row_tag, ctx), permutation(h, col_tag, ctx))
                  for h in generators(ctx))
    for pair in perms:
        for perm in pair:
            perm.flags.writeable = False
    return perms


def check_equivariance_psi(m: OperatorMatrix, ctx: PrimeContext) -> bool:
    """The generator proof on a dense operator: psi, psi+ or an H_s."""
    M = m.data
    return all(np.array_equal(M[p_row][:, p_col], M) for p_row, p_col
               in _generator_perms(ctx, m.row_tag, m.col_tag))


check_equivariance_psi_plus = check_equivariance_psi


def check_equivariance_incidence(idx: np.ndarray, ctx: PrimeContext) -> bool:
    """The generator proof of incidence_operator(ctx, idx), read off idx: the
    geodesic array of psi+ or the path array of an H_s.

    The columns of idx must list distinct rows.  For a 0/1 matrix whose
    column j has its ones at the rows R_j, M[P_row][:, P_col] == M says
    R_(P_col(j)) = P_row(R_j) for every column j; with every R_j sorted that
    is one array compare per generator.
    """
    S = np.sort(idx, axis=0)
    return all(np.array_equal(np.sort(p_row[S], axis=0), S[:, p_col])
               for p_row, p_col in _generator_perms(ctx, *_tags(idx, ctx)))


# ---------------------------------------------------------------------------
# Equivariance by construction.  The ordered pairs are one GL2-orbit, that of
# (0, inf), whose stabilizer is the split Cartan C of diagonal matrices.  Let
# T_j be the transporter of pair j and M the operator whose column j is T_j
# applied to a base set B of C_ell.  If every T_j is invertible and carries
# (0, inf) to pair j, then for h in GL2 and h(pair j) = pair k the element
# T_k^-1 h T_j fixes (0, inf), so it lies in C; if C fixes B, then h maps
# column j onto column k, and M is GL2-equivariant (Frobenius reciprocity for
# the induced module).  Conversely an equivariant M has its column at
# (0, inf), whose transporter is the identity, fixed by C.  verify proves H_s
# from these two premises, the one per slope and the other per prime, and so
# builds each H_s only at the columns its ranks read.
# ---------------------------------------------------------------------------

def check_base_fixed(base: np.ndarray, ctx: PrimeContext) -> bool:
    """Premise (a): diag(g, 1) and diag(1, g), which generate C, map the base
    path (ascending C_ell indices, see base_paths) onto itself."""
    x, y = (u[base] for u in decode("C_ell", ctx.ell))
    return all(np.array_equal(np.sort(act(h, "C_ell", x, y, ctx)), base)
               for h in (GroupElement(ctx.g, 0, 0, 1), GroupElement(1, 0, 0, ctx.g)))


def check_transporters(ctx: PrimeContext) -> bool:
    """Premise (b): the transporter of every ordered pair is invertible and
    carries (0, inf) to that pair."""
    ell, tag = ctx.ell, "ordered_pairs"
    g = transporters(tag, *decode(tag, ell), ell)
    return bool((det_mod(g, ell) != 0).all()
                and np.array_equal(act(g, tag, *base_object(tag, ell), ctx),
                                   np.arange(len(g.a))))


# ---------------------------------------------------------------------------
# Slope pairing.  Galois conjugation J: x + y*se -> x - y*se is a bijection of
# C_ell, and it commutes with every g of GL2(F_ell), whose entries lie in
# F_ell.  It maps the slope-s path through a pair onto the slope-(ell - s)
# path through the same pair (lam*s - lam*se has slope -s), so
# H_(ell-s) = J H_s: a row permutation of H_s, fixed by GL2 when H_s and J
# are, and of the same rank over every field.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def galois_conjugation(ell: int) -> np.ndarray:
    """J on C_ell as a read-only index array: J[x(ell-1) + y - 1] is the
    index x(ell-1) + (ell-y) - 1 of x - y*se."""
    x, y = decode("C_ell", ell)
    J = cartan_index(x, ell - y, ell)
    J.flags.writeable = False
    return J


def check_galois_commutes(ctx: PrimeContext) -> bool:
    """The generator proof of J: J[P(h)] == P(h)[J] on C_ell for the
    generators h of GL2(F_ell)."""
    J = galois_conjugation(ctx.ell)
    return all(np.array_equal(J[p_row], p_row[J])
               for p_row, _ in _generator_perms(ctx, "C_ell", "ordered_pairs"))


def check_galois_bases(base_s: np.ndarray, base_t: np.ndarray, ctx: PrimeContext) -> bool:
    """Whether J maps the base path base_s onto base_t (both ascending); once
    check_galois_commutes holds, J commutes with every transporter, so the
    path operator of base_t is J times that of base_s."""
    return np.array_equal(np.sort(galois_conjugation(ctx.ell)[base_s]), base_t)


# ---------------------------------------------------------------------------
# Rank by characters.  An operator fixed by GL2 (the generator proof, or for
# an H_s the two premises of its transported base path), and its affine
# restriction, fixed by the Borel subgroup, commute with U = <u>,
# u = (1 1; 0 1), and with diag(t, 1), which conjugates u to u^t.  u acts by
# x -> x + 1 and fixes infinity, so U acts freely on all four bases, and
# each element is u^k applied to the exponent-0 element of its orbit.  Over
# an F_p holding an element w of order ell (p = 1 mod ell, so p != ell) the
# permutation modules split into the eigenspaces of u, and the rank is the
# sum of the ranks of the blocks
#     B_a[i, j] = sum_k w^(ak) M[u^k r_i, c_j]
# over the row- and column-orbit representatives r_i and c_j: they read only
# the columns M[:, c_j].  diag(t, 1) permutes the nontrivial characters
# transitively, so the rank is rank B_0 + (ell - 1) rank B_1 (the mirabolic,
# or Kirillov-model, restriction), and U fixes infinity, so an affine
# restriction's blocks are those at the affine column orbits.
# ---------------------------------------------------------------------------

# Entry budget of one stacked elimination of the path operators' blocks,
# counted on the block entries.
_STACK_ENTRIES = 1 << 16


@lru_cache(maxsize=None)
def orbits(tag: str, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(orbit, exponent, affine) of U on the basis with this tag, read-only
    and kept for the process: element e is u^exponent[e] applied to the
    exponent-0 element of orbit orbit[e], and affine[o] says whether orbit o
    avoids infinity."""
    u, v = decode(tag, ell)
    if tag in ("H_ell", "C_ell"):
        # x + y*se is u^x applied to 0 + y*se
        orbit, exponent = v - 1, u
    elif tag == "ordered_pairs":
        # (i, j) is u^i (0, j - i), u^i (0, inf) or u^j (inf, 0)
        orbit = np.where(v == ell, ell - 1, np.where(u == ell, ell, (v - u) % ell - 1))
        exponent = np.where(u == ell, v, u)
    else:
        # {i, j} with i < j is u^i {0, inf}, u^i {0, j - i} for j - i <= r,
        # else u^j {0, i - j}
        r = (ell - 1) // 2
        orbit = np.where(v == ell, r, np.minimum((v - u) % ell, (u - v) % ell) - 1)
        exponent = np.where((v == ell) | ((v - u) % ell <= r), u, v)
    affine = np.zeros(orbit.max() + 1, dtype=bool)
    affine[orbit[np.maximum(u, v) < ell]] = True
    for a in (orbit, exponent, affine):
        a.flags.writeable = False
    return orbit, exponent, affine


@lru_cache(maxsize=None)
def _omega_powers(p: int, ell: int) -> np.ndarray:
    """w^k mod p for k = 0..ell-1, w an element of order ell of F_p; read-only."""
    if (p - 1) % ell:
        raise ValueError(f"F_{p} has no element of order {ell}")
    omega = pow(find_primitive_root(p), (p - 1) // ell, p)
    powers = np.array([pow(omega, k, p) for k in range(ell)], dtype=np.int64)
    powers.flags.writeable = False
    return powers


def representatives(ctx: PrimeContext, tag: str) -> np.ndarray:
    """The exponent-0 element of each U-orbit of the basis with this tag, in
    orbit order: the only columns the blocks of an operator read."""
    orbit, exponent, _ = orbits(tag, ctx.ell)
    at = np.flatnonzero(exponent == 0)
    return at[np.argsort(orbit[at])]


def incidence_columns(idx: np.ndarray, ctx: PrimeContext) -> np.ndarray:
    """The columns of an incidence index array at the column-orbit
    representatives: all that its blocks read."""
    return idx[:, representatives(ctx, _tags(idx, ctx)[1])]


def _blocks(reps: list[np.ndarray], weights, groups: np.ndarray, p: int,
            ctx: PrimeContext) -> np.ndarray:
    """B_0 and B_1 mod p of each M_g = sum of weights[t] *
    incidence_operator(ctx, idx_t) over the t with groups[t] = g, from
    reps[t] = incidence_columns(idx_t, ctx): a (2G, row orbits, column
    orbits) stack in the order (g, a).  A listed row adds its weight to B_0,
    and its weight times w^exponent to B_1, at its row orbit: one bincount
    per block of residues below p, exact in float64 while their count times
    p stays below 2^53."""
    orbit, exponent, _ = orbits(_tags(reps[0], ctx)[0], ctx.ell)
    idx = np.stack(reps)
    if idx.size * (p - 1) >= 1 << 53:
        raise ValueError(f"{idx.size} residues mod {p} could overflow a float64 sum")
    K, R, G = idx.shape[2], int(orbit.max()) + 1, int(groups.max()) + 1
    key = ((groups[:, None, None] * R + orbit[idx]) * K + np.arange(K)).ravel()
    w = np.broadcast_to(np.asarray(weights, dtype=np.int64)[:, None, None] % p, idx.shape)
    w_k = w * _omega_powers(p, ctx.ell)[exponent[idx]] % p
    B = np.stack([np.bincount(key, a.ravel(), G * R * K).reshape(G, R, K)
                  for a in (w, w_k)], axis=1)
    return B.astype(np.int64).reshape(2 * G, R, K) % p


def _ranks(B: np.ndarray, p: int, ell: int) -> np.ndarray:
    """rank B_0 + (ell - 1) rank B_1 of each consecutive pair of a stack."""
    return rank_mod_p_stack(B, p).reshape(-1, 2) @ np.array([1, ell - 1])


def combined_ranks(reps: list[np.ndarray], weights: list[int], p: int,
                   ctx: PrimeContext) -> tuple[int, int]:
    """Ranks mod p (p = 1 mod ell) of M = sum_t weights[t] *
    incidence_operator(ctx, idx_t) and of its affine restriction, from
    reps[t] = incidence_columns(idx_t, ctx), each operator fixed by GL2.
    The restriction, a column submatrix with the rows of M, is ranked first:
    at full row rank there M has full row rank too, and M's own blocks are
    ranked only when the restriction is singular."""
    B = _blocks(reps, weights, np.zeros(len(reps), dtype=np.int64), p, ctx)
    affine = orbits(_tags(reps[0], ctx)[1], ctx.ell)[2]
    (affine_rank,) = _ranks(B[:, :, affine], p, ctx.ell).tolist()
    if affine_rank == ctx.ell * B.shape[1]:
        return affine_rank, affine_rank
    return int(_ranks(B, p, ctx.ell)[0]), affine_rank


def incidence_ranks(reps: list[np.ndarray], p: int, ctx: PrimeContext) -> list[int]:
    """The rank mod p (p = 1 mod ell) of incidence_operator(ctx, idx) for the
    path array idx of each incidence_columns in reps, each fixed by GL2,
    ranked in stacks of at most about _STACK_ENTRIES block entries."""
    per = max(1, _STACK_ENTRIES // (2 * (ctx.ell - 1) * (ctx.ell + 1)))
    ranks = []
    for i in range(0, len(reps), per):
        chunk = reps[i:i + per]
        B = _blocks(chunk, [1] * len(chunk), np.arange(len(chunk)), p, ctx)
        ranks += _ranks(B, p, ctx.ell).tolist()
    return ranks
