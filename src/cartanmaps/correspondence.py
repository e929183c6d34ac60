"""Geodesics, paths, and the intertwining operators as exact integer matrices.

The half-plane map sends an unordered pair to the formal sum of its geodesic's
points; the punctured-plane map is the coefficient combination over all slopes
of the per-slope path operators. Matrices are indexed by the canonical
enumerations fixed in `geometry`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (
    GroupElement,
    act,
    base_object,
    cartan_index,
    decode,
    det_mod,
    generators,
    mat_inv,
    orbit_index,
    permutation,
    transporters,
)
from .exact_linalg import _reduction_room, rank_mod_p_stack
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
# at once.  The dense operators come from one closed form instead (see
# operator_rows), which reads no incidence array.
# ---------------------------------------------------------------------------

def operator_tags(op) -> tuple[str, str]:
    """(row tag, column tag) of psi+ (op "psi_plus"), psi ("psi") or H_s (op
    the slope s)."""
    return ("H_ell", "unordered_pairs") if op == "psi_plus" else ("C_ell", "ordered_pairs")


def _tags(idx: np.ndarray, ctx: PrimeContext) -> tuple[str, str]:
    """(row tag, column tag) of an incidence array: a geodesic has r points,
    a path ell - 1."""
    return operator_tags("psi_plus" if len(idx) == ctx.r else "psi")


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


def base_geodesic(ctx: PrimeContext) -> np.ndarray:
    """The geodesic through {0, inf}, {lam*se}, as its r H_ell indices in
    ascending order (lam and -lam land on conjugate points)."""
    return np.sort(orbit_index(0, np.arange(1, ctx.r + 1), ctx.ell))


def geodesic_incidence(ctx: PrimeContext) -> np.ndarray:
    """psi+ as its incidence index array: column j of psi+ has its ones at the
    H_ell rows idx[:, j], the base geodesic carried by pair j's transporter:
    r distinct indices in ascending order."""
    ell, tag = ctx.ell, "unordered_pairs"
    g = transporters(tag, *decode(tag, ell), ell)
    # the base points lam*se have x = 0: the scalar keeps move_cartan's
    # x terms at one value per pair
    lam = decode("H_ell", ell)[1][base_geodesic(ctx)][:, None]
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


def operator_rows(ctx: PrimeContext, op, rows=slice(None),
                  cols=slice(None)) -> np.ndarray:
    """The dense int32 entries of psi+ (op "psi_plus"), psi ("psi") or H_s (op
    the slope s) at these rows and columns, each an index array or a slice of
    its basis (see operator_tags), from one closed form.

    Let x_c be column c's transporter and (x, y) the coordinates of x_c^-1 z,
    z row r's point.  Column c is x_c applied to the base geodesic, whose
    points have x = 0, or to the base path of s, whose points have x/y = s;
    the base paths of the slopes partition the points with x != 0.  So
    psi+[r, c] = [x = 0], H_s[r, c] = [x/y = s], and psi[r, c] = alpha_s +
    beta_s at s = x/y, 0 where x = 0: each a table read at x/y.
    """
    ell = ctx.ell
    row_tag, col_tag = operator_tags(op)
    weight = np.zeros(ell, dtype=np.int32)
    if op == "psi_plus":
        weight[0] = 1
    elif op == "psi":
        weight[1:] = sum(coefficients(ctx))
    elif op % ell:
        weight[op % ell] = 1
    else:
        raise ValueError("path slope must be nonzero")
    g = mat_inv(transporters(col_tag, *(u[cols] for u in decode(col_tag, ell)), ell), ell)
    x, y = decode(row_tag, ell)
    moved = act(g, row_tag, x[rows][:, None], y[rows][:, None], ctx)
    return weight[x[moved] * ctx.inverse_table[y[moved]] % ell]


def build_psi_plus(ctx: PrimeContext) -> OperatorMatrix:
    """0/1 incidence matrix of geodesic membership: rows H_ell, cols unordered pairs."""
    return OperatorMatrix(*operator_tags("psi_plus"), operator_rows(ctx, "psi_plus"))


def build_H_s(ctx: PrimeContext, s: int) -> OperatorMatrix:
    """0/1 incidence matrix of slope-s path membership: rows C_ell, cols ordered pairs."""
    return OperatorMatrix(*operator_tags(s), operator_rows(ctx, s))


def build_psi(ctx: PrimeContext) -> OperatorMatrix:
    """The combined operator sum_s (alpha_s + beta_s) H_s as one integer matrix."""
    return OperatorMatrix(*operator_tags("psi"), operator_rows(ctx, "psi"))


# ---------------------------------------------------------------------------
# Equivariance: M intertwines the actions on its row and column bases iff
# M[P_row(h)][:, P_col(h)] == M for every h in a generating set of GL2(F_ell).
# verify reads the proof off the incidence arrays; the dense compare below
# is the reference the tests check that proof against.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _generator_perms(ctx: PrimeContext, tag: str) -> tuple[np.ndarray, ...]:
    """P(h) on the basis with this tag for the generators h, read-only."""
    perms = tuple(permutation(h, tag, ctx) for h in generators(ctx))
    for perm in perms:
        perm.flags.writeable = False
    return perms


def check_equivariance_psi(m: OperatorMatrix, ctx: PrimeContext) -> bool:
    """The generator proof on a dense operator: psi, psi+ or an H_s."""
    M = m.data
    return all(np.array_equal(M[p_row][:, p_col], M) for p_row, p_col
               in zip(_generator_perms(ctx, m.row_tag), _generator_perms(ctx, m.col_tag)))


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
    row_tag, col_tag = _tags(idx, ctx)
    return all(np.array_equal(np.sort(p_row[S], axis=0), S[:, p_col]) for p_row, p_col
               in zip(_generator_perms(ctx, row_tag), _generator_perms(ctx, col_tag)))


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

def check_base_fixed(bases: np.ndarray, ctx: PrimeContext) -> np.ndarray:
    """Premise (a) for each row of a stack of base paths (ascending C_ell
    indices, see base_paths): diag(g, 1) and diag(1, g), which generate C,
    map it onto itself."""
    x, y = (u[bases] for u in decode("C_ell", ctx.ell))
    a, d = (np.array(e)[:, None, None] for e in ((ctx.g, 1), (1, ctx.g)))
    moved = np.sort(act(GroupElement(a, 0, 0, d), "C_ell", x, y, ctx), axis=-1)
    return (moved == bases).all(axis=-1).all(axis=0)


def check_transporters(ctx: PrimeContext) -> bool:
    """Premise (b): the transporter of every ordered pair is invertible and
    carries (0, inf) to that pair."""
    ell, tag = ctx.ell, "ordered_pairs"
    g = transporters(tag, *decode(tag, ell), ell)
    return bool((det_mod(g, ell) != 0).all()
                and np.array_equal(act(g, tag, *base_object(tag, ell), ctx),
                                   np.arange(len(g.a))))


# ---------------------------------------------------------------------------
# Field isomorphisms.  x + y*se -> x + c*y*se' is a field isomorphism
# F_ell(se) -> F_ell(se') iff c^2 eps' = eps, and then it commutes with GL2,
# whose entries lie in F_ell.  Let column j of M (of M') be T_j applied to a
# base set B (B').  If the map sigma commutes with the generators (premise 1)
# and maps B onto B' (premise 2), sigma(T_j B) = T_j B', so M' = P_sigma M:
# a row relabelling, which keeps every rank.  verify reads two cases:
# - J, c = -1 on C_ell: the slope-s path maps onto the slope-(ell - s) path
#   through the same pair, so H_(ell-s) = J H_s;
# - sigma on H_ell, c^2 eps' = eps: psi+ at eps' is sigma psi+ at eps.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def field_isomorphism(tag: str, c: int, ell: int) -> np.ndarray:
    """x + y*se -> x + c*y*se' on the basis with this tag, "H_ell" or
    "C_ell", as a read-only index array: entry i is the index of the image
    of element i."""
    x, y = decode(tag, ell)
    index = orbit_index if tag == "H_ell" else cartan_index
    perm = index(x, c * y % ell, ell)
    perm.flags.writeable = False
    return perm


def check_commutes(perm: np.ndarray, tag: str, ctx: PrimeContext,
                   ctx_to: PrimeContext) -> bool:
    """Premise 1: perm[P_ctx(h)] == P_ctx_to(h)[perm] on the basis with this
    tag for the generators h of ctx, whose primitive root ctx_to shares;
    P_ctx, and P_ctx_to where ctx_to is ctx, are the cached tables the
    generator proofs read."""
    perms = _generator_perms(ctx, tag)
    perms_to = perms if ctx_to is ctx else [permutation(h, tag, ctx_to)
                                            for h in generators(ctx)]
    return all(np.array_equal(perm[p], p_to[perm]) for p, p_to in zip(perms, perms_to))


def check_maps_base(perm: np.ndarray, base: np.ndarray, base_to: np.ndarray):
    """Premise 2: perm maps the base set base onto base_to (both ascending
    along the last axis), for a pair of sets or each row of two stacks."""
    return (np.sort(perm[base], axis=-1) == base_to).all(axis=-1)


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
# counted on the block entries, and of one block of rows export writes.
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


def _blocks(reps: list[np.ndarray], p: int, ctx: PrimeContext) -> np.ndarray:
    """B_0 and B_1 mod p of each incidence_operator(ctx, idx_t), from reps[t]
    = incidence_columns(idx_t, ctx): a (t, a, row orbit, column orbit)
    stack.  A listed row adds 1 to B_0 and w^exponent to B_1 at its row
    orbit: one bincount per block of residues below p, exact in float64
    while their count times p stays below 2^53."""
    orbit, exponent, _ = orbits(_tags(reps[0], ctx)[0], ctx.ell)
    idx = np.stack(reps)
    if idx.size * (p - 1) >= 1 << 53:
        raise ValueError(f"{idx.size} residues mod {p} could overflow a float64 sum")
    T, R, K = len(reps), int(orbit.max()) + 1, idx.shape[2]
    key = ((np.arange(T)[:, None, None] * R + orbit[idx]) * K + np.arange(K)).ravel()
    B = [np.bincount(key, w, T * R * K).reshape(T, R, K)
         for w in (None, _omega_powers(p, ctx.ell)[exponent[idx]].ravel())]
    return np.stack(B, axis=1).astype(np.int64) % p


def _ranks(blocks: list[np.ndarray], p: int, ell: int) -> np.ndarray:
    """rank B_0 + (ell - 1) rank B_1 of each pair of blocks' first j columns
    in column j - 1, from one stack zero-padded to the (ell - 1) x (ell + 1)
    of an H_s: padding keeps the rank of every column prefix."""
    B = np.zeros((len(blocks), 2, ell - 1, ell + 1), dtype=np.int64)
    for b, pair in zip(B, blocks):
        b[:, :pair.shape[1], :pair.shape[2]] = pair
    pivots = rank_mod_p_stack(B.reshape(-1, ell - 1, ell + 1), p).reshape(-1, 2, ell + 1)
    return (np.array([1, ell - 1]) @ pivots).cumsum(axis=1)


def galois_row_orbits(J: np.ndarray, ctx: PrimeContext) -> np.ndarray | None:
    """sigma with B(P_J M) = B(M)[:, sigma, :] for every M with rows C_ell, or
    None where J moves a row-orbit representative r_i off exponent 0.  For
    an involution J commuting with u, row u^k r_i of P_J M is row u^k J(r_i)
    of M, and J(r_i) of exponent 0 is the representative of orbit sigma[i]."""
    orbit, exponent, _ = orbits("C_ell", ctx.ell)
    image = J[representatives(ctx, "C_ell")]
    return orbit[image] if (exponent[image] == 0).all() else None


class RouteRanks(NamedTuple):
    psi_plus: tuple[int, int] | None  # (rank, affine rank)
    psi: tuple[int, int] | None
    h_s: dict[int, int]  # rank by slope


def unipotent_ranks(geodesics: np.ndarray | None, paths: dict[int, np.ndarray],
                    weights: dict[int, int] | None, p: int, ctx: PrimeContext,
                    paired: dict[int, int] | None = None,
                    sigma: np.ndarray | None = None) -> RouteRanks:
    """Route 1 mod p (p = 1 mod ell) from incidence_columns arrays: psi+
    (geodesics) and psi = sum_t weights[t] H_t, each skipped where its
    argument is None, and the H_s of the slopes in paths; each operator
    fixed by GL2.  paths maps a slope to its array; a slope t not in paths
    is paired[t] = s, H_t = P_J H_s, whose blocks are those of s at the row
    orbits sigma (galois_row_orbits).  Each slope's blocks are built once, a
    chunk at a time, for psi and for the stack that ranks the chunk, the
    last chunk's also psi+ and psi.  The affine column orbits come first,
    so an operator's affine restriction, a column submatrix with all its
    rows, has the rank of the affine prefix of the same elimination."""
    ell = ctx.ell
    # a chunk's sum of terms below (p - 1)^2 must fit int64 with an entry below
    # p: p < 2^31, which rank_mod_p_stack checks, leaves room for one; the two
    # sums of a chunk are reduced before they are added
    per = max(1, min(_STACK_ENTRIES // (2 * (ell - 1) * (ell + 1)), _reduction_room(p)))
    slopes, last, h_s = list(paths), [], {}
    partner = {s: t for t, s in (paired or {}).items() if t not in paths}
    missing = sorted(set(weights or ()) - set(paths) - set(partner.values()))
    if missing or partner and sigma is None:
        raise ValueError(f"psi's slopes {missing} lack blocks, or paired ones sigma")
    psi = np.zeros((2, ell - 1, ell + 1), dtype=np.int64)
    for lo in range(0, len(slopes), per):
        chunk = slopes[lo:lo + per]
        B = _blocks([paths[s] for s in chunk], p, ctx)
        if weights is not None:
            # each slope's weight, then its partner's, whose sum is relabelled
            w = np.array([(weights.get(s, 0), weights.get(partner.get(s), 0))
                          for s in chunk])
            own_sum, partner_sum = np.tensordot(w.T % p, B, 1) % p
            psi = (psi + own_sum + (partner_sum[:, sigma] if partner else 0)) % p
        if lo + per < len(slopes):
            h_s.update(zip(chunk, _ranks(list(B), p, ell)[:, -1].tolist()))
        else:  # the last chunk is ranked with psi+ and psi
            last = list(zip(chunk, B))
    named = {}  # name -> (blocks, affine column orbits)
    if geodesics is not None:
        named["psi_plus"] = (_blocks([geodesics], p, ctx)[0], orbits("unordered_pairs", ell)[2])
    if weights is not None:
        named["psi"] = (psi, orbits("ordered_pairs", ell)[2])
    if not all(affine[:affine.sum()].all() for _, affine in named.values()):
        raise AssertionError("the affine column orbits are not a prefix")
    ranks = _ranks([b for _, b in last] + [B for B, _ in named.values()], p, ell).tolist()
    h_s.update(zip([s for s, _ in last], (r[-1] for r in ranks)))
    # each theorem's rank at its last column, its restriction's at the affine prefix
    route = {name: (r[-1], r[affine.sum() - 1])
             for (name, (_, affine)), r in zip(named.items(), ranks[len(last):])}
    return RouteRanks(route.get("psi_plus"), route.get("psi"), h_s)
