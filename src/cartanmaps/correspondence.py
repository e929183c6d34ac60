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
    basis,
    cartan_act,
    cartan_index,
    decode,
    det_mod,
    generators,
    move_cartan,
    move_p1,
    orbit_act,
    orbit_index,
    p1_index,
    permutation,
    transporters,
)
from .exact_linalg import check_float_modulus, rank_mod_p_stack
from .modular_arith import PrimeContext, find_primitive_root


def transporter(a: ProjectivePoint, b: ProjectivePoint, ell: int) -> GroupElement:
    """A matrix g with g(0) = a and g(infinity) = b."""
    if a == b:
        raise ValueError("transporter endpoints must be distinct")
    x = transporters("ordered_pairs", p1_index(a, ell), p1_index(b, ell), ell)
    return GroupElement(*map(int, x))


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
        ends = ",".join("inf" if k == ell else str(k)
                        for k in (int(c[col]) for c in decode(col_tag, ell)))
        ends = f"{{{ends}}}" if col_tag == "unordered_pairs" else f"({ends})"
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
    idx = orbit_index(*move_cartan(g, 0, lam, ctx), ell)
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
    idx = cartan_index(*move_cartan(g, x[b], y[b], ctx), ell)
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
    rows, cols = (basis(tag, ctx) for tag in _tags(idx, ctx))
    data = np.zeros((len(rows), len(cols)), dtype=np.int32)
    return OperatorMatrix(rows, cols, _scatter(data, idx))


def build_psi_plus(ctx: PrimeContext) -> OperatorMatrix:
    """0/1 incidence matrix of geodesic membership: rows H_ell, cols unordered pairs."""
    return incidence_operator(ctx, geodesic_incidence(ctx))


def build_H_s(ctx: PrimeContext, s: int) -> OperatorMatrix:
    """0/1 incidence matrix of slope-s path membership: rows C_ell, cols ordered pairs."""
    return incidence_operator(ctx, path_incidence(ctx, s))


def build_psi(ctx: PrimeContext, scheme: CoefficientScheme | None = None) -> OperatorMatrix:
    """The combined operator sum_s (alpha_s + beta_s) H_s as one integer matrix."""
    ell = ctx.ell
    scheme = scheme or CoefficientScheme.standard(ctx)
    scheme.validate(ctx)
    rows, cols = basis("C_ell", ctx), basis("ordered_pairs", ctx)
    data = np.zeros((len(rows), len(cols)), dtype=np.int32)
    for s in range(1, ell):
        _scatter(data, path_incidence(ctx, s), scheme.combined(s))
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
               in _generator_perms(ctx, m.row_basis.tag, m.col_basis.tag))


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
    ell = ctx.ell
    x, y = (u[base] for u in decode("C_ell", ell))
    return all(np.array_equal(np.sort(cartan_index(*move_cartan(h, x, y, ctx), ell)), base)
               for h in (GroupElement(ctx.g, 0, 0, 1), GroupElement(1, 0, 0, ctx.g)))


def check_transporters(ctx: PrimeContext) -> bool:
    """Premise (b): the transporter of every ordered pair (i, j) is invertible
    and carries 0 to i and infinity (P^1 index ell) to j."""
    ell, tag = ctx.ell, "ordered_pairs"
    i, j = decode(tag, ell)
    g = transporters(tag, i, j, ell)
    return bool((det_mod(g, ell) != 0).all()
                and np.array_equal(move_p1(g, 0, ell), i)
                and np.array_equal(move_p1(g, ell, ell), j))


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


def is_galois_pair(idx_s: np.ndarray, idx_t: np.ndarray, ctx: PrimeContext) -> bool:
    """Whether incidence_operator(ctx, idx_t) == J incidence_operator(ctx, idx_s),
    for path arrays with sorted columns."""
    return np.array_equal(np.sort(galois_conjugation(ctx.ell)[idx_s], axis=0), idx_t)


def check_galois_bases(base_s: np.ndarray, base_t: np.ndarray, ctx: PrimeContext) -> bool:
    """Whether J maps the base path base_s onto base_t (both ascending); once
    check_galois_commutes holds, J commutes with every transporter, so the
    path operator of base_t is J times that of base_s."""
    return np.array_equal(np.sort(galois_conjugation(ctx.ell)[base_s]), base_t)


# ---------------------------------------------------------------------------
# Rank by characters.  An operator fixed by an element h of order n commutes
# with the cyclic group <h>.  Over an F_p holding an element w of order n (so
# p does not divide n), the permutation modules split into the eigenspaces of
# h, and the rank is the sum of the ranks on the eigenspaces.  The
# w^a-eigenspace of the columns is spanned by v_j = sum_k w^(-ak) e_(h^k c_j)
# over the orbit representatives c_j, and an eigenvector on the rows is
# determined by its entries at the representatives r_i; so the block of
# eigenvalue w^a is
#     B_a[i, j] = (M v_j)[r_i] = sum_k w^(ak) M[h^k r_i, c_j],
# which reads only the columns M[:, c_j].
# An orbit with a nontrivial stabilizer contributes a zero row or column to
# the blocks whose character is nontrivial on that stabilizer, so it needs
# no special case.
#
# Two groups serve, each needing only that GL2 fixes M (the generator proof,
# or for an H_s the two premises of its transported base path):
# - the split torus T = <diag(g, 1)>, of order ell - 1, over F_ell (and any
#   p = 1 mod ell - 1).  The Weyl element w = (0 1; 1 0) conjugates diag(g, 1)
#   to diag(1, g), which acts as its inverse since scalars act trivially on
#   the four G-sets; so w carries the a-eigenspaces to the (-a)-eigenspaces
#   and rank B_a = rank B_(-a).  An affine restriction is not fixed by w,
#   which moves infinity, so its blocks are all ranked.
# - the unipotent group U = <(1 1; 0 1)>, of order ell, over p = 1 mod ell.
#   U acts freely on all four bases, and diag(t, 1) conjugates u to u^t, so
#   it permutes the nontrivial characters of U transitively: the rank is
#   rank B_0 + (ell - 1) rank B_1, two blocks (the mirabolic restriction).
#   U is an ell-group, so this needs p != ell.
# ---------------------------------------------------------------------------

TORUS, UNIPOTENT = "torus", "unipotent"

# Entry budget of one stacked elimination of the path operators' blocks,
# counted on the gathered columns cols[P] (rows times columns) that the
# blocks are formed from: a stack lives as about three int64/float64 arrays
# of this size at once.  At 2^18 entries that raised the peak RSS of a 3..23
# sweep by about 4 MB (12%); at 2^16 it stays where one dense H_s at a time
# left it.
_STACK_ENTRIES = 1 << 16


@lru_cache(maxsize=None)
def _orbits(ctx: PrimeContext, tag: str, group: str) -> tuple[np.ndarray, np.ndarray]:
    """(h, O) for the generator h of the group (TORUS or UNIPOTENT) on the
    basis with this tag: h as a permutation, and O[k, i] = h^k applied to the
    i-th orbit minimum, for k below the order of h.  Both depend only on ctx,
    the tag and the group, so every operator on that basis shares them; they
    are returned read-only and, like inverse_table, kept for the process."""
    if group == TORUS:
        gen, order = GroupElement(ctx.g, 0, 0, 1), ctx.ell - 1
    elif group == UNIPOTENT:
        gen, order = GroupElement(1, 1, 0, 1), ctx.ell
    else:
        raise ValueError(f"no character split by {group!r}")
    h = permutation(gen, tag, ctx)
    O = np.empty((order, len(h)), dtype=np.int64)
    O[0] = np.arange(len(h))
    for k in range(1, order):
        O[k] = h[O[k - 1]]
    O = O[:, O.min(axis=0) == O[0]]
    h.flags.writeable = O.flags.writeable = False
    return h, O


def _split(method: str, ctx: PrimeContext) -> tuple[str, list[int], np.ndarray]:
    """(group, characters ranked, weight of each rank) of a rank method:
    "torus" ranks every torus character, "weyl" the torus characters
    a = 0..(ell-1)/2 with a and -a counted once each, "unipotent" the
    characters 0 and 1 of U, the latter counted ell - 1 times."""
    n = ctx.ell - 1
    if method == "torus":
        return TORUS, list(range(n)), np.ones(n, dtype=np.int64)
    if method == "weyl":
        weights = np.full(ctx.r + 1, 2, dtype=np.int64)
        weights[[0, -1]] = 1
        return TORUS, list(range(ctx.r + 1)), weights
    if method == "unipotent":
        return UNIPOTENT, [0, 1], np.array([1, n], dtype=np.int64)
    raise ValueError(f"unknown rank method {method!r}")


def _character_blocks(cols: np.ndarray, row_tag: str, p: int, ctx: PrimeContext,
                      group: str, characters: list[int]) -> np.ndarray:
    """The (characters, row orbits, k) stack of the blocks B_a mod p of the
    group, for a in characters, from cols, the k columns M[:, c_j] at the
    group's column-orbit representatives; columns of several operators on
    the same rows may stand side by side."""
    check_float_modulus(p)
    _, P = _orbits(ctx, row_tag, group)
    n = len(P)
    if (p - 1) % n:
        raise ValueError(f"F_{p} has no element of order {n}: "
                         f"{p} - 1 is not divisible by {n}")
    omega = pow(find_primitive_root(p), (p - 1) // n, p)
    # B = W @ G mod p in float64 (BLAS), summed in slices short enough that
    # every partial sum stays below 2^53: at least 2 terms, as p < 2^26
    step = ((1 << 53) - p) // (p - 1) ** 2
    shape = (len(characters), P.shape[1], cols.shape[1])
    # fmod keeps each integer's class mod p and its size below p, several
    # times faster than % on floats; in-place updates keep at most three
    # stack-sized arrays alive
    G = np.fmod(cols[P].astype(np.float64).reshape(n, -1), p)
    powers = np.array([pow(omega, t, p) for t in range(n)], dtype=np.float64)
    W = powers[np.outer(characters, np.arange(n)) % n]
    B = np.fmod(W[:, :step] @ G[:step], p)
    for k0 in range(step, n, step):
        B += W[:, k0:k0 + step] @ G[k0:k0 + step]
        np.fmod(B, p, out=B)
    del G
    return B.astype(np.int64).reshape(shape)


def block_shape(ctx: PrimeContext, group: str) -> tuple[int, int]:
    """(row orbits, column orbits) of the group on the bases of the H_s: the
    shape of each of their character blocks."""
    return (_orbits(ctx, "C_ell", group)[1].shape[1],
            _orbits(ctx, "ordered_pairs", group)[1].shape[1])


def representatives(ctx: PrimeContext, tag: str, group: str = TORUS) -> np.ndarray:
    """The orbit minima of the group on the basis with this tag, ascending:
    the only columns the character blocks of an operator read."""
    return _orbits(ctx, tag, group)[1][0]


def incidence_columns(idx: np.ndarray, ctx: PrimeContext,
                      group: str = TORUS) -> np.ndarray:
    """The columns of an incidence index array at the column-orbit
    representatives of the group: all that its character blocks read."""
    return idx[:, representatives(ctx, _tags(idx, ctx)[1], group)]


def combined_torus_ranks(reps: list[np.ndarray], weights: list[int], p: int,
                         ctx: PrimeContext) -> tuple[int, int]:
    """Ranks mod p of M = sum_t weights[t] * incidence_operator(ctx, idx_t)
    and of its affine restriction, from reps[t] = incidence_columns(idx_t, ctx)
    (or path_columns at representatives(ctx, "ordered_pairs")).

    Each operator must be fixed by diag(g, 1) (check_equivariance_incidence,
    or for an H_s check_base_fixed with check_transporters, proves it).  The
    blocks are linear in M, and diag(g, 1) fixes infinity, so the
    restriction's blocks are M's at the affine representatives.  The
    restriction is ranked first: it is a column submatrix with the rows of
    M, so at full row rank there M has full row rank too, and M's own blocks
    are ranked only when the restriction is singular.
    """
    row_tag, col_tag = _tags(reps[0], ctx)
    n_rows = len(_orbits(ctx, row_tag, TORUS)[0])
    reps_at = representatives(ctx, col_tag)
    M = np.zeros((n_rows, len(reps_at)), dtype=np.int64)
    for rep, w in zip(reps, weights):
        _scatter(M, rep, w)
    B = _character_blocks(M, row_tag, p, ctx, TORUS, list(range(ctx.ell - 1)))
    # an affine pair has neither endpoint at infinity, whose P^1 index is ell
    affine = (np.maximum(*decode(col_tag, ctx.ell)) < ctx.ell)[reps_at]
    affine_rank = int(rank_mod_p_stack(B[:, :, affine], p).sum())
    if affine_rank == n_rows:
        return affine_rank, affine_rank
    return int(rank_mod_p_stack(B, p).sum()), affine_rank


def incidence_ranks(reps: list[np.ndarray], p: int, ctx: PrimeContext,
                    method: str) -> list[int]:
    """The rank mod p of incidence_operator(ctx, idx) for every path array
    idx whose incidence_columns at the method's group are listed in reps.

    method is "torus" (every torus character), "weyl" (the torus characters
    a = 0..(ell-1)/2) or "unipotent" (p = 1 mod ell; the characters 0 and 1
    of U).  Each operator must be fixed by GL2 (check_base_fixed with
    check_transporters proves it); "torus" needs diag(g, 1) only.  The
    blocks of consecutive operators are ranked together, in stacks whose
    gathered columns hold at most about _STACK_ENTRIES entries.
    """
    group, characters, weights = _split(method, ctx)
    h, P = _orbits(ctx, "C_ell", group)
    R, c = P.shape[1], len(characters)
    K = _orbits(ctx, "ordered_pairs", group)[1].shape[1]
    per = max(1, _STACK_ENTRIES // (len(h) * K))
    ranks = []
    for i in range(0, len(reps), per):
        rows = np.hstack(reps[i:i + per])
        cols = _scatter(np.zeros((len(h), rows.shape[1]), dtype=np.int8), rows)
        # slope-major order, so the blocks of one slope are adjacent
        blocks = (_character_blocks(cols, "C_ell", p, ctx, group, characters)
                  .reshape(c, R, -1, K).transpose(2, 0, 1, 3).reshape(-1, R, K))
        ranks += (rank_mod_p_stack(blocks, p).reshape(-1, c) @ weights).tolist()
    return ranks
