"""Determinant certificates for the restricted operators.

In chart coordinates the restricted half-plane operator is a block matrix of
circulant 0/1 blocks; reducing the shift matrix to 1 collapses each block to
a square-root count, and the whole certificate lives in F_ell. Eigenvalue
sums are cross-checked against closed binomial forms and the direct
determinant of the count matrix.

Report conventions: `residue` is the directly-computed power sum that the
closed form describes; `matrix_eigenvalue` is the eigenvalue of the count
matrix itself. On the half-plane side the two differ by the invertible unit
2^(2k-1), recorded as `scale`; on the punctured-plane side they coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correspondence import coefficients
from .geometry import decode
from .modular_arith import PrimeContext, binom_mod, inverse_table, multiplicative_order


class CertificateError(RuntimeError):
    """A certificate identity failed; carries the reports computed so far."""

    def __init__(self, message: str, reports=None):
        super().__init__(message)
        self.reports = reports or []


@dataclass(frozen=True)
class BlockMatrixN:
    """Blocks of the half-plane operator in (t, m) x (T, M) chart coordinates.

    The block (m, M), for m a square and M a non-square, is the ell x ell 0/1
    matrix over (t, T) with entry 1 iff (T - t)^2 = m + M; it is circulant in
    T - t and formed only when block(m, M) asks for it.
    """

    ell: int
    epsilon: int
    squares: tuple[int, ...]
    nonsquares: tuple[int, ...]

    def keys(self) -> list[tuple[int, int]]:
        """The (m, M) of every block, m-major."""
        return [(m, M) for m in self.squares for M in self.nonsquares]

    def row(self, m: int, M) -> np.ndarray:
        """Row t = 0 of the block (m, M): entry T is 1 iff T^2 = m + M; for an
        array of M, one such row per M, along a last axis."""
        M = np.asarray(M)
        if m not in self.squares or not set(M.ravel().tolist()) <= set(self.nonsquares):
            raise KeyError((m, M))
        d = np.arange(self.ell)
        return (d * d % self.ell == (m + M[..., None]) % self.ell).astype(np.int8)

    def block(self, m: int, M: int) -> np.ndarray:
        return _circulant(self.row(m, M))  # (t, T) -> T - t


def build_block_matrix_N(ctx: PrimeContext) -> BlockMatrixN:
    squares = tuple(sorted({pow(ctx.g, 2 * i, ctx.ell) for i in range(ctx.r)}))
    return BlockMatrixN(ctx.ell, ctx.epsilon, squares, tuple(ctx.nonsquares()))


def verify_chart_conjugacy(ctx: PrimeContext, geodesics: np.ndarray) -> bool:
    """True iff psi+ on the affine pairs is the chart-coordinate operator: the
    column of the pair with chart coordinates (t, m) has its ones at the rows
    (T, M) with (T - t)^2 = m + M.  psi+ is read off its geodesic array
    (geodesic_incidence); the row chart must be injective.

    The class {z, zbar} of z = x + y*se has T = z + zbar = 2x and
    M = T^2 - 4 z zbar = 4 eps y^2; the pair {a, b} has t = a + b and
    m = t^2 - 4ab = (a - b)^2."""
    ell = ctx.ell
    x, y = decode("H_ell", ell)
    T, M = 2 * x % ell, 4 * ctx.epsilon * y * y % ell
    row_at = np.full((ell, ell), -1, dtype=np.int64)
    row_at[T, M] = np.arange(len(T))
    if (row_at >= 0).sum() != len(T):
        return False
    a, b = decode("unordered_pairs", ell)
    affine = b < ell  # a < b, so only b can be infinity
    a, b = a[affine], b[affine]
    t, m = (a + b) % ell, (a - b) ** 2 % ell
    # the row at T = t + d has M = d^2 - m; the -1 entries (no row) sort first
    d = np.arange(ell, dtype=np.int64)[:, None]
    chart = np.sort(row_at[(t + d) % ell, (d * d - m) % ell], axis=0)
    k = len(geodesics)
    return bool(((chart >= 0).sum(axis=0) == k).all()
                and np.array_equal(chart[-k:], np.sort(geodesics[:, affine], axis=0)))


def _circulant(row) -> np.ndarray:
    """The circulant matrix with this first row: entry (i, j) is
    row[(j - i) mod n]."""
    n = len(row)
    j = np.arange(n)
    return np.asarray(row, dtype=np.int64)[(j - j[:, None]) % n]


@dataclass(frozen=True)
class ReducedCountMatrixN:
    """The r x r circulant of square-root counts a_j = #{x : x^2 = 1 + eps*g^2j}."""

    ell: int
    epsilon: int
    g: int
    first_row: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.first_row)

    def matrix(self) -> np.ndarray:
        return _circulant(self.first_row)


def reduce_mod_frak_L(bm: BlockMatrixN, ctx: PrimeContext) -> ReducedCountMatrixN:
    """Collapse each circulant block to its solution count and relabel
    m = g^2i, M = eps*g^2j; the circulant shift identity is re-verified."""
    ell, g, eps, r = bm.ell, ctx.g, bm.epsilon, ctx.r
    counts = np.array(ctx.sqrt_counts)
    g2 = np.array([pow(g, 2 * i, ell) for i in range(r)], dtype=np.int64)
    M = eps * g2 % ell
    # every block (1, M) of the first block row at once
    block_counts = bm.row(1 % ell, M).sum(axis=-1)
    row = counts[(1 + M) % ell]
    if (bad := block_counts != row).any():
        j = int(bad.argmax())
        raise CertificateError(f"block (1, {M[j]}) collapses to {block_counts[j]}, "
                               f"direct count is {row[j]}")
    # the first mismatch row-major
    if (bad := counts[(g2[:, None] + eps * g2) % ell] != _circulant(row)).any():
        raise CertificateError("count matrix is not circulant at ({},{})".format(
            *divmod(int(bad.argmax()), r)))
    return ReducedCountMatrixN(ell, eps, g, tuple(row.tolist()))


@dataclass(frozen=True)
class ReducedCountMatrixC:
    """Per-slope count rows a_j(s) = #{v : v^2 = 1 + 4*eps*g^2j - 4*s*g^j} and
    the combined residues b_j = sum_s (alpha_s + beta_s) a_j(s) mod ell."""

    ell: int
    epsilon: int
    g: int
    s_rows: dict
    combined_row: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.combined_row)

    def matrix(self) -> np.ndarray:
        return _circulant(self.combined_row)


def build_reduced_C(ctx: PrimeContext) -> ReducedCountMatrixC:
    ell, g, eps = ctx.ell, ctx.g, ctx.epsilon
    counts = np.array(ctx.sqrt_counts, dtype=np.int8)  # each at most 2
    n = ell - 1
    # every value below lies within 4 ell^2 of 0: int32 halves the (ell-1)^3
    # temporaries of the circulant compare wherever it holds them
    dtype = np.int32 if 4 * ell * ell < 2**31 else np.int64
    gpow = np.array([pow(g, j, ell) for j in range(n)], dtype=dtype)
    sq = gpow * gpow % ell
    s = np.arange(1, ell, dtype=dtype)[:, None, None]
    # row s - 1 is the first row of the slope-s count matrix
    rows = counts[(1 + 4 * eps * sq - 4 * s[:, 0] * gpow) % ell]
    # entry (s - 1, i, j) counts the roots of g^2i + 4 eps g^2j - 4 s g^(i+j);
    # every slope's matrix is compared with its circulant at once
    plane = (sq[:, None] + 4 * eps * sq) % ell
    cross = 4 * gpow[:, None] * gpow % ell
    j = np.arange(n)
    bad = counts[(plane - s * cross) % ell] != rows[:, (j - j[:, None]) % n]
    if bad.any():
        # the first failing slope, then its first mismatch row-major
        at = np.unravel_index(bad.argmax(), bad.shape)
        raise CertificateError("slope-{} count matrix is not circulant at ({},{})"
                               .format(at[0] + 1, *at[1:]))
    weights = sum(coefficients(ctx)) % ell
    combined = weights @ rows % ell
    s_rows = dict(zip(range(1, ell), map(tuple, rows.tolist())))
    return ReducedCountMatrixC(ell, eps, g, s_rows, tuple(combined.tolist()))


@dataclass(frozen=True)
class EigenvalueReport:
    case: str  # "N" or "C"
    k: int
    k_prime: int
    residue: int
    closed_form: int
    matrix_eigenvalue: int
    scale: int  # matrix_eigenvalue = scale * residue (mod ell)
    matches: bool
    nonzero: bool
    alpha_part: int | None = None
    beta_part: int | None = None
    alpha_closed: int | None = None
    beta_closed: int | None = None

    def to_json(self) -> dict:
        rec = {
            "k": self.k,
            "k_prime": self.k_prime,
            "residue": self.residue,
            "closed_form": self.closed_form,
            "nonzero": self.nonzero,
        }
        if self.case == "C":
            rec["parts"] = {"alpha": self.alpha_part, "beta": self.beta_part}
        return rec


def _power_sums(values: np.ndarray, weights, n: int, ell: int) -> np.ndarray:
    """Row i, column k: sum_j w_j values_j^k mod ell for the i-th weight
    vector w of weights (None weighs every value 1) and every k < n.  The
    sum is sum_v W_v v^k, where W_v sums the w_j with values_j = v, so one
    (n x ell) power table serves every k."""
    table = np.ones((n, ell), dtype=np.int64)
    for k in range(1, n):
        table[k] = table[k - 1] * np.arange(ell) % ell
    W = np.array([np.bincount(values, w, ell) for w in weights]).astype(np.int64)
    return W @ table.T % ell


def eigenvalues_N(rm: ReducedCountMatrixN, ctx: PrimeContext) -> list[EigenvalueReport]:
    """Eigenvalue certificates for the half-plane count matrix.

    residue_k = sum_lam (lam^-1 - eps*lam)^(2k') with k' = -k mod r; the
    closed form is C(2k',k') (-1)^(k'+1) eps^k'. The count-matrix eigenvalue
    equals 2^(2k-1) * residue_k; any zero or mismatch falsifies the build.
    """
    ell, g, eps, r = rm.ell, rm.g, rm.epsilon, len(rm.first_row)
    lam = np.arange(1, ell, dtype=np.int64)
    # (lam^-1 - eps*lam)^(2k') is (its square)^k'
    base = (inverse_table(ell)[lam] - eps * lam) % ell
    residues, = _power_sums(base * base % ell, [None], r, ell).tolist()
    reports = []
    for k, eig in enumerate(circulant_eigenvalues(rm.first_row, pow(g, 2, ell), ell)):
        kp = (-k) % r
        residue = residues[kp]
        closed = binom_mod(2 * kp, kp, ell) * (-1) ** (kp + 1) * pow(eps, kp, ell) % ell
        scale = pow(2, 2 * k - 1, ell)
        matches = residue == closed and eig == scale * residue % ell
        nonzero = residue != 0 and eig != 0
        reports.append(EigenvalueReport("N", k, kp, residue, closed, eig, scale,
                                        matches, nonzero))
        if not (matches and nonzero):
            raise CertificateError(
                f"half-plane eigenvalue certificate failed at ell={ell}, "
                f"eps={eps}, g={g}, k={k}: residue={residue}, closed={closed}, "
                f"matrix_eigenvalue={eig}, scale={scale}", reports)
    return reports


def _closed_forms_C(k: int, kp: int, ell: int, eps: int) -> tuple[int, int]:
    """(alpha_closed, beta_closed) for the punctured-plane sums."""
    if k == 0:
        return 1 % ell, 0
    if kp % 2 == 0:
        half = kp // 2
        alpha = (-1) ** half * pow(eps, half, ell) * binom_mod(kp, half, ell) % ell
        return alpha, 0
    i = (kp - 1) // 2
    # multinomial kp! / (i! i! 1!) = C(kp, i) * C(kp - i, i)
    mult = binom_mod(kp, i, ell) * binom_mod(kp - i, i, ell) % ell
    beta = 2 * (-1) ** i * pow(eps, i, ell) * mult % ell
    return 0, beta


def eigenvalues_C(ctx: PrimeContext,
                  rm: ReducedCountMatrixC | None = None) -> list[EigenvalueReport]:
    """Eigenvalue certificates for the combined punctured-plane operator.

    For each k the alpha- and beta-weighted double sums over (s, lam) are
    computed directly, checked against their closed forms, and their sum is
    checked against the eigenvalue of the combined count circulant (these
    agree exactly; no unit is dropped on this side).
    """
    ell, g, eps = ctx.ell, ctx.g, ctx.epsilon
    if rm is None:
        rm = build_reduced_C(ctx)
    n = ell - 1
    # base[s-1, lam-1] = lam / ((lam*s + 1)^2 - eps*lam^2)
    sv = np.arange(1, ell, dtype=np.int64)[:, None]
    lv = np.arange(1, ell, dtype=np.int64)[None, :]
    den = (np.square(lv * sv + 1) - eps * np.square(lv)) % ell
    base = (lv * ctx.inverse_table[den] % ell).ravel()
    alphas, betas = _power_sums(base, [np.repeat(w, n) for w in coefficients(ctx)],
                                n, ell).tolist()
    reports = []
    for k, eig in enumerate(circulant_eigenvalues(rm.combined_row, g, ell)):
        alpha, beta = alphas[k], betas[k]
        kp = 0 if k == 0 else (-k) % n
        a_cl, b_cl = _closed_forms_C(k, kp, ell, eps)
        residue = (alpha + beta) % ell
        closed = (a_cl + b_cl) % ell
        matches = alpha == a_cl and beta == b_cl and eig == residue
        nonzero = residue != 0
        reports.append(EigenvalueReport("C", k, kp, residue, closed, eig, 1,
                                        matches, nonzero, alpha, beta, a_cl, b_cl))
        if not (matches and nonzero):
            raise CertificateError(
                f"punctured-plane eigenvalue certificate failed at ell={ell}, "
                f"eps={eps}, g={g}, k={k}: alpha={alpha}/{a_cl}, beta={beta}/{b_cl}, "
                f"matrix_eigenvalue={eig}", reports)
    return reports


def circulant_eigenvalues(row, u: int, ell: int) -> list[int]:
    """The eigenvalues mod ell of the circulant with this first row at the
    powers of u, an n-th root of unity for n = len(row): the k-th is
    sum_j row[j] u^(kj mod n)."""
    n = len(row)
    upow = np.array([pow(u, i, ell) for i in range(n)], dtype=np.int64)
    k = np.arange(n)
    row = np.asarray(row, dtype=np.int64) % ell
    return (upow[k[:, None] * k % n] @ row % ell).tolist()


def circulant_det_mod(first_row, e: int, ctx: PrimeContext) -> int:
    """Determinant mod ell of the circulant with the given first row, via the
    eigenvalue product at the powers of g^e.

    Requires g^e to have multiplicative order equal to the row length, so the
    relevant cyclotomic polynomial splits with distinct roots mod ell.
    """
    ell, nlen = ctx.ell, len(first_row)
    if nlen == 0 or (ell - 1) % nlen != 0:
        raise ValueError(f"row length {nlen} must divide ell-1 = {ell - 1}")
    u = pow(ctx.g, e, ell)
    if multiplicative_order(u, ell) != nlen:
        raise ValueError(f"g^{e} has order {multiplicative_order(u, ell)} "
                         f"mod {ell}, need {nlen}")
    return math.prod(circulant_eigenvalues(first_row, u, ell)) % ell
