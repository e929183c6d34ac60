"""Command-line entry point: verification runs, exports, and reports.

Machine output goes to stdout as JSON or CSV; logs go to stderr (level from
the CARTAN_LOG environment variable). Exit codes: 0 all checks pass, 1 a
check failed, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import platform
import re
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .circulant import (
    CertificateError,
    build_block_matrix_N,
    build_reduced_C,
    circulant_det_mod,
    circulant_matrix,
    eigenvalues_C,
    eigenvalues_N,
    reduce_mod_frak_L,
    verify_chart_conjugacy,
)
from .correspondence import (
    _STACK_ENTRIES,
    base_geodesic,
    base_paths,
    build_H_s,  # noqa: F401
    build_psi,  # noqa: F401
    build_psi_plus,  # noqa: F401
    check_base_fixed,
    check_commutes,
    check_equivariance_incidence,
    check_equivariance_psi,  # noqa: F401
    check_equivariance_psi_plus,  # noqa: F401
    check_maps_base,
    check_transporters,
    coefficients,
    field_isomorphism,
    galois_row_orbits,
    geodesic_incidence,
    incidence_columns,
    operator_rows,
    operator_tags,
    pair_text,
    path_columns,
    representatives,
    unipotent_ranks,
)
from .cosets import (
    NONSPLIT_CARTAN,
    NORMALIZER_NONSPLIT,
    NORMALIZER_SPLIT,
    SPLIT_CARTAN,
    coset_incidence,
    coset_operator,  # noqa: F401
    decompose,
    decompose_all,
    enumerate_subgroup,
    named_transversal,
)
# rank_mod_p, rank_exact and the names marked F401 above stay importable as
# cli attributes even where verify no longer calls them:
# perfbench/tracer.py wraps every name of its TIMED table here, for --trace 1.
from .exact_linalg import (  # noqa: F401
    RankCertificate,
    det_mod_p,
    rank_exact,
    rank_mod_p,
)
from .geometry import (
    IDENTITY,
    STABILISERS,
    GroupElement,
    decode,
    generators,
    gl2_order,
    ordered_pair_index,
    subgroup_order,
    unordered_pair_index,
)
from .modular_arith import PrimeContext, is_odd_prime, is_prime

SCHEMA_VERSION = 4  # the verify report; 4 drops nonconclusive and scheme
TABLE_SCHEMA_VERSION = 1  # the eigenvalues and decompose documents
DEFAULT_MAX_ELL = 101
COINCIDENCE_BOUND = 7
AUX_RANK_PRIME = 1_048_583  # floor of the auxiliary primes every rank is taken at
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 64

log = logging.getLogger("cartanmaps")
# one JSON line per phase end, at info
phase_log = logging.getLogger("cartanmaps.phases")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_USAGE, as every
    other usage error does, instead of argparse's own code 2.
    add_subparsers makes its subparsers of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Timings(dict):
    """The seconds each phase of one prime's run took, by phase name."""

    def __init__(self, ell: int):
        super().__init__()
        self.ell = ell


@contextmanager
def _phase(timings: _Timings, name: str):
    t0 = time.perf_counter()
    yield
    timings[name] = round(time.perf_counter() - t0, 6)
    if phase_log.isEnabledFor(logging.INFO):
        # ru_maxrss is the peak of this process, in KiB on Linux
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phase_log.info(json.dumps({"ell": timings.ell, "phase": name,
                                   "elapsed_s": timings[name],
                                   "maxrss_mb": round(rss, 1)}))


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write(out_path: str | None, write) -> None:
    """write(fh) on the --out file (checked by _check_out), else on stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit(doc, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, default=_json_default)
    _write(out_path, lambda fh: fh.write(text + "\n"))


# ---------------------------------------------------------------------------
# The verification pipeline for one prime
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def aux_rank_prime(ell: int) -> int:
    """The least prime >= AUX_RANK_PRIME that is 1 mod ell: F_p holds the
    ell-th roots of unity the unipotent characters need."""
    p = AUX_RANK_PRIME + (1 - AUX_RANK_PRIME) % ell
    while not is_prime(p):
        p += ell
    return p


def _theorem_section(shape: tuple[int, int], ranks: tuple[int, int] | None,
                     name: str, ctx: PrimeContext) -> tuple[dict, list]:
    """ranks is (rank, affine rank) mod p = aux_rank_prime(ell) from the
    operator's unipotent blocks, or None when its equivariance proof failed:
    then the blocks mean nothing and the operator gets no rank, and its
    proof's own line fails the run.  Full rank mod p is full rank over Q;
    below it the rank mod p is only a lower bound.  The operator is onto
    when its rank is its row count."""
    rows, cols = shape
    if ranks is None:
        return ({"rank": None, "expected": rows, "surjective": None,
                 "restricted_nonsingular": None, "certificate": None}, [])
    p = aux_rank_prime(ctx.ell)
    rank, affine_rank = ranks
    cert = RankCertificate(rows, cols, rank, ((p, rank),), "unipotent characters",
                           rank == min(rows, cols))
    # the affine restriction is square, with the rows of the operator
    nonsing = affine_rank == rows
    section = {
        "rank": rank,
        "expected": rows,
        "surjective": rank == rows,
        "restricted_nonsingular": nonsing,
        "certificate": cert.to_json(),
    }
    failures = []
    if rank != rows:
        failures.append(f"{name}: rank {rank} != expected {rows}")
    if not nonsing:
        failures.append(f"{name}: affine restriction is singular mod {p}")
    return section, failures


def _circulant_case(case: str, ctx: PrimeContext):
    """(count circulant's row, eigenvalue records, error) of case N (half-plane)
    or C (punctured-plane): a CertificateError comes back as error, with the
    records made before it, and with no row if the reduction raised it."""
    row = None
    try:
        if case == "N":
            row = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
            return row, eigenvalues_N(row, ctx), None
        row = build_reduced_C(ctx)
        return row, eigenvalues_C(ctx, row), None
    except CertificateError as exc:
        return row, exc.reports, exc


def _circulant_section(case: str, ctx: PrimeContext) -> tuple[dict, list]:
    """Case N or C of the circulant phase: the eigenvalue records, and the
    count matrix's eigenvalue product against its direct determinant."""
    row, recs, error = _circulant_case(case, ctx)
    failures = [] if error is None else [str(error)]
    section = {"records": [r.to_json() for r in recs], "all_match": error is None}
    if row is None:
        # the count matrix failed its reduction: no determinant to compare
        section.update(det_product=None, det_direct=None, det_match=False)
        return section, failures
    # the half-plane eigenvalues sit at the powers of g^2, the others at g's
    prod = circulant_det_mod(row, 2 if case == "N" else 1, ctx)
    direct = det_mod_p(circulant_matrix(row), ctx.ell)
    det_ok = prod == direct and direct != 0
    if not det_ok:
        plane = "half-plane" if case == "N" else "punctured-plane"
        failures.append(f"{plane} circulant determinant check failed: "
                        f"product {prod}, direct {direct}")
    section.update(det_product=prod, det_direct=direct, det_match=det_ok)
    return section, failures


# The closed-form size of each of the four G-sets, by decode tag; the
# stabiliser of each is geometry.STABILISERS[tag]
G_SETS = {"unordered_pairs": lambda ell: ell * (ell + 1) // 2,
          "ordered_pairs": lambda ell: ell * (ell + 1),
          "H_ell": lambda ell: ell * (ell - 1) // 2,
          "C_ell": lambda ell: ell * (ell - 1)}


def run_verification(ell: int, epsilon: int | None = None, root: int | None = None,
                     skip_cosets: bool = False,
                     strict_roots: bool = False, all_epsilon: bool = False) -> dict:
    """Full pipeline for one prime; returns the per-run report dict."""
    timings = _Timings(ell)
    failures: list[str] = []
    ctx = PrimeContext(ell, epsilon, root)
    aux = aux_rank_prime(ell)
    report: dict = {"ell": ell, "epsilon": ctx.epsilon, "g": ctx.g}
    log.info("verifying ell=%d epsilon=%d g=%d", ell, ctx.epsilon, ctx.g)

    with _phase(timings, "geometry"):
        sizes = {tag: len(decode(tag, ell)[0]) for tag in G_SETS}
        n_up, n_op, n_H, n_C = sizes.values()
        # each size is the closed form and the index |GL2| / |stabiliser|
        order = gl2_order(ell)
        sizes_ok = all(sizes[tag] == size(ell)
                       and sizes[tag] == order // subgroup_order(STABILISERS[tag], ell)
                       for tag, size in G_SETS.items())
        report["sets"] = {**sizes, "coset_space_sizes_match": sizes_ok}
        if not sizes_ok:
            failures.append("set cardinalities disagree with coset-space indices")

    with _phase(timings, "theorem1"):
        # psi+ proved on its geodesic array, which theorem2 ranks, and chart
        # conjugacy and the coset coincidence read
        geodesics = geodesic_incidence(ctx)
        eq_plus = check_equivariance_incidence(geodesics, ctx)

    with _phase(timings, "theorem2"):
        # Each H_s is its base path carried to every ordered pair by the pair's
        # transporter, so it is GL2-equivariant when (a) the split Cartan fixes
        # the base path and (b) every transporter carries (0, inf) to its pair
        # (the lemma above correspondence.check_base_fixed); it is then built
        # only at the column-orbit representatives the ranks read.  The slopes
        # go in Galois pairs (s, ell - s): ell - s takes the proof, ranks and
        # blocks (rows relabelled by sigma) of s when J commutes with GL2, has a
        # sigma and maps base path onto base path; else it is built on its own.
        bases = base_paths(ctx, range(1, ell))
        stacked = np.stack(list(bases.values()))
        # a base path of distinct points, ascending, makes each column sum
        # of its H_s the length ell - 1 of the path
        col_ok = bool((np.diff(stacked, axis=1) > 0).all())
        carried = check_transporters(ctx)
        J = field_isomorphism("C_ell", -1, ell)
        sigma = galois_row_orbits(J, ctx)
        # at s - 1, for slope s: (a) and (b) hold, and J maps the base path of
        # s onto that of ell - s, the row of the reversed stack
        fixed = (check_base_fixed(stacked, ctx) & carried).tolist()
        maps = (check_maps_base(J, stacked, stacked[::-1])
                & check_commutes(J, "C_ell", ctx, ctx) & (sigma is not None)).tolist()
        paired = {ell - s: s for s in range(1, ctx.r + 1) if fixed[s - 1] and maps[s - 1]}
        # the slopes proved on their own, the only ones built
        own = [s for s in range(1, ell) if fixed[s - 1] and s not in paired]
        eq_hs = len(own) + len(paired) == ell - 1
        # one elimination ranks psi+, psi (sum_s c_s H_s) and the H_s proved
        # on their own mod aux, from the columns at the U-orbit representatives
        reps = path_columns(ctx, {s: bases[s] for s in own},
                            representatives(ctx, "ordered_pairs"))
        weights = dict(enumerate(sum(coefficients(ctx)).tolist(), 1)) if eq_hs else None
        route = unipotent_ranks(incidence_columns(geodesics, ctx) if eq_plus else None,
                                reps, weights, aux, ctx, paired, sigma)
        report["theorem1"], f1 = _theorem_section((n_H, n_up), route.psi_plus,
                                                  "theorem1", ctx)
        report["theorem2"], f2 = _theorem_section((n_C, n_op), route.psi, "theorem2", ctx)
        failures += f1 + f2

    with _phase(timings, "chart_conjugacy"):
        chart_ok = verify_chart_conjugacy(ctx, geodesics)
        report["chart_conjugacy"] = chart_ok
        if not chart_ok:
            failures.append("chart-coordinate matrix differs from geometric matrix")

    with _phase(timings, "circulant"):
        report["circulant"] = {}
        for case in ("N", "C"):
            report["circulant"][case], fc = _circulant_section(case, ctx)
            failures += fc

    with _phase(timings, "equivariance"):
        # proved before the ranks: psi is fixed when every H_s is
        # the H_s proof names its premises: (b), and the slopes (a) held for
        h_s_proof = {"method": "transported base path",
                     "transporters_carry_base": carried,
                     "split_cartan_fixes_base": sorted(own)}
        report["equivariance"] = {"generators": [list(h) for h in generators(ctx)],
                                  "psi_plus": eq_plus, "psi": eq_hs,
                                  "h_s_proof": h_s_proof}
        # a failed H_s proof has its own line, in the h_s phase
        if not eq_plus:
            failures.append("equivariance fails on a generator of GL2")

    with _phase(timings, "degrees"):
        # C and N enter by their closed-form transversals of H/Z; K is enumerated
        sub_np = enumerate_subgroup(NORMALIZER_NONSPLIT, ctx)
        sub_cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
        dec_n = decompose(named_transversal(NORMALIZER_SPLIT, ctx), IDENTITY, sub_np, ctx)
        deg_n = int(dec_n.degrees[0])
        deg_n_ok = deg_n == ctx.r
        slopes = range(1, ell)
        dec_c = decompose_all(named_transversal(SPLIT_CARTAN, ctx), GroupElement(
            *np.broadcast_arrays(1, np.arange(1, ell), 0, 1)), sub_cp, ctx)
        deg_c = dec_c.degrees.tolist()
        deg_c_ok = deg_c == [ell - 1] * (ell - 1)
        report["degrees"] = {
            "NNp": {"degree": deg_n, "expected": ctx.r, "ok": deg_n_ok,
                    "scalars_in_K": dec_n.scalars_in_K},
            "CCp": {"degrees": dict(zip(slopes, deg_c)),
                    "expected": ell - 1, "ok": deg_c_ok,
                    "scalars_in_K": dec_c.scalars_in_K},
        }
        if not (deg_n_ok and deg_c_ok):
            failures.append("double coset degrees differ from the index formulas")
        failures += [f"{dec.K.kind} does not hold the scalars: the double coset degrees "
                     f"are not cross-checked" for dec in (dec_n, dec_c)
                     if not dec.scalars_in_K]

    with _phase(timings, "h_s"):
        # Observation only (no asserted expected value): the rank of a single
        # slope operator mod the aux prime, conclusive at full rank.  The
        # slopes proved on their own were ranked in theorem2's elimination;
        # a paired slope copies the rank of its conjugate.
        full = min(n_C, n_op)
        observed = dict(route.h_s)
        observed.update({t: observed[s] for t, s in paired.items()})
        # an unproved slope has no rank: its blocks would mean nothing
        hs_ranks = {s: {"observed_rank": observed.get(s),
                        "conclusive": observed.get(s) == full}
                    for s in range(1, ell)}
        if not col_ok:
            failures.append("per-slope column sums differ from the coset degree")
        report["equivariance"]["h_s"] = eq_hs
        if not eq_hs:
            failures.append("H_s equivariance unproved: the transported base "
                            "path premises fail for some slope")
        report["h_s_rank_method"] = {
            "method": "unipotent characters", "prime": aux,
            "block_shape": [ell - 1, ell + 1],
            "paired_slopes": [[s, t] for t, s in paired.items()],
        }
        report["h_s_ranks"] = hs_ranks
        report["h_s_column_sums_ok"] = col_ok

    if not skip_cosets and ell <= COINCIDENCE_BOUND:
        with _phase(timings, "coincidence"):
            # a column's sorted rows, repeats included, fix the operator's
            # column, so the arrays are equal iff the operators are
            plus_ok = np.array_equal(coset_incidence(dec_n, ctx)[0], geodesics)
            # every slope's full path array, from theorem2's base paths, which
            # must list distinct points to make one
            hs_ok = col_ok
            if col_ok:
                incidences = path_columns(ctx, bases, np.arange(n_op))
                hs_ok = all(np.array_equal(keys, incidences[s])
                            for s, keys in zip(slopes, coset_incidence(dec_c, ctx)))
            report["coincidence"] = {"checked": True, "psi_plus": plus_ok,
                                     "h_s": hs_ok}
            if not (plus_ok and hs_ok):
                failures.append("coset operator differs from the geometric map")
    else:
        report["coincidence"] = {"checked": False}

    if all_epsilon:
        with _phase(timings, "all_epsilon"):
            # psi+ at each non-square eps' is psi+ at eps with its rows
            # relabelled by sigma (correspondence.field_isomorphism) when both
            # premises hold: the rank and the affine nonsingularity carry over
            theorem1 = report["theorem1"]
            # both are null where the proof of psi+ failed
            held = (theorem1["surjective"] is True
                    and theorem1["restricted_nonsingular"] is True)
            square_root = {x * x % ell: x for x in range(1, ell)}
            report["all_epsilon"] = []
            for eps in ctx.nonsquares():
                ctx_to = PrimeContext(ell, eps, ctx.g)
                # c^2 eps' = eps
                c = square_root[ctx.epsilon * ctx.inverse_table[eps] % ell]
                sigma = field_isomorphism("H_ell", c, ell)
                premises = {
                    "commutes_with_gl2": check_commutes(sigma, "H_ell", ctx, ctx_to),
                    "maps_base_geodesic": bool(check_maps_base(sigma, base_geodesic(ctx),
                                                               base_geodesic(ctx_to)))}
                carried = all(premises.values())
                report["all_epsilon"].append({
                    "epsilon": eps, **{key: theorem1[key] if carried else None
                                       for key in ("rank", "restricted_nonsingular")},
                    "ok": carried and held, "method": "field isomorphism", **premises})
                failures += [f"all_epsilon: {name} fails for epsilon={eps}"
                             for name, ok in premises.items() if not ok]
                if carried and not held:
                    failures.append(f"theorem1 failed for epsilon={eps}")

    if strict_roots:
        with _phase(timings, "strict_roots"):
            # At g' = g^k each count row is relabelled j -> kj, so the k-th
            # eigenvalue at g' is the k-th at g, and the residues and closed
            # forms do not read g: the circulant verdict holds at every root
            failed = " and ".join(case for case, section in report["circulant"].items()
                                  if not section["all_match"])
            roots = ctx.primitive_roots()
            report["strict_roots"] = [{"g": gr, "ok": not failed,
                                       "method": "root relabelling"} for gr in roots]
            failures += [f"certificates failed for root g={gr}: case {failed} "
                         f"failed at g={ctx.g}" for gr in roots if failed]

    report["timings"] = timings
    report["failures"] = failures
    report["ok"] = not failures
    return report


def _verify_worker(item):
    ell, kwargs = item
    return run_verification(ell, **kwargs)


def _fan_out(ells: list[int], kwargs: dict, workers: int) -> list:
    """The runs of _verify_worker over ells, in their order, verified by this
    process and workers - 1 forked children.

    Every process claims 4-byte records from one pipe until it is empty, the
    largest primes first.  A record names a group of k consecutive primes of
    the descending order, k = 1 for up to PIPE_BUF // 4 primes.  All records
    go in before the first fork, in one write of at most PIPE_BUF bytes, which
    an empty pipe takes whole, so the write never waits for a reader.  Each
    child pickles its runs, or the exception that stopped it, into its own
    pipe and leaves by os._exit.  A child's exception is raised here, as
    soon as it arrives: this process polls the result pipes between its
    claims.  A child that ends without a result raises ChildProcessError; on
    any exception every child not yet reaped is killed and reaped, so none
    outlives the call."""
    import pickle
    import select
    import signal

    order = sorted(ells, reverse=True)
    k = -(-len(order) // (select.PIPE_BUF // 4))
    groups = [order[i:i + k] for i in range(0, len(order), k)]

    def share(record: bytes, poll=lambda: None) -> list[tuple[int, dict]]:
        out = []
        while record:
            group = groups[int.from_bytes(record, "little")]
            out += [(ell, _verify_worker((ell, kwargs))) for ell in group]
            poll()
            record = os.read(claims, 4)
        return out

    def reap(wait: bool) -> None:
        """Read the result of every child, or of those whose pipes are
        readable now, to its end, reap the child, and keep its runs or raise
        what it raised."""
        ready = children.values() if wait else select.select(list(children.values()),
                                                              [], [], 0)[0]
        for pid, r in [(pid, r) for pid, r in children.items() if r in ready]:
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            os.close(r)
            fds.discard(r)
            del children[pid]
            status = os.waitpid(pid, 0)[1]
            if status or not chunks:
                raise ChildProcessError(
                    f"verify worker {pid} ended with no result (wait status {status}, "
                    f"exit code {os.waitstatus_to_exitcode(status)})")
            tag, value = pickle.loads(b"".join(chunks))
            if tag == "raised":
                raise value
            pairs.extend(value)

    claims, feed = os.pipe()
    fds = {claims}
    children = {}  # pid -> the read end of its result pipe
    pairs = []
    try:
        try:
            os.write(feed, b"".join(g.to_bytes(4, "little") for g in range(len(groups))))
        finally:
            os.close(feed)
        # this process takes the largest primes before any child can
        first = os.read(claims, 4)
        for _ in range(workers - 1):
            r, w = os.pipe()
            fds |= {r, w}
            pid = os.fork()
            if pid == 0:  # the child: it never returns into the caller
                code = 1
                try:
                    view = memoryview(_child_payload(lambda: share(os.read(claims, 4))))
                    while view:
                        view = view[os.write(w, view):]
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            fds.discard(w)
            children[pid] = r
        pairs += share(first, lambda: reap(False))
        reap(True)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pairs.sort(key=lambda pair: pair[0])
    return [run for _, run in pairs]


def _child_payload(share) -> bytes:
    """("ok", share()) or ("raised", the exception it raised), pickled; an
    exception that does not survive pickling goes as a RuntimeError carrying
    its formatted traceback."""
    import pickle
    import traceback

    try:
        result = ("ok", share())
    except BaseException as exc:
        result = ("raised", exc)
    try:
        data = pickle.dumps(result)
        if result[0] == "raised":
            pickle.loads(data)  # an exception may pickle and still not unpickle
        return data
    except Exception as exc:
        failed = result[1] if result[0] == "raised" else exc
        text = "".join(traceback.format_exception(failed))
        return pickle.dumps(("raised", RuntimeError(
            f"verify worker {os.getpid()} failed:\n{text}")))


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _parse_ells(args) -> list[int]:
    if args.ell is not None and args.ell_range is not None:
        raise UsageError("--ell and --ell-range exclude each other")
    if args.ell is not None:
        if not is_odd_prime(args.ell):
            raise UsageError(f"--ell must be an odd prime, got {args.ell}")
        lo = hi = args.ell
    elif args.ell_range is not None:
        m = re.fullmatch(r"(\d+)\.\.(\d+)", args.ell_range)
        if not m:
            raise UsageError(f"--ell-range must look like A..B, got {args.ell_range!r}")
        lo, hi = int(m.group(1)), int(m.group(2))
    else:
        raise UsageError("one of --ell or --ell-range is required")
    # checked before the range is enumerated, so a huge one is refused at once
    if hi > DEFAULT_MAX_ELL and not getattr(args, "max_ell_unsafe", False):
        raise UsageError(f"ell > {DEFAULT_MAX_ELL} needs --max-ell-unsafe")
    ells = [n for n in range(max(3, lo), hi + 1) if is_odd_prime(n)]
    if not ells:
        raise UsageError(f"no odd primes in range {lo}..{hi}")
    return ells


def _context(ell: int, args) -> PrimeContext:
    try:
        return PrimeContext(ell, getattr(args, "epsilon", None),
                            getattr(args, "root", None))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _make_context(args) -> PrimeContext:
    ells = _parse_ells(args)
    if len(ells) != 1:
        raise UsageError("this command takes a single --ell")
    return _context(ells[0], args)


def _blas() -> dict | None:
    """The name and version of the BLAS numpy was built against; None where
    numpy cannot say (numpy < 2 has no show_config(mode="dicts"))."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def cmd_verify(args) -> int:
    ells = _parse_ells(args)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    for e in ells:  # every usage error surfaces before any work starts
        _context(e, args)
    kwargs = dict(epsilon=args.epsilon, root=args.root,
                  skip_cosets=args.skip_cosets, strict_roots=args.strict_roots,
                  all_epsilon=args.all_epsilon)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(args.jobs, len(ells), cpus) if hasattr(os, "fork") else 1
    if workers > 1:
        runs = _fan_out(ells, kwargs, workers)
    else:
        runs = [run_verification(e, **kwargs) for e in ells]
    n_fail = sum(len(r["failures"]) for r in runs)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "cartanmaps", "version": __version__},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
            "usable_cpus": cpus,
            "jobs": args.jobs,
            # the processes that verified primes, this one included; 0: this one alone
            "worker_processes": workers if workers > 1 else 0,
        },
        "runs": runs,
        "summary": {"ok": n_fail == 0, "failures": n_fail},
    }
    # one line, by json's C encoder: python -m json.tool indents it
    _write(args.out, lambda fh: fh.write(json.dumps(doc, default=_json_default) + "\n"))
    return EXIT_FAIL if n_fail else EXIT_OK


def cmd_export(args) -> int:
    ctx = _make_context(args)
    ell = ctx.ell
    if args.s is not None and args.map != "h-s":
        raise UsageError(f"--s applies to --map h-s only, not {args.map}")
    if args.map == "h-s" and args.s is None:
        raise UsageError("--map h-s requires --s")
    if args.map == "h-s" and args.s % ell == 0:
        raise UsageError("--s must be nonzero mod ell")
    op = {"psi-plus": "psi_plus", "psi": "psi"}.get(args.map, args.s)
    row_tag, col_tag = operator_tags(op)
    i, j = decode(col_tag, ell)
    # the affine columns, numbered in order, or all of them
    cols = np.flatnonzero((i < ell) & (j < ell)) if args.restricted else np.arange(len(i))
    n_rows = len(decode(row_tag, ell)[0])
    per = max(1, _STACK_ENTRIES // len(cols))

    def write(fh):
        fh.write(f"# basis_rows={row_tag} basis_cols={col_tag}"
                 f"{'_affine' if args.restricted else ''} ell={ell} epsilon={ctx.epsilon}\n")
        # row-major triplets, one block of rows at a time, logged by tenths
        with _phase(_Timings(ell), "export"):
            for lo in range(0, n_rows, per):
                block = operator_rows(ctx, op, slice(lo, lo + per), cols)
                r, c = np.nonzero(block)
                flat = np.stack((r + lo, c, block[r, c]), axis=1).ravel().tolist()
                fh.write("%d,%d,%d\n" * len(r) % tuple(flat))
                done = lo + len(block)
                if done * 10 // n_rows > lo * 10 // n_rows:
                    phase_log.info(json.dumps({"ell": ell, "phase": "export",
                                               "rows_written": done, "rows": n_rows}))

    _write(args.out, write)
    return EXIT_OK


def cmd_eigenvalues(args) -> int:
    ctx = _make_context(args)
    _, recs, error = _circulant_case(args.case, ctx)
    if error is not None:
        log.error("certificate failure: %s", error)
    doc = {
        "schema_version": TABLE_SCHEMA_VERSION,
        "ell": ctx.ell, "epsilon": ctx.epsilon, "g": ctx.g, "case": args.case,
        "records": [r.to_json() for r in recs],
    }
    _emit(doc, args.out)
    return EXIT_OK if error is None else EXIT_FAIL


def cmd_decompose(args) -> int:
    ctx = _make_context(args)
    s = None
    if args.case == "N":
        if args.s is not None:
            raise UsageError("--s applies to --case C only")
        kinds, g = (NORMALIZER_SPLIT, NORMALIZER_NONSPLIT), IDENTITY
    else:
        if args.s is None:
            raise UsageError("--case C requires --s")
        s = args.s % ctx.ell
        if s == 0:
            raise UsageError("--s must be nonzero mod ell")
        kinds, g = (SPLIT_CARTAN, NONSPLIT_CARTAN), GroupElement(1, s, 0, 1)
    H, K = named_transversal(kinds[0], ctx), enumerate_subgroup(kinds[1], ctx)
    dec = decompose(H, g, K, ctx)
    doc = {
        "schema_version": TABLE_SCHEMA_VERSION,
        "ell": ctx.ell, "epsilon": ctx.epsilon, "s": s,
        "H": H.kind, "K": K.kind, "g": list(g),
        "degree": int(dec.degrees[0]),
        "representatives": [list(a) for a in zip(*(e.tolist()
                                                   for e in dec.representatives))],
    }
    _emit(doc, args.out)
    return EXIT_OK


def _conic_metadata(a: int, b: int, slope, ctx: PrimeContext) -> dict | None:
    """Center/right-hand side of the conic through the geodesic (slope None)
    or the slope path from a to b (P^1 indices), affine endpoints only.  The
    geodesic's conic is symmetric in a and b; the path's center_y changes
    sign with their order."""
    ell, eps = ctx.ell, ctx.epsilon
    if ell in (a, b):
        return None
    half = pow(2, -1, ell)
    cx = (a + b) * half % ell
    if slope is None:
        return {"center_x": cx, "center_y": 0,
                "rhs": pow((b - a) * half % ell, 2, ell)}
    inv2eps = pow(2 * eps, -1, ell)
    cy = slope * (b - a) * inv2eps % ell
    rhs = (eps - slope * slope) * pow(a - b, 2, ell) * pow(4 * eps, -1, ell) % ell
    return {"center_x": cx, "center_y": cy, "rhs": rhs}


def _plot_svg(points, ell: int, meta: dict | None, title: str) -> str:
    cell = 16
    pad = 24
    width = pad * 2 + cell * ell
    height = pad * 2 + cell * ell
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    if meta:
        items = " ".join(f"{k}={v}" for k, v in meta.items())
        out.append(f"<metadata>conic {items}</metadata>")
    out.append(f'<text x="{pad}" y="16" font-size="12">{title}</text>')
    out.append(f'<rect x="{pad}" y="{pad}" width="{cell * ell}" height="{cell * ell}" '
               f'fill="none" stroke="#ccc"/>')
    for (x, y) in points:
        cx = pad + x * cell + cell // 2
        cy = pad + (ell - 1 - y) * cell + cell // 2
        out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="#1f6feb"/>')
    out.append("</svg>")
    return "\n".join(out)


def cmd_plot(args) -> int:
    ctx = _make_context(args)
    parts = args.pair.split(",")
    if len(parts) != 2:
        raise UsageError(f"--pair must be 'a,b', got {args.pair!r}")
    ell = ctx.ell
    try:
        # P^1 indices: ell is infinity
        p, q = (ell if t.strip() == "inf" else int(t) % ell for t in parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if p == q:
        raise UsageError("pair lies on the diagonal")
    s = None
    if args.slope is not None:
        s = args.slope % ell
        if s == 0:
            raise UsageError("--slope must be nonzero mod ell")
        col = np.array([ordered_pair_index(p, q, ell)])
        rows = path_columns(ctx, base_paths(ctx, [s]), col)[s][:, 0]
        x, y = decode("C_ell", ell)
        title = f"path {pair_text('ordered_pairs', p, q, ell)} slope {s} (ell={ell})"
    else:
        rows = geodesic_incidence(ctx)[:, unordered_pair_index(p, q, ell)]
        x, y = decode("H_ell", ell)
        ends = pair_text("unordered_pairs", min(p, q), max(p, q), ell)
        title = f"geodesic {ends} (ell={ell})"
    # the rows are ascending, so the points are in (x, y) order
    pts = list(zip(x[rows].tolist(), y[rows].tolist()))
    meta = _conic_metadata(p, q, s, ctx)
    if args.format == "svg":
        text = _plot_svg(pts, ctx.ell, meta, title)
    else:
        lines = [f"# {title}", f"# ell={ctx.ell} epsilon={ctx.epsilon}"]
        if meta:
            lines.append("# conic " + " ".join(f"{k}={v}" for k, v in meta.items()))
        lines.append("x,y")
        lines += [f"{x},{y}" for (x, y) in pts]
        text = "\n".join(lines)
    _write(args.out, lambda fh: fh.write(text + "\n"))
    return EXIT_OK


def _add_context_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=int, help="odd prime modulus")
    p.add_argument("--ell-range", help="range of primes, e.g. 3..31")
    p.add_argument("--epsilon", type=int, default=None,
                   help="non-square to use (default: smallest)")
    p.add_argument("--root", type=int, default=None,
                   help="primitive root to use (default: smallest)")
    p.add_argument("--max-ell-unsafe", action="store_true",
                   help=f"lift the default ell cap of {DEFAULT_MAX_ELL}")
    p.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args returns a new
    namespace on every call, so no value carries from one call to the next."""
    parser = _Parser(
        prog="cartanmaps",
        description="Verify the coset-space correspondences for GL2(F_ell) "
                    "and export their matrices and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    _add_context_flags(p)
    p.add_argument("--all-epsilon", action="store_true",
                   help="verify the half-plane surjection at every non-square")
    p.add_argument("--skip-cosets", action="store_true",
                   help="skip the coset-operator coincidence checks")
    p.add_argument("--strict-roots", action="store_true",
                   help="verify the circulant certificates at every primitive root")
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: equivariance is proved on generators, not sampled")
    p.add_argument("--jobs", type=int, default=1,
                   help="processes verifying primes, this one included "
                        "(at most one per usable CPU)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="dump an operator matrix as CSV triplets")
    _add_context_flags(p)
    p.add_argument("--map", choices=["psi-plus", "psi", "h-s"], required=True)
    p.add_argument("--s", type=int, default=None, help="slope for --map h-s")
    p.add_argument("--restricted", action="store_true",
                   help="restrict columns to affine pairs")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eigenvalues", help="emit the circulant eigenvalue certificates")
    _add_context_flags(p)
    p.add_argument("--case", choices=["N", "C"], required=True)
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("decompose", help="emit a double coset decomposition")
    _add_context_flags(p)
    p.add_argument("--case", choices=["N", "C"], required=True)
    p.add_argument("--s", type=int, default=None, help="slope for --case C")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("plot", help="emit the points of a geodesic or path")
    _add_context_flags(p)
    p.add_argument("--pair", required=True, help="endpoints, e.g. 0,inf or 2,5")
    p.add_argument("--slope", type=int, default=None,
                   help="plot the slope-s path instead of the geodesic")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(func=cmd_plot)

    return parser


def _configure_logging() -> None:
    """Log to stderr at the level CARTAN_LOG names (debug, info, warning,
    error, critical), at warning when it is unset or names no level; phase
    ends are logged as bare JSON lines."""
    name = os.environ.get("CARTAN_LOG", "warning").upper()
    level = logging.getLevelNamesMapping().get(name, logging.WARNING)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    # set on the package logger, so it holds also where the root logger was
    # configured before
    log.setLevel(level)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    phase_log.handlers[:] = [handler]
    phase_log.propagate = False


def _check_out(path: str | None) -> None:
    """Refuse an --out path that cannot be written, before any work starts;
    the file is neither created nor truncated here."""
    if not path:
        return
    if os.path.isdir(path):
        raise UsageError(f"--out {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path}: no directory {parent}")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise UsageError(f"--out {path} is not writable")


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
