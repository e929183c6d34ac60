"""Command-line entry point: verification runs, exports, and reports.

Machine output goes to stdout as JSON or CSV; logs go to stderr (level from
the CARTAN_LOG environment variable). Exit codes: 0 all checks pass, 1 a
check failed, 2 a rank certificate was non-conclusive, 64 usage error.
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
    eigenvalues_C,
    eigenvalues_N,
    reduce_mod_frak_L,
    verify_chart_conjugacy,
)
from .correspondence import (
    base_paths,
    build_H_s,
    build_psi,
    build_psi_plus,
    check_base_fixed,
    check_equivariance_incidence,
    check_equivariance_psi,  # noqa: F401
    check_equivariance_psi_plus,  # noqa: F401
    check_galois_bases,
    check_galois_commutes,
    check_transporters,
    coefficients,
    combined_ranks,
    geodesic_incidence,
    incidence_columns,
    incidence_operator,
    incidence_ranks,
    pair_text,
    path_columns,
    representatives,
    restrict_to_affine,
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

SCHEMA_VERSION = 3  # the verify report; 3 ranks by the unipotent characters only
TABLE_SCHEMA_VERSION = 1  # the eigenvalues and decompose documents
DEFAULT_MAX_ELL = 101
COINCIDENCE_BOUND = 7
AUX_RANK_PRIME = 1_048_583  # floor of the auxiliary primes every rank is taken at
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

log = logging.getLogger("cartanmaps")
# one JSON line per phase end, at info
phase_log = logging.getLogger("cartanmaps.phases")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_USAGE: argparse's own
    code 2 means a non-conclusive rank certificate here.  add_subparsers
    makes its subparsers of the same class."""

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


def _rank_certificate(shape: tuple[int, int], rank: int | None, dense,
                     ctx: PrimeContext) -> RankCertificate:
    """Rank over Q of an operator, with its certificate: rank is its rank mod
    p = aux_rank_prime(ell), from its unipotent blocks, and full rank mod p
    is full rank over Q.  Otherwise rank_exact decides on the operator
    dense() returns, trying p first."""
    rows, cols = shape
    p = aux_rank_prime(ctx.ell)
    if rank == min(rows, cols):
        return RankCertificate(rows, cols, rank, ((p, rank),),
                               "unipotent characters", True)
    return rank_exact(dense(), preferred_primes=(p,))


def _theorem_section(shape: tuple[int, int], ranks: tuple[int, int] | None, dense,
                     name: str, ctx: PrimeContext) -> tuple[dict, list, list]:
    """ranks is (rank, affine rank) mod p = aux_rank_prime(ell) from the
    operator's blocks, or None when its equivariance proof failed, so that
    the blocks mean nothing; then the certificate and the affine restriction
    come from the dense operator, built once by dense().  The operator is
    onto: its expected rank is its row count."""
    failures, nonconclusive = [], []
    dense = functools.cache(dense)
    p = aux_rank_prime(ctx.ell)
    rank, affine_rank = ranks or (None, None)
    cert = _rank_certificate(shape, rank, dense, ctx)
    if ranks is None:
        affine_rank = rank_mod_p(restrict_to_affine(dense(), ctx.ell), p)
    expected = shape[0]
    # the affine restriction is square, with the rows of the operator
    nonsing = affine_rank == expected
    section = {
        "rank": cert.rank,
        "expected": expected,
        "surjective": cert.rank == expected,
        "restricted_nonsingular": nonsing,
        "certificate": cert.to_json(),
    }
    if cert.rank != expected:
        failures.append(f"{name}: rank {cert.rank} != expected {expected}")
    if not nonsing:
        failures.append(f"{name}: affine restriction is singular mod {p}")
    if not cert.conclusive:
        nonconclusive.append(f"{name}: rank certificate non-conclusive")
    return section, failures, nonconclusive


def _theorem1(shape: tuple[int, int], ctx: PrimeContext):
    """Theorem 1 at ctx's epsilon: psi+ proved and ranked on its geodesic
    array.  Returns _theorem_section's (section, failures, nonconclusive),
    the array, and whether its generator proof held."""
    geodesics = geodesic_incidence(ctx)
    proved = check_equivariance_incidence(geodesics, ctx)
    ranks = (combined_ranks([incidence_columns(geodesics, ctx)], [1],
                            aux_rank_prime(ctx.ell), ctx) if proved else None)
    section = _theorem_section(shape, ranks, lambda: incidence_operator(ctx, geodesics),
                               "theorem1", ctx)
    return *section, geodesics, proved


def _circulant_case(case: str, ctx: PrimeContext):
    """(count matrix, eigenvalue records, error) of case N (half-plane) or C
    (punctured-plane): a CertificateError comes back as error, with the
    records made before it, and with no matrix if the reduction raised it."""
    rm = None
    try:
        if case == "N":
            rm = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
            return rm, eigenvalues_N(rm, ctx), None
        rm = build_reduced_C(ctx)
        return rm, eigenvalues_C(ctx, rm), None
    except CertificateError as exc:
        return rm, exc.reports, exc


def _circulant_section(case: str, ctx: PrimeContext
                       ) -> tuple[dict, list, CertificateError | None]:
    """Case N or C of the circulant phase: the eigenvalue records, and the
    count matrix's eigenvalue product against its direct determinant; with
    _circulant_case's error, which --strict-roots reads at ctx's root."""
    rm, recs, error = _circulant_case(case, ctx)
    failures = [] if error is None else [str(error)]
    section = {"records": [r.to_json() for r in recs], "all_match": error is None}
    if rm is None:
        # the count matrix failed its reduction: no determinant to compare
        section.update(det_product=None, det_direct=None, det_match=False)
        return section, failures, error
    # the half-plane eigenvalues sit at the powers of g^2, the others at g's
    row, e = (rm.first_row, 2) if case == "N" else (rm.combined_row, 1)
    prod = circulant_det_mod(row, e, ctx)
    direct = det_mod_p(rm.matrix(), ctx.ell)
    det_ok = prod == direct and direct != 0
    if not det_ok:
        plane = "half-plane" if case == "N" else "punctured-plane"
        failures.append(f"{plane} circulant determinant check failed: "
                        f"product {prod}, direct {direct}")
    section.update(det_product=prod, det_direct=direct, det_match=det_ok)
    return section, failures, error


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
    nonconclusive: list[str] = []
    ctx = PrimeContext(ell, epsilon, root)
    # "scheme" is a constant of schema 2: alpha_s = 1 and beta_s = s^-1 are
    # fixed (correspondence.coefficients)
    report: dict = {"ell": ell, "epsilon": ctx.epsilon, "g": ctx.g,
                    "scheme": {"standard": True}}
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
        # psi+'s geodesic array is read by chart conjugacy and the coset
        # coincidence too
        section, f1, n1, geodesics, eq_plus = _theorem1((n_H, n_up), ctx)
        # its columns list distinct rows, so each column sum is len(geodesics)
        if len(geodesics) != ctx.r:
            failures.append(f"psi+ column sums differ from {ctx.r}")
        report["theorem1"] = section
        failures += f1
        nonconclusive += n1

    with _phase(timings, "theorem2"):
        # Each H_s is its base path carried to every ordered pair by the pair's
        # transporter, so it is GL2-equivariant when (a) the split Cartan fixes
        # the base path and (b) every transporter carries (0, inf) to its pair
        # (the lemma above correspondence.check_base_fixed); it is then built
        # only at the column-orbit representatives the ranks read.  The slopes
        # go in Galois pairs (s, ell - s): ell - s takes the proof and the
        # ranks of s when J commutes with GL2 and maps the one base path onto
        # the other; otherwise it is proved and ranked on its own.
        bases = base_paths(ctx, range(1, ell))
        # the base paths list distinct points, so each column sum is their length
        col_ok = all(len(base) == ell - 1 for base in bases.values())
        carried = check_transporters(ctx)
        galois_ok = check_galois_commutes(ctx)
        own, paired = [], {}  # the slopes proved on their own; t -> s
        for s in range(1, ctx.r + 1):
            t = ell - s
            if carried and check_base_fixed(bases[s], ctx):
                own.append(s)
                if galois_ok and check_galois_bases(bases[s], bases[t], ctx):
                    paired[t] = s
                    continue
            if carried and check_base_fixed(bases[t], ctx):
                own.append(t)
        # a slope's columns at the U-orbit representatives serve psi
        # (sum_s c_s H_s) here and H_s in the h_s phase, both mod aux
        aux = aux_rank_prime(ell)
        proved = set(own) | set(paired)
        reps = path_columns(ctx, {s: bases[s] for s in range(1, ell) if s in proved},
                            representatives(ctx, "ordered_pairs"))
        eq_hs = len(reps) == ell - 1
        weights = sum(coefficients(ctx))
        ranks = (combined_ranks(list(reps.values()), [weights[s - 1] for s in reps],
                                aux, ctx) if eq_hs else None)
        section, f2, n2 = _theorem_section((n_C, n_op), ranks,
                                           lambda: build_psi(ctx), "theorem2", ctx)
        report["theorem2"] = section
        failures += f2
        nonconclusive += n2

    with _phase(timings, "chart_conjugacy"):
        chart_ok = verify_chart_conjugacy(ctx, geodesics)
        report["chart_conjugacy"] = chart_ok
        if not chart_ok:
            failures.append("chart-coordinate matrix differs from geometric matrix")

    with _phase(timings, "circulant"):
        report["circulant"], circulant_errors = {}, {}
        for case in ("N", "C"):
            section, fc, circulant_errors[case] = _circulant_section(case, ctx)
            report["circulant"][case] = section
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
        sub_n = enumerate_subgroup(NORMALIZER_SPLIT, ctx)
        sub_np = enumerate_subgroup(NORMALIZER_NONSPLIT, ctx)
        sub_c = enumerate_subgroup(SPLIT_CARTAN, ctx)
        sub_cp = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
        dec_n = decompose(sub_n, IDENTITY, sub_np, ctx)
        deg_n = int(dec_n.degrees[0])
        deg_n_ok = deg_n == ctx.r
        slopes = range(1, ell)
        dec_c = decompose_all(sub_c, [GroupElement(1, s, 0, 1) for s in slopes],
                              sub_cp, ctx)
        deg_c = dec_c.degrees.tolist()
        deg_c_ok = deg_c == [ell - 1] * (ell - 1)
        report["degrees"] = {
            "NNp": {"degree": deg_n, "expected": ctx.r, "ok": deg_n_ok},
            "CCp": {"degrees": dict(zip(slopes, deg_c)),
                    "expected": ell - 1, "ok": deg_c_ok},
        }
        if not (deg_n_ok and deg_c_ok):
            failures.append("double coset degrees differ from the index formulas")

    with _phase(timings, "h_s"):
        # Observation only (no asserted expected value): the rank of a single
        # slope operator mod the aux prime, conclusive at full rank.  The
        # blocks of the slopes proved on their own are ranked in shared
        # stacks, from the columns built in theorem2; a paired slope copies
        # the rank of its conjugate.
        full = min(n_C, n_op)
        observed = dict(zip(own, incidence_ranks([reps[s] for s in own], aux, ctx)))
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
            # every slope's full path array, from theorem2's base paths
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
            eps_reports = []
            for eps in ctx.nonsquares():
                # the theorem1 phase verified the default non-square already
                section = (report["theorem1"] if eps == ctx.epsilon else
                           _theorem1((n_H, n_up), PrimeContext(ell, eps, ctx.g))[0])
                nonsing = section["restricted_nonsingular"]
                ok = (section["surjective"] and section["certificate"]["conclusive"]
                      and nonsing)
                eps_reports.append({"epsilon": eps, "rank": section["rank"],
                                    "restricted_nonsingular": nonsing, "ok": ok})
                if not ok:
                    failures.append(f"theorem1 failed for epsilon={eps}")
            report["all_epsilon"] = eps_reports

    if strict_roots:
        with _phase(timings, "strict_roots"):
            root_reports = []
            for gr in ctx.primitive_roots():
                # the eigenvalue certificates only, case C once N has passed;
                # the circulant phase certified the default root already
                if gr == ctx.g:
                    errors = circulant_errors.values()
                else:
                    sub_ctx = PrimeContext(ell, ctx.epsilon, gr)
                    errors = (_circulant_case(case, sub_ctx)[2] for case in ("N", "C"))
                error = next(filter(None, errors), None)
                if error is not None:
                    failures.append(f"certificates failed for root g={gr}: {error}")
                root_reports.append({"g": gr, "ok": error is None})
            report["strict_roots"] = root_reports

    report["timings"] = timings
    report["failures"] = failures
    report["nonconclusive"] = nonconclusive
    report["ok"] = not failures and not nonconclusive
    return report


def _verify_worker(item):
    ell, kwargs = item
    return run_verification(ell, **kwargs)


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
    workers = min(args.jobs, len(ells), cpus)
    if workers > 1:
        # The largest primes go first, so the last worker does not run on
        # alone; the report lists the runs in ascending order.  The default
        # context forks on Linux: the workers start with numpy imported.  The
        # pool's module imports multiprocessing, which a serial run never loads.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {e: pool.submit(_verify_worker, (e, kwargs))
                       for e in sorted(ells, reverse=True)}
            runs = [futures[e].result() for e in ells]
    else:
        runs = [run_verification(e, **kwargs) for e in ells]
    n_fail = sum(len(r["failures"]) for r in runs)
    n_open = sum(len(r["nonconclusive"]) for r in runs)
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
            # 0: the primes ran in this process
            "worker_processes": workers if workers > 1 else 0,
        },
        "runs": runs,
        "summary": {"ok": n_fail == 0 and n_open == 0,
                    "failures": n_fail, "nonconclusive": n_open},
    }
    _emit(doc, args.out)
    if n_fail:
        return EXIT_FAIL
    if n_open:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_export(args) -> int:
    ctx = _make_context(args)
    if args.s is not None and args.map != "h-s":
        raise UsageError(f"--s applies to --map h-s only, not {args.map}")
    if args.map == "psi-plus":
        m = build_psi_plus(ctx)
    elif args.map == "psi":
        m = build_psi(ctx)
    else:  # h-s, the last of argparse's choices
        if args.s is None:
            raise UsageError("--map h-s requires --s")
        if args.s % ctx.ell == 0:
            raise UsageError("--s must be nonzero mod ell")
        m = build_H_s(ctx, args.s)
    if args.restricted:
        m = restrict_to_affine(m, ctx.ell)
    _write(args.out, lambda fh: m.write_csv(fh, ctx))
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
    if args.case == "N":
        if args.s is not None:
            raise UsageError("--s applies to --case C only")
        H = enumerate_subgroup(NORMALIZER_SPLIT, ctx)
        K = enumerate_subgroup(NORMALIZER_NONSPLIT, ctx)
        g = IDENTITY
        s = None
    else:
        if args.s is None:
            raise UsageError("--case C requires --s")
        s = args.s % ctx.ell
        if s == 0:
            raise UsageError("--s must be nonzero mod ell")
        H = enumerate_subgroup(SPLIT_CARTAN, ctx)
        K = enumerate_subgroup(NONSPLIT_CARTAN, ctx)
        g = GroupElement(1, s, 0, 1)
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
                   help="run the circulant certificates at every primitive root")
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: equivariance is proved on generators, not sampled")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers over primes (at most one per usable CPU)")
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
