"""Spans and counts around the calls `cartanmaps.cli` makes into each layer.

Nothing inside the program is changed: `install` replaces the names that
`cartanmaps.cli` imports from the other modules (and, for counting scalar
group actions only, the action functions as `geometry`, `correspondence` and
`cosets` call them) with wrappers that record spans in memory.  A span is
(name, start, end, phase, call id); the phase is the report phase that was
open and the call id names the `run_verification` call it belongs to.

Pool workers forked by `verify --jobs N` inherit the wrappers.  Each worker
task writes its own spans and counts to a spill file when it ends, and the
parent merges those files after the call returns.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from collections import Counter
from contextlib import contextmanager

from cartanmaps import cli, correspondence, cosets, geometry

AUX_PRIME = getattr(cli, "AUX_RANK_PRIME", 1_048_583)
MB = float(1 << 20)

# Names imported by cartanmaps.cli -> the layer span that times them.
TIMED = {
    "PrimeContext": "modular_arith.prime_context",
    "rank_mod_p": "exact_linalg.rank_mod_p",
    "rank_exact": "exact_linalg.rank_exact",
    "det_mod_p": "exact_linalg.det_mod_p",
    "build_H_s": "correspondence.build_H_s",
    "build_psi": "correspondence.build_psi",
    "build_psi_plus": "correspondence.build_psi_plus",
    "check_equivariance_psi_plus": "correspondence.equivariance",
    "check_equivariance_psi": "correspondence.equivariance",
    "decompose": "cosets.decompose",
    "coset_operator": "cosets.coset_operator",
    "enumerate_subgroup": "cosets.enumerate_subgroup",
    "build_block_matrix_N": "circulant.certificates",
    "reduce_mod_frak_L": "circulant.certificates",
    "build_reduced_C": "circulant.certificates",
    "eigenvalues_N": "circulant.certificates",
    "eigenvalues_C": "circulant.certificates",
    "circulant_det_mod": "circulant.certificates",
    "verify_chart_conjugacy": "circulant.chart_conjugacy",
}
BUILDERS = ("build_H_s", "build_psi", "build_psi_plus")
ACTIONS = ("cartan_act", "orbit_act", "mobius_act")
PHASES = ("geometry", "theorem1", "theorem2", "chart_conjugacy", "circulant",
          "equivariance", "degrees", "h_s", "coincidence", "all_epsilon",
          "strict_roots")
# Counts that depend only on the inputs, so two traced runs of one seed must
# give identical values.
EXACT_COUNTS = ("exact_linalg.elim_ops", "exact_linalg.rank_mod_p_calls",
                "exact_linalg.aux_calls", "geometry.act_calls",
                "correspondence.assembled_mb", "cosets.decompose_calls",
                "cosets.coset_operator_calls")
RUN = "cli.run_verification"


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.phase = None
        self.call_id = None
        self._calls = 0
        self._spills = 0
        self._ell_rank = {}
        self._reset()

    def _reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.live_bytes = 0
        self.peak_bytes = 0

    # -- recording ---------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans.append((name, t0, time.perf_counter(), self.phase,
                                   self.call_id))
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["geometry.act_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_rank(self, args, rank) -> None:
        m, p = args[0], args[1]
        rows, cols = m.shape
        self.counts["exact_linalg.elim_ops"] += rank * rows * cols
        if p == AUX_PRIME:
            self.counts["exact_linalg.aux_calls"] += 1
            ell_rank = self._ell_rank.get(id(m))
            if ell_rank is None or ell_rank < min(rows, cols):
                self.counts["exact_linalg.aux_useful"] += 1
        else:
            self._ell_rank[id(m)] = rank

    def _after_build(self, args, m) -> None:
        nbytes = m.data.nbytes
        self.counts["correspondence.assembled_bytes"] += nbytes
        self.live_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        weakref.finalize(m.data, self._release, nbytes)

    def _release(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    def _run(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._calls += 1
            outer = self.call_id, self.phase
            self.call_id, self.phase = f"{os.getpid()}:{self._calls}", None
            try:
                return self._timed(RUN, fn)(*args, **kwargs)
            finally:
                self.call_id, self.phase = outer
        return wrapper

    def _phase(self, fn):
        @contextmanager
        def phase(timings, name):
            outer = self.phase
            self.phase = name
            t0 = time.perf_counter()
            try:
                with fn(timings, name):
                    yield
            finally:
                self.spans.append((f"cli.phase.{name}", t0, time.perf_counter(),
                                   outer, self.call_id))
                self.phase = outer
        return phase

    def _pool_task(self, fn):
        @functools.wraps(fn)
        def wrapper(item):
            # Runs in a forked pool worker: record this task on its own and
            # leave the spans inherited from the parent out of it.
            saved = self.spans, self.counts, self.live_bytes, self.peak_bytes
            self._reset()
            try:
                return fn(item)
            finally:
                self._spills += 1
                path = os.path.join(self.spill_dir,
                                    f"task-{os.getpid()}-{self._spills}.json")
                with open(path, "w") as fh:
                    json.dump(self._state(), fh)
                self.spans, self.counts, self.live_bytes, self.peak_bytes = saved
        return wrapper

    def _state(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "peak_bytes": self.peak_bytes}

    def collect_spills(self) -> None:
        """Merge the spill files pool workers wrote, then delete them."""
        for name in sorted(os.listdir(self.spill_dir)):
            if not name.startswith("task-"):
                continue
            path = os.path.join(self.spill_dir, name)
            with open(path) as fh:
                state = json.load(fh)
            os.remove(path)
            self.spans.extend(tuple(s) for s in state["spans"])
            self.counts.update(state["counts"])
            self.peak_bytes = max(self.peak_bytes, state["peak_bytes"])

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        after = {"rank_mod_p": self._after_rank}
        after.update({name: self._after_build for name in BUILDERS})
        for attr, span in TIMED.items():
            setattr(cli, attr, self._timed(span, getattr(cli, attr), after.get(attr)))
        cli.run_verification = self._run(cli.run_verification)
        cli._phase = self._phase(cli._phase)
        cli._verify_worker = self._pool_task(cli._verify_worker)
        for module in (geometry, correspondence, cosets):
            for attr in ACTIONS:
                if hasattr(module, attr):
                    setattr(module, attr, self._counted(getattr(module, attr)))

    # -- metrics -----------------------------------------------------------

    def metrics(self, main_spans: list[tuple[float, float]], jobs: int) -> dict:
        """Per-layer metrics of everything recorded, by name; main_spans are
        the (start, end) of each timed `cli.main` call."""
        total = Counter()
        calls = Counter()
        for name, t0, t1, _phase, _call in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
        c = self.counts
        rank_s = total["exact_linalg.rank_mod_p"]
        aux = c["exact_linalg.aux_calls"]
        out = {
            "exact_linalg.rank_mod_p_s": rank_s,
            "exact_linalg.rank_mod_p_calls": calls["exact_linalg.rank_mod_p"],
            "exact_linalg.elim_ops": c["exact_linalg.elim_ops"],
            "exact_linalg.elim_ops_per_s":
                c["exact_linalg.elim_ops"] / rank_s if rank_s else 0.0,
            "exact_linalg.aux_calls": aux,
            "exact_linalg.aux_useful_ratio":
                c["exact_linalg.aux_useful"] / aux if aux else 0.0,
            "exact_linalg.rank_exact_s": total["exact_linalg.rank_exact"],
            "exact_linalg.det_mod_p_s": total["exact_linalg.det_mod_p"],
            "correspondence.build_H_s_s": total["correspondence.build_H_s"],
            "correspondence.build_H_s_calls": calls["correspondence.build_H_s"],
            "correspondence.build_psi_s": total["correspondence.build_psi"],
            "correspondence.build_psi_plus_s": total["correspondence.build_psi_plus"],
            "correspondence.assembled_mb": c["correspondence.assembled_bytes"] / MB,
            "correspondence.peak_matrix_mb": self.peak_bytes / MB,
            "correspondence.equivariance_s": total["correspondence.equivariance"],
            "geometry.act_calls": c["geometry.act_calls"],
            "cosets.decompose_s": total["cosets.decompose"],
            "cosets.decompose_calls": calls["cosets.decompose"],
            "cosets.coset_operator_s": total["cosets.coset_operator"],
            "cosets.coset_operator_calls": calls["cosets.coset_operator"],
            "cosets.enumerate_subgroup_s": total["cosets.enumerate_subgroup"],
            "circulant.certificates_s": total["circulant.certificates"],
            "circulant.chart_conjugacy_s": total["circulant.chart_conjugacy"],
            "modular_arith.prime_context_s": total["modular_arith.prime_context"],
        }
        for phase in PHASES:
            out[f"cli.phase.{phase}_s"] = total[f"cli.phase.{phase}"]

        runs = [(t0, t1) for name, t0, t1, _p, _c in self.spans if name == RUN]
        main_wall = sum(t1 - t0 for t0, t1 in main_spans)
        busy = sum(t1 - t0 for t0, t1 in runs)
        covered = sum(_union_within(runs, t0, t1) for t0, t1 in main_spans)
        out["cli.overhead_s"] = main_wall - covered
        out["cli.worker_busy_s"] = busy
        out["cli.worker_utilisation"] = busy / (jobs * main_wall) if main_wall else 0.0
        out["cli.critical_path_s"] = max((t1 - t0 for t0, t1 in runs), default=0.0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "phase", "call_id"],
                       "spans": self.spans}, fh)


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    length, end = 0.0, lo
    for a, b in clipped:
        if b > end:
            length += b - max(a, end)
            end = b
    return length
