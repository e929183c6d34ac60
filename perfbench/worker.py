"""One fresh benchmark process: import cartanmaps, make the workload's inputs,
and time `cartanmaps.cli.main` on them.

Started by run.py, never by hand.  Modes:
  setup    import and generate the inputs, then stop (a set-up sample);
  measure  repeat units of work until --seconds are used up, untraced;
  trace    make exactly one unit of work with the layer tracer installed.
The result is one JSON object on stdout.  `ready` is the moment set-up ended,
read from time.perf_counter(), whose clock (CLOCK_MONOTONIC) run.py shares.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import verdicts
import workloads

MAX_MESSAGES = 20


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _run_call(cli, call) -> tuple[float, int, str, float, float]:
    """Time one cli.main call; returns (seconds, exit code, stdout, start, end)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(call.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash counts as a failed verification, not a benchmark error
        traceback.print_exc()
        code = -1
    t1 = time.perf_counter()
    return t1 - t0, code, buf.getvalue(), t0, t1


def _check(call, code: int, output: str, reference: dict, tally: dict) -> None:
    """Compare every prime of one call with the reference; update the tally."""
    runs = {}
    try:
        for r in json.loads(output)["runs"]:
            runs[workloads.sweep_key(r["ell"])] = r
            runs[workloads.single_key(r["ell"], r["epsilon"], r["g"])] = r
    except (ValueError, KeyError, TypeError):
        pass
    for key in call.keys:
        tally["attempted"] += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif key not in reference:
            problem = "no reference verdict"
        elif key not in runs:
            problem = "missing from the report"
        else:
            try:
                diff = verdicts.differences(reference[key], verdicts.verdict(runs[key]))
            except (KeyError, TypeError) as exc:
                diff = [f"unreadable report field {exc}"]
            if diff:
                problem = "differs in " + ", ".join(diff)
        if problem:
            tally["failed"] += 1
            if len(tally["messages"]) < MAX_MESSAGES:
                tally["messages"].append(f"{' '.join(call.argv)} [{key}]: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    import numpy
    from cartanmaps import cli

    unit_iter = workloads.units(args.workload, args.seed)
    first_unit = next(unit_iter)
    with open(args.reference) as fh:
        reference = json.load(fh)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import EXACT_COUNTS, Tracer
        spill_dir = os.path.join(args.out_dir, f"spill-{os.getpid()}")
        os.makedirs(spill_dir, exist_ok=True)
        tracer = Tracer(spill_dir)
        tracer.install()

    tally = {"attempted": 0, "failed": 0, "messages": []}
    units, call_s, main_spans = [], [], []
    unit = first_unit
    while True:
        started = time.perf_counter()
        cpu0 = _cpu_s()
        outputs = [_run_call(cli, call) for call in unit]
        cpu = _cpu_s() - cpu0
        units.append({"wall_s": sum(o[0] for o in outputs), "cpu_s": cpu,
                      "calls": len(unit)})
        call_s += [o[0] for o in outputs]
        main_spans += [(o[3], o[4]) for o in outputs]
        for call, (_, code, text, _, _) in zip(unit, outputs):
            _check(call, code, text, reference, tally)
        now = time.perf_counter()
        if tracer is not None or (now - ready) + (now - started) > args.seconds:
            break
        unit = next(unit_iter)

    result.update(units=units, call_s=call_s, attempted=tally["attempted"],
                  failed=tally["failed"], failures=tally["messages"],
                  peak_rss_mb=_peak_rss_mb(), environment=_environment(numpy))
    if tracer is not None:
        tracer.collect_spills()
        os.rmdir(spill_dir)
        jobs = workloads.WORKLOADS[args.workload]
        layers = tracer.metrics(main_spans, jobs)
        result["layers"] = layers
        result["exact_counts"] = {name: layers[name] for name in EXACT_COUNTS}
        spans_path = os.path.join(args.out_dir,
                                  f"{args.workload}-seed{args.seed}-spans.json")
        tracer.dump(spans_path)
        result["spans_file"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
