"""Benchmark `cartanmaps verify` on one workload and print its metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`
with BLAS threads pinned to 1, in a fresh process per measurement.

--trace 0  reports the end-to-end metrics.  Seven set-up samples (fresh
           processes that import the package and generate the inputs) give
           setup_s; one process then repeats units of work for --seconds.
--trace 1  reports the per-layer metrics.  One untraced process runs as for
           --trace 0, then one traced process makes exactly one unit of work.
           Per-layer times serve attribution only; trace.overhead_s is the
           traced unit's wall time minus the untraced median.

Every verdict is checked against perfbench/reference.json.  One line per
metric (name, value, unit) is printed, then, as the last line, a JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Raw results and the
environment go to .perfbench_out/ in the checkout.  Exits non-zero, without a
result, when the program cannot be found or a measurement process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 7
BUDGET_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["CARTAN_LOG"] = "warning"
    return env


class Runner:
    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.env = _child_env(root)
        self.out_dir = os.path.join(root, ".perfbench_out")
        self.deadline = time.monotonic() + BUDGET_S

    def spawn(self, mode: str) -> tuple[float, dict]:
        """Run one worker process; returns (set-up seconds, its result)."""
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--mode", mode,
               "--reference", a.reference, "--out-dir", self.out_dir]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget used up before the run finished")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} process exceeded the time budget") from None
        finally:
            # pool workers of a killed process share its session: end them too
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} process printed no result")
        result = json.loads(lines[-1])
        return result["ready"] - t0, result


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the slowest sample when there are ten or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _git_commit(root: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(runner: Runner) -> tuple[dict, dict, list]:
    runner.spawn("setup")  # compiles bytecode; users pay that once, so not timed
    setups = [runner.spawn("setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, res = runner.spawn("measure")
    setups.append(setup)
    tail, pct = _tail(res["call_s"])
    metrics = {
        "wall_s": statistics.median(u["wall_s"] for u in res["units"]),
        "cpu_s": statistics.median(u["cpu_s"] for u in res["units"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "call_p50_ms": 1000.0 * statistics.median(res["call_s"]),
        "call_tail_ms": 1000.0 * tail,
    }
    extra = {"units": len(res["units"]), "calls": len(res["call_s"]),
             "call_tail_percentile": pct, "setup_samples_s": setups}
    return metrics, extra, [res]


def per_layer(runner: Runner) -> tuple[dict, dict, list]:
    _, plain = runner.spawn("measure")
    _, traced = runner.spawn("trace")
    base = statistics.median(u["wall_s"] for u in plain["units"])
    overhead = traced["units"][0]["wall_s"] - base
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / base
    extra = {"untraced_units": len(plain["units"]), "untraced_wall_s": base,
             "traced_wall_s": traced["units"][0]["wall_s"],
             "exact_counts": traced["exact_counts"],
             "spans_file": os.path.relpath(traced["spans_file"], runner.root)}
    return metrics, extra, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="reference verdicts (the self-test passes an altered copy)")
    args = ap.parse_args(argv)
    args.reference = os.path.abspath(args.reference)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "cartanmaps", "cli.py")):
        print("error: no cartanmaps sources under ./src; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    runner = Runner(root, args)
    os.makedirs(runner.out_dir, exist_ok=True)
    load = os.getloadavg()
    try:
        metrics, extra, results = (per_layer if args.trace else end_to_end)(runner)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [msg for r in results for msg in r["failures"]]
    environment = dict(results[0]["environment"],
                       thread_env={k: runner.env[k] for k in THREAD_ENV},
                       loadavg_at_start=list(load),
                       jobs=workloads.WORKLOADS[args.workload],
                       git_commit=_git_commit(root))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
        "failed_share": failed / attempted if attempted else 1.0,
        "attempted": attempted, "failed": failed, "failures": failures,
        "extra": extra,
        "units": [r["units"] for r in results],
    }
    path = os.path.join(runner.out_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in failures:
        print(f"FAILED {msg}")
    for name in wanted:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"failed_share {record['failed_share']:.6g} ratio "
          f"({failed} of {attempted} per-prime verifications)")
    for key, value in extra.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# results: {os.path.relpath(path, root)}")
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
