"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--workload W ...] [--seed N]

Run from the root of a checkout.  For each workload (all by default):

1. Altered reference: one verdict value in a copy of reference.json is
   changed; a run against that copy must report failed > 0 (a failed_share
   above 0) and correct = false, while the run against the real reference
   reports failed = 0.
2. Exact counts: two traced runs of the same seed must give identical
   values for every count in tracer.EXACT_COUNTS; a count that differs is a
   benchmark bug.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# One value per reference key family; every run of the workload checks it.
ALTERED = {"small-primes": workloads.single_key(3, 2, 2),
           "desk-sweep": workloads.sweep_key(3),
           "desk-sweep-jobs2": workloads.sweep_key(3)}


def _run(workload: str, seed: int, trace: int, reference: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if reference:
        cmd += ["--reference", reference]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        result["record"] = json.load(fh)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(".perfbench_out", exist_ok=True)
    ok = True
    for name in names:
        altered = copy.deepcopy(reference)
        altered[ALTERED[name]]["theorem1"]["rank"] += 1
        altered_path = os.path.abspath(os.path.join(".perfbench_out",
                                                    "altered-reference.json"))
        with open(altered_path, "w") as fh:
            json.dump(altered, fh)
        good = _run(name, args.seed, 0)
        bad = _run(name, args.seed, 0, altered_path)
        share = bad["record"]["failed_share"]
        passed = (good["correct"] and good["failed"] == 0
                  and not bad["correct"] and bad["failed"] > 0 and share > 0)
        print(f"{name}: reference failed={good['failed']}; altered reference "
              f"failed={bad['failed']} of {bad['attempted']} "
              f"(failed_share {share:.3f}) -> {'ok' if passed else 'FAIL'}")
        ok &= passed

        first = _run(name, args.seed, 1)["record"]["extra"]["exact_counts"]
        second = _run(name, args.seed, 1)["record"]["extra"]["exact_counts"]
        differing = sorted(k for k in first if first[k] != second.get(k))
        print(f"{name}: exact counts {json.dumps(first)} -> "
              f"{'identical' if not differing else 'DIFFER in ' + ', '.join(differing)}")
        ok &= not differing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
