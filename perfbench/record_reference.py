"""Record the reference verdicts the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every distinct input any workload seed can generate (the sweep, and each
small prime with each of its non-squares and primitive roots) and writes the
verdicts to perfbench/reference.json.  The file in the repository was recorded
from the commit that introduced the benchmark; re-record it only when a
verdict is meant to change, and say why in the change that does so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import verdicts  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from cartanmaps import cli

    reference = {}
    for call in workloads.all_reference_calls():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(call.argv))
        if code != 0:
            print(f"error: {' '.join(call.argv)} exited with {code}", file=sys.stderr)
            return 1
        for run in json.loads(buf.getvalue())["runs"]:
            for key in (workloads.sweep_key(run["ell"]),
                        workloads.single_key(run["ell"], run["epsilon"], run["g"])):
                if key in call.keys:
                    reference[key] = verdicts.verdict(run)
    lines = [f" {json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}"
             for key in sorted(reference)]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(reference)} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
