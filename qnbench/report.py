"""Run every workload, each in a fresh process, and print its metrics.

    python3 qnbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Prints one line per metric with its name, value and unit, plus each
workload's error rate; exits non-zero if any request failed its check.
Result documents land in qnbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for w in spec["workloads"]:
        out = subprocess.run(
            [sys.executable, "qnbench/run.py", "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = out.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        ok = ok and json.loads(last)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
