"""Run-to-run spread of the end-to-end metrics over a set of seeds.

    python3 qnbench/stability.py [--workload NAME ...] [--seeds 401-410]
                                 [--seconds S] [--out FILE]

Runs each workload once per seed, each run in a fresh process, and prints
per metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
--out writes the same numbers as JSON, in the form baseline.json keeps.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list, bound: float, unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "unit": unit,
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default="401-410")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}
    doc = {}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values, walls, failed = {m: [] for m in bounds}, [], 0
        for seed in args.seeds:
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, "qnbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        stats = {m: summary(v, *bounds[m]) for m, v in values.items()}
        doc[name] = {"seeds": args.seeds, "failed": failed,
                     "run_wall_s": walls, "end_to_end": stats}
        print(f"{name}: {len(args.seeds)} runs, {failed} failed requests, "
              f"longest run {max(walls):.1f} s", flush=True)
        for m, s in stats.items():
            print(f"  {m:16s} median {s['median']:.6g} {s['unit']:4s} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
