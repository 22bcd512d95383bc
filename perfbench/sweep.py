#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out DIR]

Runs perfbench/run.py once per workload and seed, from the root of a
checkout, and saves each result line as DIR/<workload>/seed-<n>.json
(DIR defaults to .bench_work/sweep) for compare.py.  For every
end-to-end metric it prints the median over the seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound in
BENCHMARK.json, and flags a wider spread.  A run that exits non-zero
is saved as a failure record (correct false, no metrics).  Exits 1 if
a run fails or reports a failed check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", default=os.path.join(".bench_work", "sweep"))
    args = ap.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        os.makedirs(os.path.join(args.out, workload), exist_ok=True)
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", args.trace],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                # a failure record, so that compare.py sees the run fail
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                          "exit": proc.returncode}
            else:
                result = json.loads(lines[-1])
            with open(os.path.join(args.out, workload, f"seed-{seed}.json"), "w") as f:
                f.write(json.dumps(result) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed",
                      file=sys.stderr)
                ok = False
                continue
            runs.append(result)
        if args.trace == "1" or len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            flag = "" if s < m["bound"] / 3 else "  WIDE"
            print(f"  {m['name']:<18} median {statistics.median(values):>14.6g} {m['unit']:<4}"
                  f" spread {s:.4f} (bound/3 {m['bound'] / 3:.4f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
