#!/usr/bin/env python3
"""Compare two sets of benchmark runs and flag regressions.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py --self-test

BASE_DIR and NEW_DIR hold result lines as sweep.py saves them
(DIR/<workload>/seed-<n>.json), from the parent commit and from the
change, made with the same benchmark.  Both must hold every workload
of BENCHMARK.json with the same seeds, and every parent run must pass
its checks; otherwise the input is unusable.  For every workload and
every end-to-end metric in BENCHMARK.json, the change's median may be
worse than the parent's by at most the metric's bound.  Whether higher or
lower is better is read from the metric's declared "better" field, never
from its name.  Where the parent's own spread (quartile distance over
median) is wider than the bound, a worse median is reported as
unresolved unless every run of the change is worse than every run of
the parent.  A change run with a failed check, or one that crashed
(sweep.py's failure record), is a regression.  latency_p50_ms is not
gated on the batch workloads, where it is the pass wall time and so
only throughput_per_s again.

Exits 0 when nothing regressed, 1 on a regression, 2 on unusable input.
"""

import glob
import json
import os
import statistics
import sys

# Metrics that are not gated on a workload.  A batch workload returns
# every item of a pass at once, so its latency_p50_ms is the pass wall
# time, 1000 * items / throughput_per_s: gating both would count one
# slowdown twice.  Only serve-mixed measures a per-request latency.
DERIVED = {w: {"latency_p50_ms"} for w in ("classify-cold", "classify-warm", "chaos-replay")}


def load(directory):
    """{workload: {seed: result}} from DIR/<workload>/seed-<n>.json."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*", "seed-*.json"))):
        seed = os.path.basename(path)[len("seed-"):-len(".json")]
        with open(path) as f:
            runs.setdefault(os.path.basename(os.path.dirname(path)), {})[seed] = json.load(f)
    return runs


def passed(run):
    return run["correct"] and not run["failed"]


def coverage(spec, base, new):
    """Why the two sets of runs cannot be compared; empty when they can."""
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base:
            problems.append(f"{workload}: no runs of the parent")
        elif workload not in new:
            problems.append(f"{workload}: no runs of the change")
        elif set(base[workload]) != set(new[workload]):
            problems.append(f"{workload}: the parent ran seeds {sorted(base[workload])}, "
                            f"the change {sorted(new[workload])}")
        elif not all(passed(r) for r in base[workload].values()):
            problems.append(f"{workload}: a run of the parent failed")
    return problems


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, base, new):
    """How much worse [new] is than [base], as a share of [base]; negative when better."""
    change = (new - base) / base
    if metric["better"] == "lower":
        return change
    if metric["better"] == "higher":
        return -change
    raise ValueError(f"{metric['name']}: better must be 'higher' or 'lower'")


def verdict(metric, base_values, new_values):
    worse = worse_by(metric, statistics.median(base_values), statistics.median(new_values))
    if worse <= 0:
        return worse, "better"
    if worse <= metric["bound"]:
        return worse, "ok"
    every_run_worse = all(worse_by(metric, b, n) > 0 for b in base_values for n in new_values)
    if spread(base_values) > metric["bound"] and not every_run_worse:
        return worse, "unresolved"
    return worse, "REGRESSION"


def compare(spec, base, new):
    """Rows (workload, metric, base median, new median, worse_by, verdict), and whether any
    regressed.  [base] and [new] must have passed [coverage]."""
    rows, regressed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        good = [r for r in new[workload].values() if passed(r)]
        if len(good) < len(new[workload]):
            rows.append((workload, "checks", None, None, None, "REGRESSION"))
            regressed = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not good or name in DERIVED.get(workload, ()):
                continue
            b = [r["metrics"][name]["value"] for r in base[workload].values()]
            n = [r["metrics"][name]["value"] for r in good]
            worse, v = verdict(metric, b, n)
            rows.append((workload, name, statistics.median(b), statistics.median(n), worse, v))
            regressed = regressed or v == "REGRESSION"
    return rows, regressed


def self_test():
    spec = {"workloads": [{"name": "w"}, {"name": "chaos-replay"}], "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}

    def run(rate, latency):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "throughput_per_s": {"value": rate, "unit": "1/s"},
            "latency_p50_ms": {"value": latency, "unit": "ms"}}}

    def runs(rate, latency, batch_latency=10.0):
        return {w: {str(seed): run(rate * k, lat * k) for seed, k in ((1, 0.99), (2, 1.0), (3, 1.01))}
                for w, lat in (("w", latency), ("chaos-replay", batch_latency))}

    crashed = runs(1000.0, 10.0)
    crashed["w"]["2"] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    missing = runs(1000.0, 10.0)
    del missing["chaos-replay"]
    reseeded = runs(1000.0, 10.0)
    reseeded["w"]["4"] = reseeded["w"].pop("3")

    base = runs(1000.0, 10.0)
    cases = [("faster on both", runs(1500.0, 6.0), False),
             ("throughput collapses", runs(500.0, 10.0), True),
             ("latency doubles", runs(1000.0, 20.0), True),
             ("within the bounds", runs(950.0, 10.5), False),
             ("a batch latency is not gated", runs(1000.0, 10.0, batch_latency=20.0), False),
             ("one seed crashed", crashed, True)]
    failures = [name for name, new, expect in cases
                if coverage(spec, base, new) or compare(spec, base, new)[1] != expect]
    failures += [name for name, new in (("a workload is missing", missing),
                                        ("the seeds differ", reseeded))
                 if not coverage(spec, base, new)]
    for name in failures:
        print(f"compare self-test: wrong verdict for '{name}'", file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    base, new = load(argv[0]), load(argv[1])
    problems = coverage(spec, base, new)
    if problems:
        for p in problems:
            print(f"compare: {p}", file=sys.stderr)
        return 2
    rows, regressed = compare(spec, base, new)
    for workload, name, b, n, worse, v in rows:
        if b is None:
            print(f"{workload:<14} {name:<18} a run of the change failed or crashed  {v}")
        else:
            print(f"{workload:<14} {name:<18} {b:>14.6g} -> {n:<14.6g} worse by {worse:+.3f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
