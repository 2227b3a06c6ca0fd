#!/usr/bin/env python3
"""Measures how steady the benchmark is, and re-measures its baseline.

Runs each workload in sets of runs, one seed per run, the sets taken one
after the other (so at different times), and prints for every end-to-end
metric the median and quartiles of each set, the spread (quartile distance
over the median) and the difference between the set medians. The bounds in
BENCHMARK.json are set from this output. With --traced it also runs the
traced variant once per seed and prints the medians of the per-layer
metrics and of the tracing overhead the traced runs report on each
end-to-end metric.

    python3 perfbench/steadiness.py --sets 2 --runs 10 --seconds 20
    python3 perfbench/steadiness.py --sets 1 --runs 5 --workloads explore
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """One benchmark run: its JSON result, its `counts` line and its
    `overhead` lines (traced runs only), as {metric: traced - untraced}."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    overhead = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "overhead":
            overhead[parts[1]] = (float(parts[2]), parts[3])
    counts = next((l for l in lines if l.startswith("counts ")), "")
    return json.loads(lines[-1]), counts, overhead


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="explore,ingest")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--bounds", default=os.path.join(ROOT, "BENCHMARK.json"),
                   help="BENCHMARK.json to compare spreads against")
    args = p.parse_args()

    bounds = {}
    if os.path.exists(args.bounds):
        with open(args.bounds) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    workloads = args.workloads.split(",")
    # sets[w][i] = list of (result, counts) of set i.
    sets = {w: [] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for r in range(args.runs):
                res, counts, _ = run(w, seed + r, args.seconds, 0)
                runs.append(res)
                print("set %d %s seed %d: attempted %d failed %d correct %s | %s"
                      % (s + 1, w, seed + r, res["attempted"], res["failed"],
                         res["correct"], counts), flush=True)
            sets[w].append(runs)
        seed += args.runs

    for w in workloads:
        print("\n== %s (%d sets x %d runs, %d s)" % (w, args.sets, args.runs, args.seconds))
        print("%-26s %12s %12s %12s %8s %8s %8s" % (
            "metric", "median", "q1", "q3", "spread", "diff", "bound"))
        names = list(sets[w][0][0]["metrics"].keys())
        for name in names:
            medians = []
            for i, runs in enumerate(sets[w]):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("nan")
                diff = (med - medians[0]) / medians[0] if i and medians[0] else 0.0
                print("%-26s %12.6g %12.6g %12.6g %8.3f %8.3f %8s  set %d" % (
                    name, med, q1, q3, spread, diff, bounds.get(name, "-"), i + 1))
        shares = ["%d/%d" % (r["failed"], r["attempted"]) for runs in sets[w] for r in runs]
        print("failed/attempted per run:", " ".join(shares))

    if args.traced:
        for w in workloads:
            traced = [run(w, args.first_seed + r, args.seconds, 1)
                      for r in range(args.runs)]
            print("\n== %s per-layer medians over %d traced runs" % (w, args.runs))
            for name, m in traced[0][0]["metrics"].items():
                vals = [t[0]["metrics"][name]["value"] for t in traced]
                print("%-36s %14.6g %s" % (name, statistics.median(vals), m["unit"]))
            print("\n== %s tracing overhead (traced - untraced), median over %d runs"
                  % (w, args.runs))
            for name, (_, unit) in traced[0][2].items():
                vals = [t[2][name][0] for t in traced]
                print("%-26s %+14.6g %s" % (name, statistics.median(vals), unit))


if __name__ == "__main__":
    main()
