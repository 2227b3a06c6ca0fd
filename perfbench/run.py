#!/usr/bin/env python3
"""Builds the end-to-end S2Server benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the first call configures and compiles the program's
libraries, later calls only relink what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. --selftest runs the answer-check tests instead of a workload.

--trace 1 runs the workload twice for --seconds/2 each, in two processes:
untraced, then traced. It prints the traced run's output, then one
`overhead <metric> <traced - untraced> <unit> <percent>` line per
end-to-end metric, then the traced run's JSON result (per-layer metrics),
correct only if both runs were.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    tree = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(tree, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", tree, "--target", "s2_perfbench", "oracle_test",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return tree


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    out = build_dir()
    tree = build(out)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(tree, "oracle_test")]).returncode)
    if not args.workload:
        sys.exit("perfbench: --workload is required")

    def run(seconds, trace):
        """One benchmark process; returns its exit code and standard output."""
        run_dir = os.path.join(out, "run", "%s-%d" % (args.workload, os.getpid()))
        cmd = [os.path.join(tree, "s2_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--run-dir", run_dir,
               "--trace-out", os.path.join(out, "trace-%s.jsonl" % args.workload)]
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return p.returncode, p.stdout

    if not args.trace:
        code, stdout = run(args.seconds, 0)
        sys.stdout.write(stdout)
        sys.exit(code)

    base_code, base_out = run(args.seconds / 2, 0)
    if base_code != 0:
        sys.stdout.write(base_out)
        sys.exit("perfbench: untraced run failed (exit %d)" % base_code)
    code, stdout = run(args.seconds / 2, 1)
    lines = stdout.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(stdout)
        sys.exit(code or 1)
    base = json.loads(base_out.splitlines()[-1])
    traced = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            traced[parts[1]] = float(parts[2])
    print("\n".join(lines[:-1]))
    for name, m in base["metrics"].items():
        diff = traced[name] - m["value"]
        pct = 100.0 * diff / m["value"] if m["value"] else 0.0
        print("overhead %s %.6g %s %+.1f%%" % (name, diff, m["unit"], pct))
    result = json.loads(lines[-1])
    result["correct"] = result["correct"] and base["correct"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
