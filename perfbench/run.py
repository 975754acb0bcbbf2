#!/usr/bin/env python3
"""Build and run the dnastore benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N|default|held-out]
                             [--seconds S] [--trace 0|1]

Builds perfbench/ (and the library from src/) into .bench_build/ at the
root of the checkout, then runs one workload, or every workload in turn
with --workload all. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every output check passed and no op failed; a build failure
exits 2 without printing a result. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Default seed per workload, and one held-out seed kept for rechecking a
# claimed gain on inputs nobody tuned against.
WORKLOADS = {
    "archive-roundtrip": {"default": 1, "held-out": 90001},
    "lab-clustered": {"default": 1, "held-out": 90002},
    "daemon-mixed": {"default": 1, "held-out": 90003},
}


def build():
    """Configure (once) and build the benchmark; False on failure."""
    out = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, result dict or None)."""
    work = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", work]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * seconds + 120)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in time" % workload, file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + sorted(WORKLOADS))
    ap.add_argument("--seed", default="default",
                    help="an integer, 'default' or 'held-out'")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        seed = args.seed
        seed = WORKLOADS[name][seed] if seed in WORKLOADS[name] else int(seed)
        rc, result = run_workload(binary, name, seed, args.seconds, args.trace)
        if result is None:
            return rc
        if len(names) == 1:
            print(json.dumps(result))
            return rc
        print("%s %s" % (name, json.dumps(result)))
        code = code or rc
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(total))
    return code


if __name__ == "__main__":
    sys.exit(main())
