#!/usr/bin/env python3
"""gopt end-to-end benchmark: builds the driver from source and runs one
workload (or all three) for a fixed time.

Usage (from the repository root):
  python3 perfbench/run.py --workload ic_serve|bi_dist|adhoc_plan|all
                           [--seed N] [--seconds S] [--trace 0|1]
                           [--out results.jsonl]

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (which also writes the
spans as Chrome trace JSON under the build directory). With --workload all
the three workloads run one after another and the last line nests their
results by workload. --out appends each result, tagged with its workload
and seed, to a JSON-lines file that perfbench/compare.py reads.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) inside
the checkout; the first run compiles the library, later runs reuse it.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ic_serve", "bi_dist", "adhoc_plan"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def fail(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; returns the binary path.
    Build output goes to stderr so stdout stays the benchmark's own."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("no gopt sources under %s/src: run from a full checkout" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "gopt_perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(binary, workload, seed, seconds, trace):
    """Runs the driver once; echoes its report lines and returns the
    parsed result object (its last stdout line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit()]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append results to this JSON-lines file")
    args = ap.parse_args()

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_one(binary, name, args.seed, args.seconds,
                                args.trace)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": name, "seed": args.seed,
                                    "trace": args.trace,
                                    "result": results[name]}) + "\n")
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
