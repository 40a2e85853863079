#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload socket-rw --seed 1 --seconds 8 --trace 0

The first run configures and builds perfbench/ (which compiles the tbr
library from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs only
re-check the build. Build output goes to stderr. The perfbench binary prints
the result JSON as the last line of stdout; this script passes its output
and exit code through.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("socket-rw", "kv-zipf", "sim-crash-rejoin")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    def step(cmd):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        return proc.returncode == 0

    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not step(["cmake", "--build", out_dir, "-j", jobs]):
        return None
    binary = os.path.join(out_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(out_dir, "traces")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
