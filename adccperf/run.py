#!/usr/bin/env python3
"""Build and run the adccperf benchmark for one workload.

Usage, from the root of a source tree:

    python3 adccperf/run.py --workload cg-bulk --seed 1 --seconds 20 --trace 0

Builds adccperf/ (with the program's sources from src/) into .bench_build/
on first use, runs one workload in its own process and prints the process's
result as the last line of standard output: one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 reports the per-layer
metrics instead and writes the span file to .bench_build/spans/. The exit code
is non-zero when the build fails, any scenario fails verify or raises, or a
traced run does not reproduce its untraced twin.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "adccperf")
BINARY = os.path.join(BUILD, "adccperf")
WORKLOADS = ("cg-bulk", "mm-abft", "mc-fine")
BUILD_JOBS = "4"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds once; a lock keeps concurrent first runs apart."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "scenario.hpp")):
        raise RuntimeError(f"program sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", BUILD_JOBS],
                       check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd.append(f"--spans={os.path.join(spans, f'{args.workload}-seed{args.seed}.tsv')}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from adccperf (exit {proc.returncode})")
        return proc.returncode or 2
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
