#!/usr/bin/env python3
"""End-to-end synthesis benchmark: build, self-test, run one workload.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload adult-seq --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark binaries from the checkout's sources
into .bench_build/e2ebench (Release), runs the checks' self-test, then runs
the workload in its own process and relays its output. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Traced runs (--trace 1) also leave
.bench_build/e2ebench-out/<workload>-seed<N>.trace.json (Chrome trace
events) and .layers.tsv (the per-layer table).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "e2ebench")
OUT = os.path.join(BUILD_ROOT, "e2ebench-out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kamino", "service", "engine.h")):
        fail("kamino sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD, "e2e_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("the output checks failed their self-test")

    os.makedirs(OUT, exist_ok=True)
    spill_dir = os.path.join(BUILD_ROOT, "e2ebench-spill", str(os.getpid()))
    shutil.rmtree(spill_dir, ignore_errors=True)
    cmd = [os.path.join(BUILD, "e2e_workload"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill_dir,
           "--trace-out", os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("workload exited with code %d" % proc.returncode)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
