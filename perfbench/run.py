#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload cold_corpus --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds the
library and the perfbench program from source into .bench_build/ (Release);
later runs only check that the build is up to date.  Build output goes to
stderr, so the last line of stdout is perfbench's JSON result.  The exit
code is perfbench's: 0 when every output was correct.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold_corpus", "cold_o1", "sim_heavy", "warm_restart")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "session.hpp")):
        sys.exit("run.py: library sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)
    work = os.path.join(ROOT, ".bench_build", "work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    result = subprocess.run([binary, "--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", args.trace, "--work-dir", work])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
