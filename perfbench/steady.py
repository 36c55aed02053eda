#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--held-out-seed 9001] [--trace 0] [--json out.json]

Each run is one `perfbench/run.py` invocation with its own seed (first-seed,
first-seed+1, ...).  For every metric the report gives the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
relative spread (q3 - q1) / median.  With --trace 0 each spread is compared
with its bound from BENCHMARK.json: a spread below a third of the bound is
"ok", below the bound "wide", above it "TOO WIDE" (setup_s is reported but
not judged; only its median is bounded).  --held-out-seed adds one more run
on a seed not used while tuning, reported apart from the statistics.
Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s"
                 % (workload, seed, out.returncode, out.stdout))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: incorrect output\n%s" % (workload, seed, out.stdout))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    everything = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in runs[-1]["metrics"].items())),
                flush=True)
        everything[workload] = {"runs": [r["metrics"] for r in runs]}
        print("\n%s: %d runs" % (workload, len(runs)))
        print("  %-26s %12s %12s %12s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s" and args.trace == 0:
                verdict = ("ok" if spread < bound / 3 else
                           "wide" if spread <= bound else "TOO WIDE")
            print("  %-26s %12.6g %12.6g %12.6g %8.4f %8s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, verdict))
        if args.held_out_seed is not None:
            held = run_once(workload, args.held_out_seed, args.seconds, args.trace)
            everything[workload]["held_out"] = held["metrics"]
            print("  held-out seed %d: %s" % (args.held_out_seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in held["metrics"].items())))
        print(flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()
