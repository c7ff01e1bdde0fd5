#!/usr/bin/env python3
"""A/A check: two alternated sets of runs of the same build.

    python3 perfbench/aa.py [--lanes merge,cluster] [--pairs 10]
                            [--seconds 36] [--first-seed 1]

Pair i runs set A and set B on seed first_seed + i, A first on even pairs
and B first on odd ones, so slow phases of the host land on both sets. For
every lane and metric it prints each set's median and quartiles (Python's
statistics.quantiles, n=4), the spread within each set (IQR / median) and
the gap between the two set medians as a share of set A's median. Against
BENCHMARK.json it flags, for every metric with a bound (setup_s too), a
spread above the bound or above a third of it, and a gap above the bound.
Lanes and run length default to BENCHMARK.json's.
Exit code 1 when any run failed its output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(lane, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               lane, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    parser.add_argument("--lanes", default=",".join(
        w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    failed = False
    for lane in args.lanes.split(","):
        sets = {"A": [], "B": []}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for name in order:
                result = run_once(lane, seed, args.seconds)
                if result is None or not result["correct"]:
                    print(f"{lane} seed {seed} set {name}: run failed")
                    failed = True
                    continue
                sets[name].append(result["metrics"])
                print(f"{lane} seed {seed} set {name}: " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
        if len(sets["A"]) < 2 or len(sets["B"]) < 2:
            continue
        print(f"\n{lane}: {len(sets['A'])} + {len(sets['B'])} runs")
        print(f"{'metric':28} {'A median':>12} {'A q1..q3':>23} "
              f"{'B median':>12} {'spread A':>9} {'spread B':>9} "
              f"{'gap':>8}")
        for metric in sets["A"][0]:
            a = [m[metric]["value"] for m in sets["A"]]
            b = [m[metric]["value"] for m in sets["B"]]
            a_med, a_q1, a_q3 = summarize(a)
            b_med, b_q1, b_q3 = summarize(b)
            spread_a = (a_q3 - a_q1) / a_med if a_med else 0.0
            spread_b = (b_q3 - b_q1) / b_med if b_med else 0.0
            gap = (b_med - a_med) / a_med if a_med else 0.0
            bound = bounds.get(metric)
            flags = ""
            if bound is not None:
                if max(spread_a, spread_b) > bound:
                    flags += " spread>bound"
                elif max(spread_a, spread_b) > bound / 3:
                    flags += " spread>bound/3"
                if abs(gap) > bound:
                    flags += " gap>bound"
            print(f"{metric:28} {a_med:12.4f} {a_q1:11.4f}..{a_q3:<11.4f} "
                  f"{b_med:12.4f} {spread_a:9.3f} {spread_b:9.3f} "
                  f"{gap:+8.3f}{flags}")
        print(flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
