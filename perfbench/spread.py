#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

    python3 perfbench/spread.py --workload gauss --seeds 1-10
    python3 perfbench/spread.py --workload gauss sort_forensics trie_serve --seeds 1-10

Runs perfbench/run.py once per seed (untraced, run_seconds from
BENCHMARK.json), one run at a time, and prints for every end-to-end metric the
median and the distance between the first and third quartile as a share of
the median, next to the metric's bound. A spread above a third of its bound
is flagged; setup_s is reported but has no spread limit. Exits 1 if any run
fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: incorrect result {result}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={result['metrics'][name]['value']:.6g}" for name in bounds),
                flush=True)
        print(f"\n{workload}: {len(values['setup_s'])} seeds")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
            print(f"  {name:18s} median {median:14.6g}  spread {spread:8.4f}  "
                  f"bound {bounds[name]:.3f}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
