#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median, the
way the acceptance check computes them.  Run from the checkout root:

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")
    print("| workload | metric | median | spread | bound |")
    print("|---|---|---|---|---|")
    worst = 0.0
    for name in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, run_py, "--workload", name, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not doc["correct"]:
                print("%s seed %d: failed %s" % (name, seed, doc),
                      file=sys.stderr)
            for metric, v in doc["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            print("%s %s: %s" % (name, metric,
                                 " ".join("%.4g" % v for v in vals)),
                  file=sys.stderr)
            if metric != "setup_s":
                worst = max(worst, spread / bounds[metric])
            print("| %s | %s | %.4g | %.3f | %.2f |"
                  % (name, metric, med, spread, bounds[metric]), flush=True)
    print("\nworst spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
