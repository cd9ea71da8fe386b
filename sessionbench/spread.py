#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each workload and
prints, per metric, the median of the runs and their interquartile range
as a share of that median, next to the metric's bound. Run it from the
repository root:

    python3 sessionbench/spread.py --runs 10 [--workloads inspect,fabric-acl]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    for line in lines[:-1]:
        if line.startswith(("diagnostics:", "rounds:")):
            print(f"  {workload} seed {seed}: {line}", flush=True)
    return json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in a.workloads.split(","):
        runs = [run_once(bench["command"], workload, a.first_seed + i, a.seconds)
                for i in range(a.runs)]
        print(f"{workload}: {a.runs} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over 1/3")
            print(f"  {name:22s} median {med:12.4f}  iqr/median {spread:7.4f}  "
                  f"bound {bound:5.3f}  {flag}")
    print(f"widest spread is {worst:.2f} of its bound (setup_s excluded)")


if __name__ == "__main__":
    main()
