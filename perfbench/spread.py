#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload, runs the command from BENCHMARK.json once per seed
(one run at a time, so runs do not compete for the cores), reads the
result line, and prints each metric's median and its spread: the
distance between the first and third quartiles of the runs, as
`statistics.quantiles(values, n=4)` gives them, as a share of the
median. An end-to-end metric is steady when its spread is below a third
of its bound.

    python3 perfbench/spread.py                       # 10 seeds, every workload
    python3 perfbench/spread.py --workload isa_jobs --runs 5
    python3 perfbench/spread.py --trace 1 --runs 3    # per-layer metrics

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            result, wall = run_once(bench["command"], workload, seed, opts.seconds, opts.trace)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {opts.runs} runs of {opts.seconds} s, "
              f"wall {min(walls):.1f}..{max(walls):.1f} s per run")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            line = f"  {m['name']:<42} median {med:<14.6g} spread {spread:7.2%}"
            if "bound" in m:
                steady = spread < m["bound"] / 3
                line += f"  bound {m['bound']:.0%}  {'ok' if steady else 'WIDE'}"
                if m["name"] != "setup_s":
                    worst = max(worst, spread / m["bound"])
            print(line)
    if not opts.trace:
        print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
