#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs every workload ten times per set, each run with its own seed (1-10 in
set 1, 11-20 in set 2), interleaving the workloads so machine drift hits
them alike. For each end-to-end metric it prints, per set, the median and
the spread (distance between the first and third quartile as a share of
the median, from statistics.quantiles(values, n=4)), and how much worse set
2's median is than set 1's, both against the metric's bound. Then it runs
each workload once traced and prints the tracing overhead it reports.

Usage, from the repository root:
    python3 perfbench/steadiness.py
"""

import json
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(args)} reported incorrect output")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
          flush=True)
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    seed = 1
    for _ in range(SETS):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for _ in range(RUNS):
            for w in workloads:
                got = run(bench["command"], w, seed, bench["run_seconds"], False)
                for m in metrics:
                    values[w][m["name"]].append(got[m["name"]])
            seed += 1
        sets.append(values)

    worst = 0.0
    for w in workloads:
        print(f"\n{w}: {RUNS} runs per set")
        print(f"  {'metric':<16} {'bound':>6} " +
              " ".join(f"{'median' + str(i + 1):>14} {'spread':>7}" for i in range(SETS)) +
              "   shift")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = statistics.median(sets[0][w][name])
            cols = []
            for values in sets:
                v = values[w][name]
                cols.append(f"{statistics.median(v):>14.6g} {spread(v):>7.2%}")
                worst = max(worst, spread(v) / bound)
            shift = worse_by(first, statistics.median(sets[-1][w][name]), m["better"])
            worst = max(worst, shift / bound)
            print(f"  {name:<16} {bound:>6.2f} " + " ".join(cols) + f"   {shift:>7.2%}")
    print(f"\nlargest spread or shift as a share of its bound: {worst:.2f}")

    print("\ntracing overhead (1 - traced/untraced ops per second):")
    for w in workloads:
        got = run(bench["command"], w, 1, bench["run_seconds"], True)
        print(f"  {w:<14} {got['trace.overhead_share']:+.2%}"
              f"  span coverage {got['trace.span_coverage']:.2%}")


if __name__ == "__main__":
    main()
