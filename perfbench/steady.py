#!/usr/bin/env python3
"""Runs one benchmark workload several times and reports how steady each
metric is: its median, quartiles and interquartile spread as a share of the
median, next to the bound BENCHMARK.json sets for it.

Run from the repository root:

    python3 perfbench/steady.py explore-uncached --runs 10
    python3 perfbench/steady.py news-stream --runs 10 --sets 2   # two interleaved sets
    python3 perfbench/steady.py index-build --runs 5 --overhead  # traced vs untraced

Seeds are --seed, --seed + 1, ... . With --sets 2 every seed runs twice,
alternating the two sets, and the medians of the sets are compared. With
--overhead every seed runs untraced and traced, and the end-to-end figures
the traced run prints are compared with the untraced run's.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"run failed ({p.returncode}): {' '.join(cmd)}\n{p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    env = " | ".join(l[5:] for l in p.stderr.splitlines() if l.startswith("env: "))
    traced = None
    for line in p.stderr.splitlines():
        if line.startswith("traced end-to-end: "):
            traced = json.loads(line[len("traced end-to-end: "):])
    for line in p.stderr.splitlines():
        if line.startswith("failed: "):
            print("   ", line, file=sys.stderr)
    return result, env, traced


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / abs(statistics.median(values))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--trace", action="store_true", help="report the per-layer metrics")
    ap.add_argument("--overhead", action="store_true", help="compare traced with untraced runs")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    specs = bench["per_layer"] if a.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in specs}

    sets = [[] for _ in range(a.sets)]
    overhead = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(a.runs):
        seed = a.seed + i
        order = range(a.sets) if i % 2 == 0 else reversed(range(a.sets))
        for s in order:
            result, env, _ = run_once(bench, a.workload, seed, seconds, a.trace)
            sets[s].append(result)
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6])
            print(f"set {s} seed {seed}: failed {result['failed']}/{result['attempted']} {shown}")
            print(f"    env: {env}")
        if a.overhead:
            plain = sets[0][-1]
            _, _, traced = run_once(bench, a.workload, seed, seconds, True)
            for name in overhead:
                overhead[name].append(traced[name]["value"] / plain["metrics"][name]["value"] - 1)

    print(f"\n{a.workload}: {a.runs} runs per set, {seconds} s each")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}" + ("  set1/set0" if a.sets == 2 else ""))
    for spec in specs:
        name = spec["name"]
        vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        med, q1, q3, sp = spread(vals[0])
        bound = bounds.get(name)
        line = f"{name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.3f} {bound if bound is not None else '':>6}"
        if a.sets == 2:
            change = statistics.median(vals[1]) / med - 1
            line += f"  {change:+.3f}"
        print(line)
    for s, runs in enumerate(sets):
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"set {s}: failed shares {shares}")
    if a.overhead:
        print("\ntracing overhead (traced / untraced - 1, median over seeds):")
        for name, diffs in overhead.items():
            print(f"  {name:32s} {statistics.median(diffs):+.3f}")


if __name__ == "__main__":
    main()
