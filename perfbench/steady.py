#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload repeatedly, each run with another seed and for
BENCHMARK.json's run_seconds, the way the benchmark is meant to be
run, and prints for every metric its median, quartiles, interquartile
spread and full range (both as a share of the median), next to the
metric's bound. With --sets 2 it makes a second set of runs with other
seeds and prints how far each median moved from the first set's.
Also checks that every run was correct and that the share of failed
operations is the same in every run of a workload.

Run from the repository root:

    python3 perfbench/steady.py                   # 10 runs per workload
    python3 perfbench/steady.py --sets 2          # and a second set
    python3 perfbench/steady.py --runs 5 --trace 1   # per-layer metrics

Exit code 0 when every end-to-end interquartile spread is within its
bound, every median of a later set is within the bound of the first
set's (worse by no more than the bound), the runs were correct and the
failed shares agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def run_set(bench, workload, seeds, trace, metrics):
    """Runs one set; returns each metric's values and the failed shares."""
    values = {}
    shares = set()
    walls = []
    ok = True
    for seed in seeds:
        result, wall = run_once(bench["command"], workload, seed,
                                bench["run_seconds"], trace)
        walls.append(wall)
        if not result["correct"]:
            print(f"{workload} seed {seed}: correct is false")
            ok = False
        shares.add((result["failed"], result["attempted"]))
        if set(result["metrics"]) != set(metrics):
            print(f"{workload}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ set(metrics))}")
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"\n{workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
          f"{bench['run_seconds']} s each, process wall "
          f"{min(walls):.1f}-{max(walls):.1f} s, "
          f"failed/attempted {sorted(shares)}")
    return values, {f / a for f, a in shares}, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: m for m in listed}

    steady = True
    firsts = {}
    for s in range(args.sets):
        for workload in [w["name"] for w in bench["workloads"]]:
            first = args.first_seed + s * args.runs
            seeds = list(range(first, first + args.runs))
            values, fractions, ok = run_set(bench, workload, seeds,
                                            args.trace, metrics)
            steady &= ok
            if s == 0:
                firsts[workload] = (values, fractions)
            elif fractions != firsts[workload][1]:
                print(f"  failed share differs from set 1: "
                      f"{sorted(fractions)} vs {sorted(firsts[workload][1])}")
                steady = False
            if len(fractions) > 1:
                print(f"  failed share differs between runs: {sorted(fractions)}")
                steady = False
            print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}"
                  + (f" {'vs set 1':>9}" if s else ""))
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = (statistics.quantiles(vals, n=4)
                             if len(vals) > 1 else (med, med, med))
                iqr = (q3 - q1) / med if med else 0.0
                spread = (max(vals) - min(vals)) / med if med else 0.0
                bound = metrics[name].get("bound")
                flags = []
                if bound is not None:
                    if iqr > bound:
                        flags.append("IQR OVER BOUND")
                        steady = False
                    elif iqr > bound / 3:
                        flags.append("iqr over bound/3")
                moved = ""
                if s:
                    before = statistics.median(firsts[workload][0][name])
                    shift = (med - before) / before if before else 0.0
                    moved = f" {shift:+9.4f}"
                    worse = -shift if metrics[name]["better"] == "higher" else shift
                    if bound is not None and worse > bound:
                        flags.append("MEDIAN MOVED OVER BOUND")
                        steady = False
                print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{iqr:8.4f} {spread:9.4f} "
                      f"{bound if bound is not None else '-':>6}{moved}"
                      + "".join(f"  {f}" for f in flags))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
