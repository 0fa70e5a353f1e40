#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports, for each metric, the median
and the quartile spread (q3 - q1) / median over the runs — the steadiness
measure the benchmark's bounds are judged against.

    python3 perfbench/spread.py --workload selfplay-net --seeds 1-10 [--trace 0]
                                [--save runs.json]

--workload all runs every workload of BENCHMARK.json in turn. Run lengths
come from BENCHMARK.json (run_seconds).
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
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])
    seeds = parse_seeds(args.seeds)
    saved = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        saved[workload] = runs
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':34s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            spread = 0.0
            if len(values) >= 2 and mid != 0:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / mid
            bound = bounds.get(name)
            print(f"  {name:34s} {mid:14.6f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}")
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
