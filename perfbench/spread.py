#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed for each workload
asked for, then prints, per metric, the median, the quartiles and the
spread (interquartile distance as a share of the median, the way
`statistics.quantiles(values, n=4)` gives the quartiles) beside the
metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --workload serve-open --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trace 1   # every workload, traced

Each run's full output is written to .bench_out/spread/<workload>-<seed>-<trace>.txt.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace, seconds, log_dir):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    name = f"{workload}-{seed}-{trace}.txt"
    with open(os.path.join(log_dir, name), "w") as f:
        f.write(proc.stdout)
        f.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}; see {name}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log_dir = os.path.join(".bench_out", "spread")
    os.makedirs(log_dir, exist_ok=True)

    worst = 0.0
    for workload in workloads:
        results = []
        for seed in args.seeds:
            r = run_once(bench, workload, seed, args.trace, seconds, log_dir)
            ok = r["correct"] and r["failed"] == 0
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}"
                  f"/{r['attempted']}", file=sys.stderr)
            if not ok:
                print(f"  run was not correct; see {log_dir}", file=sys.stderr)
            results.append(r)
        print(f"\n{workload} ({len(results)} runs, trace={args.trace})")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else ("  > bound/3" if spread > bound / 3 else "")
            print(f"  {name:<36} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if args.trace == 0:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
