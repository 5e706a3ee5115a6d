#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly on one build and prints,
for every metric, the median, the quartiles and the spread (interquartile
range as a share of the median) against the bound in BENCHMARK.json.

Run from the root of the repository:

    python3 perfbench/steady.py                        # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads serve-small --seeds 1-5
    python3 perfbench/steady.py --trace 1 --seeds 1    # per-layer metrics

Exits 1 if a run fails or reports incorrect output, or if a spread (other
than that of setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.time() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, took
    return json.loads(lines[-1]), took


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    bad = False
    for workload in workloads:
        values, shares = {}, []
        for seed in seeds:
            out, took = run_once(bench, workload, seed, args.trace)
            if out is None or not out["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect ({took:.0f}s)")
                bad = True
                continue
            shares.append(out["failed"] / out["attempted"])
            e2e = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items() if k in bounds)
            print(f"{workload} seed {seed}: {took:.0f}s, {out['attempted']} ops, {out['failed']} failed  {e2e}")
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {len(shares)} runs, failed shares {sorted(set(shares))}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag, bad = "  OVER BOUND", True
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b:>6}{flag}")
        print()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
