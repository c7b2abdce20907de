#!/usr/bin/env python3
"""Measures rfpbench's run-to-run spread, the evidence behind each bound.

Run from the repository root:

    python3 bench/calibrate.py --seeds 0-9 --sets 2 --out bench/results/calibration-<date>.json

Every set runs every workload once per seed, each in a fresh process
through bench/run.sh. Per set, workload and end-to-end metric it records
the values, their median and quartiles (statistics.quantiles with n=4) and
the spread: the interquartile distance as a share of the median. With two
sets it also records how far the second median moved from the first. A
bound holds when every spread but setup_s's stays below a third of it and
no median moves by more than it.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    sets = []
    for s in range(args.sets):
        per = {}
        for w in workloads:
            runs = []
            for seed in seeds:
                runs.append(run(w, seed, seconds))
                print(f"set {s + 1} {w} seed {seed}: {runs[-1]}", flush=True)
            per[w] = {m: summarize([r[m] for r in runs]) for m in bounds}
        sets.append(per)

    checks = {}
    for w in workloads:
        checks[w] = {}
        for m, bound in bounds.items():
            c = {"bound": bound, "max_spread": max(st[w][m]["spread"] for st in sets)}
            if len(sets) > 1:
                first, second = sets[0][w][m]["median"], sets[1][w][m]["median"]
                c["median_move"] = (second - first) / first
            checks[w][m] = c

    doc = {
        "date": datetime.date.today().isoformat(),
        "machine": {"cpus": os.cpu_count()},
        "run_seconds": seconds,
        "seeds": seeds,
        "sets": sets,
        "checks": checks,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for w in workloads:
        for m, c in checks[w].items():
            print(f"{w:14s} {m:16s} bound {c['bound']:.2f}  max spread {c['max_spread']:.4f}"
                  + (f"  median move {c['median_move']:+.4f}" if "median_move" in c else ""))


if __name__ == "__main__":
    main()
