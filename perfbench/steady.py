#!/usr/bin/env python3
"""Steadiness self-check for the end-to-end benchmark.

Runs two sets of runs of the same build on fresh seeds and prints, for
every workload and end-to-end metric, each set's median and quartiles,
the interquartile spread as a share of the median, and whether the two
sets agree within the metric's bound from BENCHMARK.json. Run from the
root of the checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads ingest

Raw results are written to .bench_build/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    out = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - start
    if out.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{' '.join(args)}: correct is false")
    res["wall_s"] = wall
    return res


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2, choices=[1, 2])
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seed-base", type=int, default=int(time.time()) % 100000 * 100)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    results = {}
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed_base + s * 1000 + i
                r = run_once(bench["command"], w, seed, bench["run_seconds"])
                results.setdefault(w, [[] for _ in range(args.sets)])[s].append(r)
                print(f"set {s + 1} {w} seed {seed}: {r['wall_s']:.0f}s attempted={r['attempted']} failed={r['failed']}",
                      file=sys.stderr, flush=True)
    os.makedirs(".bench_build", exist_ok=True)
    with open(f".bench_build/steady-{int(time.time())}.json", "w") as f:
        json.dump(results, f)

    ok = True
    print("| workload | metric | bound | set 1 median [q1, q3] | spread 1 | set 2 median [q1, q3] | spread 2 | change | agree |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            cells, spreads, meds = [], [], []
            for runs in sets:
                med, q1, q3 = summary([r["metrics"][name]["value"] for r in runs])
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
                spreads.append((q3 - q1) / med)
                meds.append(med)
            agree = all(sp <= bound for sp in spreads) or name == "setup_s"
            change = ""
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0] if lower else (meds[0] - meds[1]) / meds[0]
                change = f"{100 * (meds[1] - meds[0]) / meds[0]:+.1f}%"
                agree = agree and worse <= bound
            ok = ok and agree
            row = [w, name, f"{bound}"]
            for c, sp in zip(cells, spreads):
                row += [c, f"{100 * sp:.1f}%"]
            if len(meds) == 1:
                row += ["", ""]
            row += [change, "yes" if agree else "NO"]
            print("| " + " | ".join(row) + " |")
        print(f"| {w} | failed share | exact | {shares[0]:.4g} | | {shares[-1]:.4g} | | | "
              f"{'yes' if len(set(shares)) == 1 else 'NO'} |")
        ok = ok and len(set(shares)) == 1
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
