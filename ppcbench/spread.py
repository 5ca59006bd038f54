#!/usr/bin/env python3
"""Repeat-set check for ppcbench: run every workload under N seeds and print,
per end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the interquartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json. This is the arithmetic the acceptance rule uses.

    python3 ppcbench/spread.py <path-to-ppcbench-binary> [--seeds 10]
        [--first-seed 1] [--seconds N] [--workload NAME ...] [--json OUT]

Run it from the repository root (it reads ./BENCHMARK.json).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    report = {}
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [args.binary, "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        report[w] = {}
        print(f"{w}  ({args.seeds} seeds from {args.first_seed}, {seconds} s each)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            share = spread / bound
            if name != "setup_s":
                worst = max(worst, share)
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "values": values}
            print(f"  {name:<14} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {100 * spread:5.2f} %  ({share:4.2f} of bound {bound})")
    print(f"worst spread (setup_s aside) is {worst:.2f} of its bound")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
