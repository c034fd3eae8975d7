#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

Run from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--traced]

For every workload in BENCHMARK.json it makes two sets of `--runs` untraced
runs, each run with its own seed (set one uses seeds 1..N, set two
1001..1000+N). For each end-to-end metric it prints, per set, the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, and then whether the sets agree within the metric's bound
in BENCHMARK.json: each spread within the bound, the second median not worse
than the first by more than the bound, and the same share of failed
operations in both sets. With --traced it also makes one traced run per
workload and prints the tracing overhead: the traced run's work_per_s and
fresh_p50_ms against the untraced medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
        sys.exit(f"incorrect result: {' '.join(cmd)}")
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    all_ok = True
    for workload in workloads:
        sets = []
        for base in (1, 1001):
            results = [run_once(bench, workload, base + i, False)
                       for i in range(args.runs)]
            sets.append(results)
        print(f"\n## {workload} ({args.runs} runs per set)\n")
        print("| metric | unit | bound | set | median | Q1 | Q3 | spread | verdict |")
        print("|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            summaries = [summarize([r["metrics"][name]["value"] for r in s])
                         for s in sets]
            for k, (median, q1, q3, spread) in enumerate(summaries):
                verdict = ""
                if k == 1:
                    drift = worse_by(summaries[0][0], summaries[1][0],
                                     m["better"])
                    ok = drift <= bound and all(s[3] <= bound
                                                for s in summaries)
                    all_ok &= ok
                    verdict = f"median drift {drift:+.3f}; "
                    verdict += "ok" if ok else "NOT STEADY"
                    if ok and any(s[3] > bound / 3 for s in summaries):
                        verdict += " (a spread above bound/3)"
                print(f"| {name} | {m['unit']} | {bound} | {k + 1} | "
                      f"{median:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                      f"{verdict} |")
        shares = {round(sum(r["failed"] for r in s) /
                        sum(r["attempted"] for r in s), 12) for s in sets}
        attempted = [sum(r["attempted"] for r in s) for s in sets]
        print(f"\nattempted per set: {attempted}; failed share per set: "
              f"{sorted(shares)}")
        all_ok &= len(shares) == 1
        if args.traced:
            traced = run_once(bench, workload, 1, True)["metrics"]
            print("\ntracing overhead (traced run vs untraced median of set 1):")
            for name in ("work_per_s", "fresh_p50_ms"):
                untraced = summarize([r["metrics"][name]["value"]
                                      for r in sets[0]])[0]
                value = traced["trace." + name]["value"]
                print(f"  {name}: traced {value:.6g} vs untraced {untraced:.6g}"
                      f" ({(value - untraced) / untraced:+.2%})")
    print("\nsteady" if all_ok else "\nNOT STEADY")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
