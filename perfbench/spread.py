#!/usr/bin/env python3
"""Noise-floor report: runs one workload repeatedly and prints, for every
metric of the final result line, its median, quartiles, relative spread
(IQR / median, the figure the benchmark bounds are judged by) and
max/min ratio.

    python3 perfbench/spread.py --workload nyt_ram --runs 10
    python3 perfbench/spread.py --workload yago_live --runs 5 --seed 7 --same-seed

By default run i uses seed first_seed + i; --same-seed repeats one seed
(drift at equal inputs). --json writes the raw values for later
comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("run with seed %d printed nothing (status %d)"
                         % (seed, out.returncode))
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        print("  seed %d: NOT CORRECT (%d failed of %d)" % (
            seed, result["failed"], result["attempted"]))
    return result


def summarize(values):
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    spread = (q3 - q1) / median if median else float("nan")
    ratio = ordered[-1] / ordered[0] if ordered[0] else float("inf")
    return median, q1, q3, spread, ratio


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the raw values here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        result = run_once(args.workload, seed, seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("  run %d seed %d: %s" % (i + 1, seed, ", ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in sorted(result["metrics"].items()))),
            flush=True)

    print("%s, %d runs of %d s (trace %d)" % (args.workload, args.runs, seconds, args.trace))
    print("  %-34s %12s %12s %12s %9s %9s %7s" % (
        "metric", "median", "q1", "q3", "iqr/med", "max/min", "bound"))
    for name in sorted(values):
        median, q1, q3, spread, ratio = summarize(values[name])
        bound = bounds.get(name)
        print("  %-34s %12.6g %12.6g %12.6g %8.1f%% %9.3f %7s" % (
            name, median, q1, q3, 100 * spread, ratio,
            "-" if bound is None else "%.0f%%" % (100 * bound)))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "values": values}, f, indent=1)


if __name__ == "__main__":
    main()
