#!/usr/bin/env python3
"""Count-determinism self-test of the benchmark.

Runs each workload's traced run twice at one seed and requires the exact
counts of its single-caller traced pass (every Statistics ticker, e.g.
distance calls, postings scanned, partitions probed, cache hits) to repeat
exactly. Later changes may then cite these counts as exact.

    python3 perfbench/check_counts.py                 # all workloads
    python3 perfbench/check_counts.py --workloads nyt_ram

yago_live has no single-caller phase (its traced pass is an open loop with
a concurrent writer), so it reports no exact counts and is skipped.
Exit status 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
DEFAULT = ("nyt_ram", "nyt_snapshot", "nyt_log_coarse")


def traced_counts(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    if run.returncode != 0:
        raise SystemExit("%s: traced run failed (status %d)" % (workload, run.returncode))
    path = os.path.join(WORK_DIR, "report-%s-%d-trace1.json" % (workload, seed))
    with open(path) as f:
        return json.load(f)["counts"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(DEFAULT))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=4,
                        help="length of the untraced phases before the traced pass")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        if not first:
            print("%s: no exact counts reported" % workload)
            ok = False
            continue
        differing = sorted(k for k in set(first) | set(second)
                           if first.get(k) != second.get(k))
        if differing:
            ok = False
            for key in differing:
                print("%s: %s differs: %s vs %s" % (
                    workload, key, first.get(key), second.get(key)))
        else:
            print("%s: %d counts repeat exactly (e.g. distance_calls=%s)" % (
                workload, len(first), first.get("ticker.distance_calls")))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
