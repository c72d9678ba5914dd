#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the topk library and the perfbench
program from source into .bench_build/perfbench (first run only), runs one
workload, prints a readable report on stdout, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (0 where the workload does
not exercise the layer). The full report, spans included, is kept under
.bench_build/work. Exit status is 0 only when every answer checked was
correct and every request succeeded.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("nyt_ram", "nyt_snapshot", "yago_live", "nyt_log_coarse")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def arch_flags():
    """-march=x86-64-v3 (AVX2 kernels, SSSE3 decode) where the CPU has it."""
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((line.split(":", 1)[1].split()
                          for line in f if line.startswith("flags")), [])
    except OSError:
        return ""
    needed = {"avx2", "bmi1", "bmi2", "fma", "f16c", "movbe"}
    return "-march=x86-64-v3" if needed.issubset(flags) else ""


def source_revision():
    """The checkout's git commit, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DCMAKE_CXX_FLAGS=" + arch_flags()]
            if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
                fail("configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=log, stderr=log).returncode != 0:
            fail("build failed; see " + log_path)


def load_metric_specs():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to " + HERE)
    end_to_end, per_layer = load_metric_specs()
    build()

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--commit", source_revision()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("workload run failed with status %d" % run.returncode)
    report = json.loads(lines[-1])
    report_path = os.path.join(
        WORK_DIR, "report-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    attempted = report["attempted"]
    bad = report["failed"] + report["refused"] + report["wrong"]
    error_ratio = bad / attempted if attempted else 1.0
    correct = bad == 0 and report["checked"] > 0 and attempted > 0

    info = report["info"]
    print("perfbench %s seed=%s seconds=%s trace=%s" % (
        args.workload, info["seed"], info["seconds"], info["trace"]))
    print("  build: %s flags=[%s] simd=%s decode=%s commit=%s" % (
        info["build_type"], info["cxx_flags"].strip(), info["simd_backend"],
        info["decode_backend"], info["commit"]))
    print("  machine: nproc=%s L2=%s B L3=%s B" % (
        info["nproc"], info["l2_bytes"], info["l3_bytes"]))
    print("  working set: %s B (%.2fx L2, %.3fx L3); %s distinct requests "
          "against a %s-entry result cache" % (
              info["working_set_bytes"], info.get("working_set_over_l2", 0),
              info.get("working_set_over_l3", 0), info["distinct_requests"],
              info["result_cache_capacity"]))
    print("  end-to-end:")
    for name, value in sorted(report["metrics"].items()):
        print("    %-24s %14.6g %-6s (n=%d)" % (
            name, value["value"], value["unit"], value["samples"]))
    for name, value in sorted(report["layers"].items()):
        if name.startswith(("knn_", "write_", "range_", "live_read_")):
            print("    %-24s %14.6g %-6s (n=%d, not gated)" % (
                name, value["value"], value["unit"], value["samples"]))
    print("    %-24s %14.6g %-6s (%d bad of %d attempted; %d answers "
          "checked against brute force)" % (
              "error_ratio", error_ratio, "", bad, attempted, report["checked"]))
    if args.trace:
        print("  per-layer (traced run):")
        for name, value in sorted(report["layers"].items()):
            print("    %-36s %14.6g %s" % (name, value["value"], value["unit"]))
    print("  report: " + os.path.relpath(report_path, ROOT))

    report["layers"]["error_ratio"] = {"value": error_ratio, "unit": "fraction"}
    if args.trace:
        chosen, source = per_layer, report["layers"]
    else:
        chosen, source = end_to_end, report["metrics"]
    metrics = {}
    for spec in chosen:
        value = source.get(spec["name"], {}).get("value", 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": bad, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
