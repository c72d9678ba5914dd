#!/usr/bin/env bash
# Builds (Release) and runs the bench_baseline binary, emitting the
# machine-readable benchmark baseline every perf PR measures against,
# and diffs the fresh artifact against the committed copy (HEAD) via
# scripts/compare_benchmarks.py, so a run prints its own perf trajectory.
# End-to-end serving, storage, mutability and robustness numbers are
# perfbench's (perfbench/README.md).
#
# Usage:
#   scripts/run_benchmarks.sh                 # CI-scale run -> BENCH_baseline.json
#   scripts/run_benchmarks.sh --full          # paper-scale collection sizes
#   OUT=my.json BUILD_DIR=build-rel scripts/run_benchmarks.sh --queries=500
#   MARCH=x86-64-v3 scripts/run_benchmarks.sh # compile the bench build for
#                                             # that -march so the TOPK_SIMD
#                                             # kernel paths dispatch to a
#                                             # real vector ISA (the default
#                                             # x86-64 target stops at SSE2 =
#                                             # scalar). Sticky per BUILD_DIR:
#                                             # the flag is cached by CMake,
#                                             # so changing MARCH later means
#                                             # passing it again (or wiping
#                                             # the build dir).
#
# Extra arguments are forwarded to the binary (see bench/bench_util.h
# for the knobs); explicit --nyt-n=/--yago-n=/--queries= override the
# CI-scale defaults below.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${OUT:-BENCH_baseline.json}

# Prints per-section deltas of the fresh artifact against the copy
# committed at HEAD (informational; skipped when python3/git/the
# committed copy are unavailable, or with COMPARE=0 — CI sets that and
# runs the comparison as its own visible step instead).
COMPARE=${COMPARE:-1}
compare_against_committed() {
  local committed_name=$1 fresh=$2
  [[ "$COMPARE" == "1" ]] || return 0
  command -v python3 >/dev/null 2>&1 || return 0
  command -v git >/dev/null 2>&1 || return 0
  local committed_tmp
  committed_tmp=$(mktemp)
  if git show "HEAD:${committed_name}" >"$committed_tmp" 2>/dev/null; then
    echo "--- ${committed_name}: deltas vs committed (HEAD) ---"
    python3 scripts/compare_benchmarks.py "$committed_tmp" "$fresh" || true
  fi
  rm -f "$committed_tmp"
}

# CI-scale defaults: a few minutes on one core. Dropped when the caller
# provides their own scaling knobs (or --full).
DEFAULT_ARGS=(--nyt-n=6000 --yago-n=4000 --queries=100)
for arg in "$@"; do
  case "$arg" in
    --nyt-n=*|--yago-n=*|--queries=*|--full) DEFAULT_ARGS=() ;;
    --out=*) OUT=${arg#--out=} ;;
  esac
done

# -DTOPK_SANITIZE= clears any sanitizer cached in an existing build dir:
# an instrumented binary would record 5-10x inflated latencies as the
# baseline.
MARCH=${MARCH:-}
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DTOPK_SANITIZE= \
  ${MARCH:+"-DCMAKE_CXX_FLAGS=-march=$MARCH"}
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_baseline

# ${arr[@]+...} keeps the empty-array expansion safe under set -u on
# bash < 4.4 (macOS ships 3.2).
"$BUILD_DIR/bench/bench_baseline" \
  ${DEFAULT_ARGS[@]+"${DEFAULT_ARGS[@]}"} "$@" --out="$OUT"
echo "baseline written to $OUT"
compare_against_committed BENCH_baseline.json "$OUT"
