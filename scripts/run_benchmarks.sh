#!/usr/bin/env bash
# Builds (Release) and runs the bench_baseline binary, emitting the
# machine-readable benchmark baseline every perf PR measures against,
# then the bench_serving cache study (BENCH_serving.json next to it), the
# bench_mutability write-path study (BENCH_mutability.json), and the
# bench_storage compressed-tier study (BENCH_storage.json), and the
# bench_robustness fault-tolerance overhead study
# (BENCH_robustness.json). Each fresh
# artifact is diffed against the committed copy (HEAD) via
# scripts/compare_benchmarks.py, so a run prints its own perf trajectory.
#
# Usage:
#   scripts/run_benchmarks.sh                 # CI-scale run -> BENCH_baseline.json
#                                             # + BENCH_serving.json + BENCH_mutability.json
#                                             # + BENCH_storage.json + BENCH_robustness.json
#   scripts/run_benchmarks.sh --full          # paper-scale collection sizes
#   OUT=my.json BUILD_DIR=build-rel scripts/run_benchmarks.sh --queries=500
#   SERVING_OUT= scripts/run_benchmarks.sh    # skip the serving study
#   MUTABILITY_OUT= scripts/run_benchmarks.sh # skip the mutability study
#   STORAGE_OUT= scripts/run_benchmarks.sh    # skip the storage study
#   ROBUSTNESS_OUT= scripts/run_benchmarks.sh # skip the robustness study
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
# Extra arguments are forwarded to all binaries (see bench/bench_util.h
# for the knobs); explicit --nyt-n=/--yago-n=/--queries= override the
# CI-scale defaults below.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${OUT:-BENCH_baseline.json}
SERVING_OUT=${SERVING_OUT-BENCH_serving.json}
MUTABILITY_OUT=${MUTABILITY_OUT-BENCH_mutability.json}
STORAGE_OUT=${STORAGE_OUT-BENCH_storage.json}
ROBUSTNESS_OUT=${ROBUSTNESS_OUT-BENCH_robustness.json}

# Prints per-section deltas of a fresh artifact against the copy
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
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target bench_baseline bench_serving bench_mutability bench_storage \
  bench_robustness

# ${arr[@]+...} keeps the empty-array expansion safe under set -u on
# bash < 4.4 (macOS ships 3.2).
"$BUILD_DIR/bench/bench_baseline" \
  ${DEFAULT_ARGS[@]+"${DEFAULT_ARGS[@]}"} "$@" --out="$OUT"
echo "baseline written to $OUT"
compare_against_committed BENCH_baseline.json "$OUT"

if [[ -n "$SERVING_OUT" ]]; then
  "$BUILD_DIR/bench/bench_serving" \
    ${DEFAULT_ARGS[@]+"${DEFAULT_ARGS[@]}"} "$@" --out="$SERVING_OUT"
  echo "serving study written to $SERVING_OUT"
  compare_against_committed BENCH_serving.json "$SERVING_OUT"
fi

if [[ -n "$MUTABILITY_OUT" ]]; then
  "$BUILD_DIR/bench/bench_mutability" \
    ${DEFAULT_ARGS[@]+"${DEFAULT_ARGS[@]}"} "$@" --out="$MUTABILITY_OUT"
  echo "mutability study written to $MUTABILITY_OUT"
  compare_against_committed BENCH_mutability.json "$MUTABILITY_OUT"
fi

if [[ -n "$STORAGE_OUT" ]]; then
  "$BUILD_DIR/bench/bench_storage" \
    ${DEFAULT_ARGS[@]+"${DEFAULT_ARGS[@]}"} "$@" --out="$STORAGE_OUT"
  echo "storage study written to $STORAGE_OUT"
  compare_against_committed BENCH_storage.json "$STORAGE_OUT"
fi

if [[ -n "$ROBUSTNESS_OUT" ]]; then
  "$BUILD_DIR/bench/bench_robustness" \
    ${DEFAULT_ARGS[@]+"${DEFAULT_ARGS[@]}"} "$@" --out="$ROBUSTNESS_OUT"
  echo "robustness study written to $ROBUSTNESS_OUT"
  compare_against_committed BENCH_robustness.json "$ROBUSTNESS_OUT"
fi
