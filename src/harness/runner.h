// Timed workload execution: runs a query engine over a prepared workload
// and aggregates wall time, phase splits and tickers — the measurement
// loop behind every figure in Section 7.

#ifndef TOPK_HARNESS_RUNNER_H_
#define TOPK_HARNESS_RUNNER_H_

#include <span>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "harness/query_algorithms.h"

namespace topk {

struct RunResult {
  double wall_ms = 0;       // total wall time over all queries
  PhaseTimes phases;        // filter/validate split (engines that report it)
  Statistics stats;         // aggregated tickers
  size_t total_results = 0;
  size_t num_queries = 0;

  // Order-insensitive checksum: the wrapped sum of MixId64(id) over every
  // match of every query. The check is one-sided: unequal hashes prove
  // the overall result multisets differ; equal hashes imply agreement
  // only with overwhelming probability (a wrapping sum can collide in
  // principle). The serving bench uses it to flag frontend answers that
  // diverge from the sequential run without retaining the results; the
  // exactness *guarantee* comes from the differential test suites.
  uint64_t result_hash = 0;

  // Threads that served the workload: 1 for the sequential runner, the
  // frontend's executor count for QueryFrontend::RunQueries.
  size_t num_threads = 1;

  // Per-query latency distribution (tail behaviour matters for ad-hoc
  // query serving; the paper reports only totals).
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;

  double mean_ms_per_query() const {
    return num_queries == 0 ? 0 : wall_ms / static_cast<double>(num_queries);
  }
};

/// Runs every query once and aggregates. Results are consumed (their sizes
/// are tallied) but not retained.
RunResult RunQueries(QueryEngine* engine,
                     std::span<const PreparedQuery> queries,
                     RawDistance theta_raw);

/// Sorts `latencies` in place and fills result's p50/p95/p99/max fields —
/// shared by the sequential runner and QueryFrontend::RunQueries so both
/// compute the tail the same way.
void FinalizeLatencyStats(std::vector<double>* latencies, RunResult* result);

}  // namespace topk

#endif  // TOPK_HARNESS_RUNNER_H_
