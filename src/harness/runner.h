// Timed workload execution: runs a query engine over a prepared workload
// and aggregates wall time, phase splits and tickers — the measurement
// loop behind every figure in Section 7.

#ifndef TOPK_HARNESS_RUNNER_H_
#define TOPK_HARNESS_RUNNER_H_

#include <span>

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

}  // namespace topk

#endif  // TOPK_HARNESS_RUNNER_H_
