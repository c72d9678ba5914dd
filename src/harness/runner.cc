#include "harness/runner.h"

#include <algorithm>
#include <vector>

namespace topk {

namespace {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto index = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Sorts `latencies` in place and fills result's p50/p95/p99/max fields.
void FinalizeLatencyStats(std::vector<double>* latencies, RunResult* result) {
  std::sort(latencies->begin(), latencies->end());
  result->p50_ms = Percentile(*latencies, 0.50);
  result->p95_ms = Percentile(*latencies, 0.95);
  result->p99_ms = Percentile(*latencies, 0.99);
  result->max_ms = latencies->empty() ? 0 : latencies->back();
}

}  // namespace

RunResult RunQueries(QueryEngine* engine,
                     std::span<const PreparedQuery> queries,
                     RawDistance theta_raw) {
  RunResult result;
  result.num_queries = queries.size();
  std::vector<double> latencies;
  latencies.reserve(queries.size());

  Stopwatch total;
  for (size_t i = 0; i < queries.size(); ++i) {
    Stopwatch per_query;
    const std::vector<RankingId> matches =
        engine->Query(i, queries[i], theta_raw, &result.stats,
                      &result.phases);
    latencies.push_back(per_query.ElapsedMillis());
    result.total_results += matches.size();
  }
  result.wall_ms = total.ElapsedMillis();

  FinalizeLatencyStats(&latencies, &result);
  return result;
}

}  // namespace topk
