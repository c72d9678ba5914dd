// Batch query processing — the paper's Section 8 outlook, implemented:
// "the query batch can be partitioned into related medoid rankings to
// prune the search space of potential result rankings".
//
// Queries are clustered with the same fixed-radius random-medoid scheme
// used on the data side. For a query partition with medoid query q_m and
// radius r, one index probe at threshold theta + r yields a candidate set
// that provably contains every member's results: d(tau, q) <= theta
// implies d(tau, q_m) <= theta + d(q, q_m) <= theta + r by the triangle
// inequality. Each member query then validates only those candidates.
// Related queries (the common case in query-suggestion workloads, where
// the same information need arrives repeatedly) thus share one filter pass
// instead of paying k posting-list scans each.

#ifndef TOPK_COARSE_BATCH_QUERY_H_
#define TOPK_COARSE_BATCH_QUERY_H_

#include <span>
#include <vector>

#include "coarse/coarse_index.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/footrule_batch.h"

namespace topk {

struct BatchQueryOptions {
  /// Normalized clustering radius for the query batch. 0 groups only
  /// identical queries; larger values share more filter passes at the
  /// price of looser (larger) shared candidate sets.
  double batch_theta_c = 0.1;
  /// Seed for the random-medoid clustering of the batch.
  uint64_t seed = 17;
};

class BatchQueryProcessor {
 public:
  /// `store` and `index` must outlive the processor.
  BatchQueryProcessor(const RankingStore* store, const CoarseIndex* index,
                      BatchQueryOptions options = {});

  /// Answers every query exactly; results[i] corresponds to queries[i],
  /// each in ascending id order (same contract as the per-query engines).
  std::vector<std::vector<RankingId>> QueryBatch(
      std::span<const PreparedQuery> queries, RawDistance theta_raw,
      Statistics* stats = nullptr);

 private:
  const RankingStore* store_;
  const CoarseIndex* index_;
  BatchQueryOptions options_;
  FootruleValidator validator_;  // member validation, reused across batches
};

}  // namespace topk

#endif  // TOPK_COARSE_BATCH_QUERY_H_
