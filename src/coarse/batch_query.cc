#include "coarse/batch_query.h"

#include <algorithm>

#include "cluster/cn_partitioner.h"
#include "core/rng.h"

namespace topk {

BatchQueryProcessor::BatchQueryProcessor(const RankingStore* store,
                                         const CoarseIndex* index,
                                         BatchQueryOptions options)
    : store_(store), index_(index), options_(options) {}

std::vector<std::vector<RankingId>> BatchQueryProcessor::QueryBatch(
    std::span<const PreparedQuery> queries, RawDistance theta_raw,
    Statistics* stats) {
  std::vector<std::vector<RankingId>> results(queries.size());
  if (queries.empty()) return results;
  const uint32_t k = store_->k();

  // Cluster the batch itself: load the query rankings into a scratch
  // store and run the fixed-radius random-medoid partitioner over it.
  RankingStore batch_store(k);
  for (const PreparedQuery& query : queries) {
    batch_store.AddUnchecked(query.view().items());
  }
  Rng rng(options_.seed);
  const RawDistance batch_radius = RawThreshold(options_.batch_theta_c, k);
  const Partitioning clusters = CnPartition(batch_store, batch_radius, &rng);

  const size_t item_domain = static_cast<size_t>(store_->max_item()) + 1;

  for (const Partition& cluster : clusters.partitions) {
    const PreparedQuery& medoid_query = queries[cluster.medoid];
    if (cluster.members.size() == 1) {
      results[cluster.medoid] =
          index_->Query(medoid_query, theta_raw, stats);
      continue;
    }

    // One relaxed probe covers the whole cluster (triangle inequality).
    const std::vector<RankingId> shared = index_->Query(
        medoid_query, theta_raw + cluster.radius, stats);

    for (RankingId member : cluster.members) {
      std::vector<RankingId>& out = results[member];
      validator_.BindQuery(queries[member].view(), item_domain);
      // `shared` ascends, and ValidateSpan keeps candidate order.
      validator_.ValidateSpan(*store_, shared, theta_raw, &out, stats);
      TOPK_DCHECK(std::is_sorted(out.begin(), out.end()));
      AddTicker(stats, Ticker::kResults, out.size());
    }
  }
  return results;
}

}  // namespace topk
