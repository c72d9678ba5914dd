// The coarse hybrid index (Section 4) — the paper's contribution.
//
// Rankings are grouped into partitions of bounded radius around medoid
// rankings; only the medoids enter an inverted index, shrinking it by the
// (near-)duplicate factor of the collection, while each partition is
// represented by its own BK-tree so validation exploits the metric.
//
// Querying (Algorithm 1 + Lemma 1): the inverted index retrieves all
// medoids within theta + radius of the query — any result ranking tau with
// d(tau, q) <= theta satisfies d(medoid(tau), q) <= theta + radius by the
// triangle inequality, so no result can be missed. Each qualifying
// partition's BK-tree is then range-queried with the original theta; the
// medoid's distance, already computed during filtering, is reused as the
// root distance.
//
// Exactness guardrails beyond the paper:
//  * Each partition records its realized radius r_P; retrieval uses
//    theta + max_P r_P globally and theta + r_P per partition. Under the
//    strict partitioner r_P <= theta_C and this is precisely Lemma 1.
//  * The paper requires theta + theta_C < dmax because a medoid sharing no
//    item with the query is invisible to an inverted index. When the
//    relaxed threshold reaches dmax (possible at the far end of the
//    Figure 7 sweep), the engine transparently falls back to scanning the
//    medoid set, preserving exactness at a measurable cost.
//
// Build takes an optional PartRunner: the BK partitioner's global tree
// then builds its large levels in parts over it (QueryFrontend hands over
// its own pool). Without one the same code runs inline; the index is
// identical either way. The per-partition trees always build on the
// caller.

#ifndef TOPK_COARSE_COARSE_INDEX_H_
#define TOPK_COARSE_COARSE_INDEX_H_

#include <vector>

#include "cluster/partitioner.h"
#include "core/neighbor.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "kernel/id_split.h"
#include "metric/bk_tree.h"

namespace topk {

enum class PartitionerKind { kBkStrict, kBkSubtree, kChavezNavarro };

const char* PartitionerKindName(PartitionerKind kind);

struct CoarseOptions {
  /// Normalized partitioning threshold theta_C in [0, 1].
  double theta_c = 0.5;
  PartitionerKind partitioner = PartitionerKind::kBkStrict;
  /// Drop policy applied to the medoid retrieval (Coarse+Drop).
  DropMode drop = DropMode::kNone;
  /// Seed for the Chavez-Navarro partitioner.
  uint64_t seed = 42;
};

/// Per-caller query scratch (the kernel filter scratch for medoid dedup
/// plus the batched validator's query rank table). The index itself is
/// immutable after Build, so concurrent queries are race-free as long as
/// each thread brings its own CoarseScratch — the serving layer's
/// inter-query parallelism relies on exactly this.
struct CoarseScratch {
  FilterScratch filter;
  FootruleValidator validator;
};

class CoarseIndex {
 public:
  /// Builds the partitioning, the per-partition BK-trees and the medoid
  /// inverted index. Construction distance calls are tallied into `stats`.
  /// A non-empty `runner` builds the BK partitioner's tree in parts over
  /// it.
  static CoarseIndex Build(const RankingStore* store,
                           const CoarseOptions& options,
                           Statistics* stats = nullptr,
                           const PartRunner& runner = {});

  /// Builds around an externally produced partitioning (partition members
  /// must list the medoid first).
  static CoarseIndex BuildFromPartitioning(const RankingStore* store,
                                           const CoarseOptions& options,
                                           Partitioning partitioning,
                                           Statistics* stats = nullptr);

  /// Exact range query; `phases` (optional) receives the filter/validate
  /// wall-time split reported in Figures 3 and 7. Uses the index's
  /// internal scratch: callers sharing one CoarseIndex across threads must
  /// use the external-scratch overload instead.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr,
                               PhaseTimes* phases = nullptr) const {
    return Query(query, theta_raw, &scratch_, stats, phases);
  }

  /// Same query, but with caller-provided scratch: safe to call from many
  /// threads concurrently on one index (one scratch per thread).
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw, CoarseScratch* scratch,
                               Statistics* stats,
                               PhaseTimes* phases) const;

  /// Exact j-nearest-neighbour query (extension; the paper evaluates
  /// range queries only). Partitions are probed best-first by the
  /// optimistic bound max(0, d(q, medoid) - radius) and abandoned once
  /// the bound exceeds the current j-th best distance.
  std::vector<Neighbor> Knn(const PreparedQuery& query, size_t j,
                            Statistics* stats = nullptr) const;

  const Partitioning& partitioning() const { return partitioning_; }
  size_t num_partitions() const { return partitioning_.partitions.size(); }
  /// The BK-tree over partition `partition`'s members.
  const BkTree& partition_tree(size_t partition) const {
    return trees_[partition];
  }
  RawDistance max_radius() const { return max_radius_; }
  const CoarseOptions& options() const { return options_; }
  size_t MemoryUsage() const;

 private:
  CoarseIndex(const RankingStore* store, const CoarseOptions& options)
      : store_(store), options_(options) {}

  const RankingStore* store_;
  CoarseOptions options_;
  Partitioning partitioning_;
  std::vector<RankingId> medoids_;  // medoid per partition (parallel array)
  PlainInvertedIndex medoid_index_;  // posting entries are partition indices
  std::vector<BkTree> trees_;        // one BK-tree per partition
  RawDistance max_radius_ = 0;
  mutable CoarseScratch scratch_;  // backs the scratch-less Query overload
};

}  // namespace topk

#endif  // TOPK_COARSE_COARSE_INDEX_H_
