// Unified registry of every query-processing algorithm the paper
// evaluates (Section 7, "Algorithms under Investigation"), behind one
// virtual interface so benches and tests can sweep them uniformly.
//
// EngineSuite owns the indexes; each index kind is built lazily on first
// use and its construction time and memory footprint are recorded for the
// Table 6 bench.

#ifndef TOPK_HARNESS_QUERY_ALGORITHMS_H_
#define TOPK_HARNESS_QUERY_ALGORITHMS_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "adapt/adapt_search.h"
#include "adapt/delta_inverted_index.h"
#include "coarse/coarse_index.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/augmented_inverted_index.h"
#include "invidx/blocked_inverted_index.h"
#include "invidx/filter_validate.h"
#include "invidx/list_at_a_time.h"
#include "invidx/list_merge.h"
#include "invidx/oracle_index.h"
#include "metric/bk_tree.h"
#include "metric/m_tree.h"

namespace topk {

enum class Algorithm {
  kFV,                // Filter & Validate, plain inverted index
  kFVDrop,            // + overlap-bound list dropping
  kListMerge,         // merge of id-sorted augmented lists
  kLaatPrune,         // List-at-a-Time with partial-information bounds
  kBlockedPrune,      // blocked access with pruning and scheduling
  kBlockedPruneDrop,  // blocked access + pruning + list dropping
  kCoarse,            // coarse index with F&V medoid retrieval
  kCoarseDrop,        // coarse index with F&V+Drop medoid retrieval
  kAdaptSearch,       // the competitor
  kMinimalFV,         // per-query oracle lower bound
  kBkTree,            // metric baseline
  kMTree,             // metric baseline
  kLinearScan,        // exhaustive baseline / ground truth
};

const char* AlgorithmName(Algorithm algorithm);

/// One query-processing algorithm bound to its indexes. `query_index`
/// identifies the workload query (the Minimal F&V oracle is keyed by it);
/// all other engines ignore it. `phases` (optional) receives the
/// filter/validate split for engines that report it (coarse index).
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;
  virtual std::vector<RankingId> Query(size_t query_index,
                                       const PreparedQuery& query,
                                       RawDistance theta_raw,
                                       Statistics* stats,
                                       PhaseTimes* phases) = 0;

  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr) {
    return Query(0, query, theta_raw, stats, nullptr);
  }

  /// The kernel engine behind kFV / kFVDrop, whose range queries take a
  /// QueryControl and an id split; null for every other algorithm.
  virtual FilterValidateEngine* filter_validate() { return nullptr; }
};

struct IndexBuildInfo {
  double build_ms = 0;
  size_t memory_bytes = 0;
};

struct EngineSuiteConfig {
  /// theta_C for the Coarse engine (the paper's comparison figures fix
  /// 0.5, the optimum for theta = 0.3).
  double coarse_theta_c = 0.5;
  /// theta_C for Coarse+Drop (the paper measured 0.06 as its optimum).
  double coarse_drop_theta_c = 0.06;
  PartitionerKind coarse_partitioner = PartitionerKind::kBkStrict;
  MTreeOptions mtree;
};

class EngineSuite {
 public:
  explicit EngineSuite(const RankingStore* store,
                       EngineSuiteConfig config = {});

  /// Builds (if needed) the indexes behind `algorithm` and returns a fresh
  /// engine. kMinimalFV must go through MakeOracleEngine.
  std::unique_ptr<QueryEngine> MakeEngine(Algorithm algorithm);

  /// The Minimal F&V oracle is materialized per (workload, theta).
  std::unique_ptr<QueryEngine> MakeOracleEngine(
      std::span<const PreparedQuery> queries, RawDistance theta_raw);

  /// Build info for the index kind behind `algorithm` (building it first
  /// if necessary). For kCoarse/kCoarseDrop this is the full coarse index
  /// (partitioning + trees + medoid index).
  IndexBuildInfo BuildInfo(Algorithm algorithm);

  // Direct index access (built on demand) for benches that need it.
  const PlainInvertedIndex& plain_index();
  const AugmentedInvertedIndex& augmented_index();
  const BlockedInvertedIndex& blocked_index();
  const DeltaInvertedIndex& delta_index();
  const BkTree& bk_tree();
  const MTree& m_tree();
  const CoarseIndex& coarse_index();
  const CoarseIndex& coarse_drop_index();

 private:
  const RankingStore* store_;
  EngineSuiteConfig config_;

  std::optional<PlainInvertedIndex> plain_;
  std::optional<AugmentedInvertedIndex> augmented_;
  std::optional<BlockedInvertedIndex> blocked_;
  std::optional<DeltaInvertedIndex> delta_;
  std::optional<BkTree> bk_tree_;
  std::optional<MTree> m_tree_;
  std::optional<CoarseIndex> coarse_;
  std::optional<CoarseIndex> coarse_drop_;

  IndexBuildInfo plain_info_;
  IndexBuildInfo augmented_info_;
  IndexBuildInfo blocked_info_;
  IndexBuildInfo delta_info_;
  IndexBuildInfo bk_tree_info_;
  IndexBuildInfo m_tree_info_;
  IndexBuildInfo coarse_info_;
  IndexBuildInfo coarse_drop_info_;
};

}  // namespace topk

#endif  // TOPK_HARNESS_QUERY_ALGORITHMS_H_
