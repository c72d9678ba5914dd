// M-tree (Ciaccia, Patella, Zezula; VLDB 1997) over the Footrule metric.
//
// The balanced metric-tree baseline of the paper's Figure 5. Routing
// entries carry a covering radius and their distance to the parent routing
// object, which lets range search discard whole subtrees twice: once with
// the parent-distance test |d(q, parent) - parent_dist| <= theta + radius
// (no distance computation needed) and once with the covering-radius test
// d(q, routing) <= theta + radius.
//
// Node splits follow the original design: a promotion policy picks two new
// routing objects and the generalized-hyperplane rule partitions entries
// to the closer one. The default policy is the exact mM_RAD rule —
// minimize the larger covering radius over all candidate pairs — computed
// from the split node's full pairwise-distance matrix (node capacities are
// small, so this is cheap and deterministic).

#ifndef TOPK_METRIC_M_TREE_H_
#define TOPK_METRIC_M_TREE_H_

#include <span>
#include <vector>

#include "core/neighbor.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"

namespace topk {

struct MTreeOptions {
  /// Maximum entries per node; a node holding capacity + 1 entries splits.
  uint32_t node_capacity = 32;

  enum class Promotion {
    kRandom,        // two distinct random entries
    kMaxSpread,     // heuristic: far apart pair via two linear passes
    kMinMaxRadius,  // mM_RAD: minimize the larger covering radius (default)
  };
  Promotion promotion = Promotion::kMinMaxRadius;

  /// Seed for the kRandom policy.
  uint64_t seed = 7;
};

class MTree {
 public:
  /// `store` must outlive the tree.
  explicit MTree(const RankingStore* store, MTreeOptions options = {});

  static MTree Build(const RankingStore* store,
                     std::span<const RankingId> ids, MTreeOptions options = {},
                     Statistics* stats = nullptr);
  static MTree BuildAll(const RankingStore* store, MTreeOptions options = {},
                        Statistics* stats = nullptr);

  void Insert(RankingId id, Statistics* stats = nullptr);

  void RangeQueryInto(SortedRankingView query, RawDistance theta_raw,
                      Statistics* stats, std::vector<RankingId>* out) const;
  std::vector<RankingId> RangeQuery(SortedRankingView query,
                                    RawDistance theta_raw,
                                    Statistics* stats = nullptr) const;

  /// The j nearest stored rankings as (id, distance) pairs sorted by
  /// (distance, id): best-first descent ordered by the optimistic subtree
  /// bound max(0, d(q, routing) - radius), pruned against the current
  /// j-th best.
  std::vector<Neighbor> Knn(SortedRankingView query, size_t j,
                            Statistics* stats = nullptr) const;

  size_t size() const { return size_; }
  size_t MemoryUsage() const;

  /// Validates the M-tree invariants (covering radii dominate subtrees,
  /// parent distances are exact); test-only, O(n * depth) distances.
  bool CheckInvariants() const;

 private:
  struct Entry {
    RankingId obj;
    RawDistance parent_dist;  // d(obj, parent routing object); 0 at root
    RawDistance radius;       // covering radius; 0 for leaf entries
    int32_t child;            // node index, or -1 for leaf entries
  };
  struct Node {
    bool is_leaf = true;
    int32_t parent_node = -1;   // -1 for the root
    int32_t parent_entry = -1;  // entry index within the parent node
    std::vector<Entry> entries;
  };

  RawDistance Distance(RankingId a, RankingId b, Statistics* stats) const;
  RawDistance DistanceToQuery(SortedRankingView query, RankingId id,
                              Statistics* stats) const;
  void Split(int32_t node_index, Statistics* stats);
  std::pair<uint32_t, uint32_t> Promote(
      const std::vector<Entry>& entries,
      const std::vector<std::vector<RawDistance>>& dist,
      Statistics* stats);
  void QueryNode(SortedRankingView query, RawDistance theta_raw,
                 int32_t node_index, RawDistance parent_query_dist,
                 bool has_parent_dist, Statistics* stats,
                 std::vector<RankingId>* out) const;
  bool CheckNode(int32_t node_index, RankingId routing,
                 RawDistance radius) const;

  const RankingStore* store_;
  MTreeOptions options_;
  mutable Rng rng_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  size_t size_ = 0;
};

}  // namespace topk

#endif  // TOPK_METRIC_M_TREE_H_
