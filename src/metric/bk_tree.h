// Burkhard-Keller tree over the discrete Footrule metric (Section 4.1).
//
// Every node holds one ranking; a child subtree groups all descendants at
// one specific raw distance from its parent. Range queries descend into a
// child with edge distance e only when |d(query, node) - e| <= theta, by
// the triangle inequality.
//
// Nodes are kept in one flat vector using first-child/next-sibling links —
// no per-node maps, cache-friendly traversal, trivially serializable. The
// coarse index additionally uses the tree's structure to carve partitions
// (see cluster/bk_partitioner).
//
// Bulk load. Build places rows level by level instead of inserting them
// one at a time. Every unplaced row sits in a segment headed by the node
// it descends to; each level computes every row's distance to its head
// (split over a PartRunner when the level is large enough), then buckets
// each segment stably by that distance. A bucket's first row becomes the
// head's child on that edge and the rest of the bucket becomes the child's
// segment for the next level; bucket 0 (exact duplicates, the metric is
// regular) becomes the head's 0-edge chain in row order. That is the tree
// inserting the ids in order builds, node for node: node i holds ids[i],
// siblings run in descending node index (insertion prepends them), and a
// row pays one distance call per ancestor it is measured against, up to
// its chain head. A group of c identical rankings therefore costs c calls,
// not c^2/2, without any chain-tail index.

#ifndef TOPK_METRIC_BK_TREE_H_
#define TOPK_METRIC_BK_TREE_H_

#include <span>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/id_split.h"

namespace topk {

struct BkTreeOptions {
  /// Reuse the parent's query distance for 0-edge children (identical
  /// rankings) instead of recomputing it. Strictly beneficial and always
  /// sound (the metric is regular), so it defaults to on; the Figure 5/6
  /// benches disable it to stay faithful to the paper's baseline BK-tree,
  /// which is implemented straight from Burkhard-Keller without the trick
  /// (the paper uses it only in the coarse index's partition trees).
  bool reuse_duplicate_distances = true;
};

class BkTree {
 public:
  static constexpr uint32_t kNoNode = 0xffffffffu;

  /// A build level whose distance pass makes fewer Footrule calls than
  /// this runs inline on the caller even when a runner is given. A fan-out
  /// pays ParallelFor's wake-up and join (~0.05-0.1 ms with 3 executors on
  /// a 4-vCPU VM), which a level of a few thousand ~30 ns calls does not
  /// repay, and a 200k-row build has ~150 levels, most of them short.
  static constexpr size_t kFanOutMinCalls = 16384;

  struct Node {
    RankingId id;
    RawDistance parent_dist;  // edge label; 0 for the root
    uint32_t first_child = kNoNode;
    uint32_t next_sibling = kNoNode;
  };

  /// `store` must outlive the tree.
  explicit BkTree(const RankingStore* store, BkTreeOptions options = {})
      : store_(store), options_(options) {}

  /// Builds the tree that inserting `ids` in order gives (the paper's
  /// construction; the tree shape depends on insertion order), by the
  /// level-synchronous bulk load above. Distance computations and the
  /// nodes each row is measured against are tallied into `stats` if given.
  /// A non-empty `runner` splits every large level's distance pass into
  /// parts; the tree and the tallies are the same with or without it.
  static BkTree Build(const RankingStore* store,
                      std::span<const RankingId> ids,
                      Statistics* stats = nullptr,
                      BkTreeOptions options = {},
                      const PartRunner& runner = {});

  /// Builds over the entire store.
  static BkTree BuildAll(const RankingStore* store,
                         Statistics* stats = nullptr,
                         BkTreeOptions options = {},
                         const PartRunner& runner = {});

  /// Appends all rankings within `theta_raw` of the query to `out`.
  void RangeQueryInto(SortedRankingView query, RawDistance theta_raw,
                      Statistics* stats, std::vector<RankingId>* out) const;

  std::vector<RankingId> RangeQuery(SortedRankingView query,
                                    RawDistance theta_raw,
                                    Statistics* stats = nullptr) const;

  /// Range query when d(query, root) is already known (RangeQueryInto
  /// computes it first).
  void RangeQueryWithRootDistance(SortedRankingView query,
                                  RawDistance theta_raw,
                                  RawDistance root_dist, Statistics* stats,
                                  std::vector<RankingId>* out) const;

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const RankingStore& store() const { return *store_; }
  size_t MemoryUsage() const { return nodes_.capacity() * sizeof(Node); }

 private:
  /// The traversal below one node whose query distance is `node_dist`:
  /// the pruning rule, the 0-edge duplicate-distance reuse and the
  /// tickers.
  void QueryNode(SortedRankingView query, RawDistance theta_raw,
                 uint32_t node_index, RawDistance node_dist,
                 Statistics* stats, std::vector<RankingId>* out) const;

  const RankingStore* store_;
  BkTreeOptions options_;
  std::vector<Node> nodes_;
};

}  // namespace topk

#endif  // TOPK_METRIC_BK_TREE_H_
