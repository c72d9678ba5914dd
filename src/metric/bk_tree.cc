#include "metric/bk_tree.h"

#include <algorithm>

#include "core/footrule.h"

namespace topk {

BkTree BkTree::Build(const RankingStore* store, std::span<const RankingId> ids,
                     Statistics* stats, BkTreeOptions options) {
  BkTree tree(store, options);
  tree.nodes_.reserve(ids.size());
  std::vector<uint32_t> chain_tails(ids.size(), kNoNode);
  for (RankingId id : ids) tree.Insert(id, &chain_tails, stats);
  return tree;
}

BkTree BkTree::BuildAll(const RankingStore* store, Statistics* stats,
                        BkTreeOptions options) {
  BkTree tree(store, options);
  tree.nodes_.reserve(store->size());
  std::vector<uint32_t> chain_tails(store->size(), kNoNode);
  for (RankingId id = 0; id < store->size(); ++id) {
    tree.Insert(id, &chain_tails, stats);
  }
  return tree;
}

void BkTree::Insert(RankingId id, std::vector<uint32_t>* chain_tails,
                    Statistics* stats) {
  const auto new_index = static_cast<uint32_t>(nodes_.size());
  if (nodes_.empty()) {
    nodes_.push_back(Node{id, 0, kNoNode, kNoNode});
    return;
  }
  const SortedRankingView inserted = store_->sorted(id);
  uint32_t current = 0;
  for (;;) {
    AddTicker(stats, Ticker::kTreeNodesVisited);
    AddTicker(stats, Ticker::kDistanceCalls);
    const RawDistance d =
        FootruleDistance(inserted, store_->sorted(nodes_[current].id));
    uint32_t parent = current;
    if (d == 0) {
      // The new ranking is *identical* to `current` (the metric is
      // regular), the first such node on its path: the head of its 0-edge
      // chain. Every node below the head on the chain is identical too and
      // has no other child, so plain descent would walk to the chain's
      // tail without a distance call; jump there directly instead.
      uint32_t& tail = (*chain_tails)[current];
      if (tail != kNoNode) parent = tail;
      tail = new_index;
    } else {
      // Find the child whose edge label equals d; descend if present.
      uint32_t child = nodes_[current].first_child;
      while (child != kNoNode && nodes_[child].parent_dist != d) {
        child = nodes_[child].next_sibling;
      }
      if (child != kNoNode) {
        current = child;
        continue;
      }
    }
    nodes_.push_back(Node{id, d, kNoNode, nodes_[parent].first_child});
    nodes_[parent].first_child = new_index;
    return;
  }
}

void BkTree::RangeQueryInto(SortedRankingView query, RawDistance theta_raw,
                            Statistics* stats,
                            std::vector<RankingId>* out) const {
  if (nodes_.empty()) return;
  AddTicker(stats, Ticker::kDistanceCalls);
  const RawDistance root_dist =
      FootruleDistance(query, store_->sorted(nodes_[0].id));
  RangeQueryWithRootDistance(query, theta_raw, root_dist, stats, out);
}

std::vector<RankingId> BkTree::RangeQuery(SortedRankingView query,
                                          RawDistance theta_raw,
                                          Statistics* stats) const {
  std::vector<RankingId> out;
  RangeQueryInto(query, theta_raw, stats, &out);
  std::sort(out.begin(), out.end());
  return out;
}

void BkTree::RangeQueryWithRootDistance(SortedRankingView query,
                                        RawDistance theta_raw,
                                        RawDistance root_dist,
                                        Statistics* stats,
                                        std::vector<RankingId>* out) const {
  if (nodes_.empty()) return;
  QueryNodeImpl(
      [this, query](RankingId id) {
        return FootruleDistance(query, store_->sorted(id));
      },
      [out](RankingId id, RawDistance) { out->push_back(id); }, theta_raw, 0,
      root_dist, stats);
}

void BkTree::RangeQueryWithRootDistance(SortedRankingView query,
                                        RawDistance theta_raw,
                                        RawDistance root_dist,
                                        Statistics* stats,
                                        std::vector<Neighbor>* out) const {
  if (nodes_.empty()) return;
  QueryNodeImpl(
      [this, query](RankingId id) {
        return FootruleDistance(query, store_->sorted(id));
      },
      [out](RankingId id, RawDistance d) { out->push_back(Neighbor{id, d}); },
      theta_raw, 0, root_dist, stats);
}

void BkTree::RangeQueryWithRootDistance(const FootruleValidator& validator,
                                        RawDistance theta_raw,
                                        RawDistance root_dist,
                                        Statistics* stats,
                                        std::vector<RankingId>* out) const {
  if (nodes_.empty()) return;
  QueryNodeImpl(
      [this, &validator](RankingId id) {
        return validator.Distance(store_->view(id));
      },
      [out](RankingId id, RawDistance) { out->push_back(id); }, theta_raw, 0,
      root_dist, stats);
}

template <typename DistanceFn, typename EmitFn>
void BkTree::QueryNodeImpl(const DistanceFn& distance, const EmitFn& emit,
                           RawDistance theta_raw, uint32_t node_index,
                           RawDistance node_dist, Statistics* stats) const {
  AddTicker(stats, Ticker::kTreeNodesVisited);
  const Node& node = nodes_[node_index];
  if (node_dist <= theta_raw) emit(node.id, node_dist);

  // A child at edge distance e can contain matches only if
  // |node_dist - e| <= theta (triangle inequality on the discrete metric).
  for (uint32_t child = node.first_child; child != kNoNode;
       child = nodes_[child].next_sibling) {
    const RawDistance e = nodes_[child].parent_dist;
    const RawDistance gap = e > node_dist ? e - node_dist : node_dist - e;
    if (gap > theta_raw) continue;
    if (e == 0 && options_.reuse_duplicate_distances) {
      // A 0-edge child is an identical ranking: its query distance equals
      // the parent's, no Footrule call needed. This is the paper's
      // "exact matching rankings in one partition" effect that lets the
      // coarse index undercut even the Minimal F&V oracle in Figure 10.
      QueryNodeImpl(distance, emit, theta_raw, child, node_dist, stats);
      continue;
    }
    AddTicker(stats, Ticker::kDistanceCalls);
    const RawDistance child_dist = distance(nodes_[child].id);
    QueryNodeImpl(distance, emit, theta_raw, child, child_dist, stats);
  }
}

}  // namespace topk
