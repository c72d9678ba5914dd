#include "metric/m_tree.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/footrule.h"

namespace topk {

MTree::MTree(const RankingStore* store, MTreeOptions options)
    : store_(store), options_(options), rng_(options.seed) {
  TOPK_DCHECK(options_.node_capacity >= 2);
}

MTree MTree::Build(const RankingStore* store, std::span<const RankingId> ids,
                   MTreeOptions options, Statistics* stats) {
  MTree tree(store, options);
  for (RankingId id : ids) tree.Insert(id, stats);
  return tree;
}

MTree MTree::BuildAll(const RankingStore* store, MTreeOptions options,
                      Statistics* stats) {
  MTree tree(store, options);
  for (RankingId id = 0; id < store->size(); ++id) tree.Insert(id, stats);
  return tree;
}

RawDistance MTree::Distance(RankingId a, RankingId b, Statistics* stats) const {
  AddTicker(stats, Ticker::kDistanceCalls);
  return FootruleDistance(store_->sorted(a), store_->sorted(b));
}

RawDistance MTree::DistanceToQuery(SortedRankingView query, RankingId id,
                                   Statistics* stats) const {
  AddTicker(stats, Ticker::kDistanceCalls);
  return FootruleDistance(query, store_->sorted(id));
}

void MTree::Insert(RankingId id, Statistics* stats) {
  ++size_;
  if (root_ < 0) {
    Node root;
    root.is_leaf = true;
    root.entries.push_back(Entry{id, 0, 0, -1});
    nodes_.push_back(std::move(root));
    root_ = 0;
    return;
  }

  // Descend to a leaf, choosing at each level the routing entry that needs
  // the least (ideally zero) radius enlargement; enlarge radii on the way.
  int32_t current = root_;
  RawDistance dist_to_routing = 0;
  while (!nodes_[current].is_leaf) {
    Node& node = nodes_[current];
    int32_t best = -1;
    RawDistance best_dist = 0;
    bool best_inside = false;
    RawDistance best_enlarge = std::numeric_limits<RawDistance>::max();
    for (size_t e = 0; e < node.entries.size(); ++e) {
      const RawDistance d = Distance(id, node.entries[e].obj, stats);
      const bool inside = d <= node.entries[e].radius;
      if (inside) {
        if (!best_inside || d < best_dist) {
          best = static_cast<int32_t>(e);
          best_dist = d;
          best_inside = true;
        }
      } else if (!best_inside) {
        const RawDistance enlarge = d - node.entries[e].radius;
        if (enlarge < best_enlarge) {
          best = static_cast<int32_t>(e);
          best_dist = d;
          best_enlarge = enlarge;
        }
      }
    }
    TOPK_DCHECK(best >= 0);
    Entry& chosen = node.entries[best];
    chosen.radius = std::max(chosen.radius, best_dist);
    dist_to_routing = best_dist;
    current = chosen.child;
  }

  nodes_[current].entries.push_back(Entry{id, dist_to_routing, 0, -1});
  if (nodes_[current].entries.size() > options_.node_capacity) {
    Split(current, stats);
  }
}

std::pair<uint32_t, uint32_t> MTree::Promote(
    const std::vector<Entry>& entries,
    const std::vector<std::vector<RawDistance>>& dist, Statistics* stats) {
  (void)stats;
  const size_t m = entries.size();
  switch (options_.promotion) {
    case MTreeOptions::Promotion::kRandom: {
      const auto a = static_cast<uint32_t>(rng_.Below(m));
      uint32_t b = static_cast<uint32_t>(rng_.Below(m - 1));
      if (b >= a) ++b;
      return {a, b};
    }
    case MTreeOptions::Promotion::kMaxSpread: {
      // Two linear passes from entry 0: farthest, then farthest from that.
      uint32_t a = 0;
      for (uint32_t i = 1; i < m; ++i) {
        if (dist[0][i] > dist[0][a]) a = i;
      }
      uint32_t b = a == 0 ? 1 : 0;
      for (uint32_t i = 0; i < m; ++i) {
        if (i != a && dist[a][i] > dist[a][b]) b = i;
      }
      return {a, b};
    }
    case MTreeOptions::Promotion::kMinMaxRadius: {
      // mM_RAD: over all pairs, partition by the hyperplane rule and pick
      // the pair whose larger covering radius is smallest.
      uint32_t best_a = 0;
      uint32_t best_b = 1;
      auto worst = std::numeric_limits<RawDistance>::max();
      for (uint32_t a = 0; a < m; ++a) {
        for (uint32_t b = a + 1; b < m; ++b) {
          RawDistance ra = 0;
          RawDistance rb = 0;
          for (uint32_t i = 0; i < m; ++i) {
            // Internal entries extend the radius by their own radius.
            const RawDistance da = dist[a][i] + entries[i].radius;
            const RawDistance db = dist[b][i] + entries[i].radius;
            if (dist[a][i] <= dist[b][i]) {
              ra = std::max(ra, da);
            } else {
              rb = std::max(rb, db);
            }
          }
          const RawDistance max_radius = std::max(ra, rb);
          if (max_radius < worst) {
            worst = max_radius;
            best_a = a;
            best_b = b;
          }
        }
      }
      return {best_a, best_b};
    }
  }
  return {0, 1};
}

void MTree::Split(int32_t node_index, Statistics* stats) {
  // Take the overflowing entries out of the node.
  std::vector<Entry> entries = std::move(nodes_[node_index].entries);
  nodes_[node_index].entries.clear();
  const size_t m = entries.size();

  // Full pairwise distance matrix among the split entries: promotion and
  // partitioning both read from it, so every distance is computed once.
  std::vector<std::vector<RawDistance>> dist(m,
                                             std::vector<RawDistance>(m, 0));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      dist[i][j] = dist[j][i] = Distance(entries[i].obj, entries[j].obj,
                                         stats);
    }
  }

  const auto [p1, p2] = Promote(entries, dist, stats);

  // Generalized hyperplane: each entry goes to the closer promoted object
  // (ties to p1); the promoted objects anchor their own sides.
  const int32_t left_index = node_index;
  Node& left = nodes_[left_index];
  Node right_node;
  right_node.is_leaf = left.is_leaf;
  const auto right_index = static_cast<int32_t>(nodes_.size());

  RawDistance left_radius = 0;
  RawDistance right_radius = 0;
  std::vector<Entry> left_entries;
  std::vector<Entry> right_entries;
  for (uint32_t i = 0; i < m; ++i) {
    Entry entry = entries[i];
    // Hyperplane rule with balanced ties: duplicate-heavy collections make
    // dist[p1][i] == dist[p2][i] common (often all zero), and sending every
    // tie to one side degenerates the tree into (capacity, 1) splits —
    // quadratic build time and one node per entry.
    bool to_left;
    if (i == p1) {
      to_left = true;
    } else if (i == p2) {
      to_left = false;
    } else if (dist[p1][i] != dist[p2][i]) {
      to_left = dist[p1][i] < dist[p2][i];
    } else {
      to_left = left_entries.size() <= right_entries.size();
    }
    if (to_left) {
      entry.parent_dist = dist[p1][i];
      left_radius = std::max(left_radius, dist[p1][i] + entry.radius);
      left_entries.push_back(entry);
    } else {
      entry.parent_dist = dist[p2][i];
      right_radius = std::max(right_radius, dist[p2][i] + entry.radius);
      right_entries.push_back(entry);
    }
  }
  left.entries = std::move(left_entries);
  right_node.entries = std::move(right_entries);

  const RankingId obj1 = entries[p1].obj;
  const RankingId obj2 = entries[p2].obj;

  nodes_.push_back(std::move(right_node));
  // Fix child back-pointers for internal splits.
  for (int32_t side : {left_index, right_index}) {
    Node& node = nodes_[side];
    if (node.is_leaf) continue;
    for (size_t e = 0; e < node.entries.size(); ++e) {
      Node& child = nodes_[node.entries[e].child];
      child.parent_node = side;
      child.parent_entry = static_cast<int32_t>(e);
    }
  }

  const int32_t parent = nodes_[left_index].parent_node;
  if (parent < 0) {
    // Split of the root: grow the tree by one level.
    Node new_root;
    new_root.is_leaf = false;
    new_root.entries.push_back(Entry{obj1, 0, left_radius, left_index});
    new_root.entries.push_back(Entry{obj2, 0, right_radius, right_index});
    const auto new_root_index = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(std::move(new_root));
    nodes_[left_index].parent_node = new_root_index;
    nodes_[left_index].parent_entry = 0;
    nodes_[right_index].parent_node = new_root_index;
    nodes_[right_index].parent_entry = 1;
    root_ = new_root_index;
    return;
  }

  // Replace the parent's entry for this node and add one for the new node.
  const int32_t parent_entry = nodes_[left_index].parent_entry;
  Node& parent_node = nodes_[parent];
  const RankingId parent_routing =
      nodes_[parent].parent_node < 0
          ? kInvalidRankingId
          : nodes_[nodes_[parent].parent_node]
                .entries[nodes_[parent].parent_entry]
                .obj;
  auto dist_to_parent_routing = [&](RankingId obj) -> RawDistance {
    if (parent_routing == kInvalidRankingId) return 0;  // parent is root
    return Distance(obj, parent_routing, stats);
  };

  parent_node.entries[parent_entry] =
      Entry{obj1, dist_to_parent_routing(obj1), left_radius, left_index};
  parent_node.entries.push_back(
      Entry{obj2, dist_to_parent_routing(obj2), right_radius, right_index});
  nodes_[right_index].parent_node = parent;
  nodes_[right_index].parent_entry =
      static_cast<int32_t>(parent_node.entries.size() - 1);

  if (parent_node.entries.size() > options_.node_capacity) {
    Split(parent, stats);
  }
}

void MTree::RangeQueryInto(SortedRankingView query, RawDistance theta_raw,
                           Statistics* stats,
                           std::vector<RankingId>* out) const {
  if (root_ < 0) return;
  QueryNode(query, theta_raw, root_, 0, /*has_parent_dist=*/false, stats,
            out);
}

std::vector<RankingId> MTree::RangeQuery(SortedRankingView query,
                                         RawDistance theta_raw,
                                         Statistics* stats) const {
  std::vector<RankingId> out;
  RangeQueryInto(query, theta_raw, stats, &out);
  std::sort(out.begin(), out.end());
  return out;
}

void MTree::QueryNode(SortedRankingView query, RawDistance theta_raw,
                      int32_t node_index, RawDistance parent_query_dist,
                      bool has_parent_dist, Statistics* stats,
                      std::vector<RankingId>* out) const {
  AddTicker(stats, Ticker::kTreeNodesVisited);
  const Node& node = nodes_[node_index];
  for (const Entry& entry : node.entries) {
    if (has_parent_dist) {
      // Cheap triangle-inequality filter using the precomputed
      // entry-to-parent distance: no Footrule call needed to discard.
      const RawDistance gap = entry.parent_dist > parent_query_dist
                                  ? entry.parent_dist - parent_query_dist
                                  : parent_query_dist - entry.parent_dist;
      if (gap > theta_raw + entry.radius) continue;
    }
    const RawDistance d = DistanceToQuery(query, entry.obj, stats);
    if (node.is_leaf) {
      if (d <= theta_raw) out->push_back(entry.obj);
    } else if (d <= theta_raw + entry.radius) {
      QueryNode(query, theta_raw, entry.child, d, /*has_parent_dist=*/true,
                stats, out);
    }
  }
}

std::vector<Neighbor> MTree::Knn(SortedRankingView query, size_t j,
                                 Statistics* stats) const {
  NeighborHeap heap(j);
  if (root_ >= 0 && j > 0) {
    // Best-first over nodes keyed by the optimistic subtree bound.
    struct Pending {
      RawDistance optimistic;
      int32_t node;
      bool operator>(const Pending& other) const {
        return optimistic > other.optimistic;
      }
    };
    std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue;
    queue.push(Pending{0, root_});
    while (!queue.empty()) {
      const Pending pending = queue.top();
      queue.pop();
      if (pending.optimistic > heap.Bound()) break;  // nothing left can improve
      AddTicker(stats, Ticker::kTreeNodesVisited);
      const Node& node = nodes_[pending.node];
      for (const Entry& entry : node.entries) {
        const RawDistance d = DistanceToQuery(query, entry.obj, stats);
        if (node.is_leaf) {
          heap.Offer(entry.obj, d);
        } else {
          // Routing objects are promoted *copies* of objects that also
          // live in some leaf; offering them here would duplicate ids.
          const RawDistance optimistic =
              d > entry.radius ? d - entry.radius : 0;
          if (optimistic <= heap.Bound()) {
            queue.push(Pending{optimistic, entry.child});
          }
        }
      }
    }
  }
  return std::move(heap).Finish();
}

size_t MTree::MemoryUsage() const {
  size_t bytes = nodes_.capacity() * sizeof(Node);
  for (const Node& node : nodes_) {
    bytes += node.entries.capacity() * sizeof(Entry);
  }
  return bytes;
}

bool MTree::CheckInvariants() const {
  if (root_ < 0) return true;
  const Node& root = nodes_[root_];
  for (const Entry& entry : root.entries) {
    if (entry.child >= 0 && !CheckNode(entry.child, entry.obj, entry.radius)) {
      return false;
    }
  }
  return true;
}

bool MTree::CheckNode(int32_t node_index, RankingId routing,
                      RawDistance radius) const {
  // Invariants for the subtree rooted at `node_index`, whose routing
  // object is `routing` with covering radius `radius`:
  //  (a) every entry's parent_dist is the exact distance to `routing`;
  //  (b) every object anywhere in the subtree lies within `radius` of
  //      `routing` — checked transitively through CollectWithin.
  const Node& node = nodes_[node_index];
  for (const Entry& entry : node.entries) {
    const RawDistance d =
        FootruleDistance(store_->sorted(entry.obj), store_->sorted(routing));
    if (d != entry.parent_dist) return false;
    if (d > radius) return false;
    if (entry.child >= 0) {
      // The child's own covering ball must hold its subtree...
      if (!CheckNode(entry.child, entry.obj, entry.radius)) return false;
      // ...and so must this node's ball around `routing`: walk the child
      // subtree and verify each object directly.
      std::vector<RankingId> objs;
      std::vector<int32_t> stack = {entry.child};
      while (!stack.empty()) {
        const Node& sub = nodes_[stack.back()];
        stack.pop_back();
        for (const Entry& se : sub.entries) {
          objs.push_back(se.obj);
          if (se.child >= 0) stack.push_back(se.child);
        }
      }
      for (RankingId obj : objs) {
        if (FootruleDistance(store_->sorted(obj), store_->sorted(routing)) >
            radius) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace topk
