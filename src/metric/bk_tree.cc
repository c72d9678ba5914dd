#include "metric/bk_tree.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/footrule.h"

namespace topk {

namespace {

/// One level's unplaced rows. Segment s has head node head[s] and owns the
/// slots [begin[s], begin[s + 1]) of pos, which hold the node indices of
/// its rows in ascending order (insertion order).
struct Level {
  uint32_t* pos;
  uint32_t* head;
  uint32_t* begin;  // segs + 1 entries; begin[segs] == rows
  size_t rows = 0;
  size_t segs = 0;
};

}  // namespace

BkTree BkTree::Build(const RankingStore* store, std::span<const RankingId> ids,
                     Statistics* stats, BkTreeOptions options,
                     const PartRunner& runner) {
  const size_t n = ids.size();
  BkTree tree(store, options);
  std::vector<Node>& nodes = tree.nodes_;
  nodes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    nodes[i] = Node{ids[i], 0, kNoNode, kNoNode};
  }
  if (n <= 1) return tree;

  // All scratch is one flat allocation made here, before any fan-out:
  // ping-pong levels (pos, head, begin), the level's distances, and three
  // tables indexed by distance for the bucketing. A segment has at least
  // one row, so a level never holds more than n - 1 of either.
  const size_t table = MaxDistance(store->k()) + 1;
  std::vector<uint32_t> scratch(7 * n + 3 * table, 0);
  uint32_t* cursor = scratch.data();
  auto carve = [&cursor](size_t words) {
    uint32_t* slice = cursor;
    cursor += words;
    return slice;
  };
  Level cur{carve(n), carve(n), carve(n)};
  Level next{carve(n), carve(n), carve(n)};
  uint32_t* const dist = carve(n);       // row j's distance to its head
  uint32_t* const count = carve(table);  // rows per distance; kept zeroed
  uint32_t* const first = carve(table);  // a bucket's first row
  uint32_t* const seen = carve(table);   // the segment's distinct distances

  for (uint32_t i = 0; i + 1 < n; ++i) cur.pos[i] = i + 1;
  cur.head[0] = 0;
  cur.begin[0] = 0;
  cur.begin[1] = static_cast<uint32_t>(n - 1);
  cur.rows = n - 1;
  cur.segs = 1;

  while (cur.rows > 0) {
    // 1. Every row's distance to its segment head.
    const auto measure = [&](size_t lo, size_t hi) {
      size_t s = static_cast<size_t>(
          std::upper_bound(cur.begin, cur.begin + cur.segs, lo) - cur.begin -
          1);
      for (size_t j = lo; j < hi; ++j) {
        while (cur.begin[s + 1] <= j) ++s;
        dist[j] = static_cast<uint32_t>(
            FootruleDistance(store->sorted(nodes[cur.pos[j]].id),
                             store->sorted(nodes[cur.head[s]].id)));
      }
    };
    if (runner && cur.rows >= kFanOutMinCalls) {
      runner(kSplitParts, [&](size_t, size_t part) {
        const IdWindow window = PartWindow(cur.rows, kSplitParts, part);
        measure(window.lo, window.hi);
      });
    } else {
      measure(0, cur.rows);
    }
    AddTicker(stats, Ticker::kTreeNodesVisited, cur.rows);
    AddTicker(stats, Ticker::kDistanceCalls, cur.rows);

    // 2. Bucket each segment stably by distance.
    next.rows = 0;
    next.segs = 0;
    for (size_t s = 0; s < cur.segs; ++s) {
      const uint32_t head = cur.head[s];
      const uint32_t b = cur.begin[s];
      const uint32_t e = cur.begin[s + 1];
      // Rows in insertion order: a bucket's first row is the head's child
      // on that edge, prepended as insertion would; later rows at distance
      // 0 extend the 0-edge chain.
      size_t distinct = 0;
      uint32_t chain_tail = kNoNode;
      for (uint32_t j = b; j < e; ++j) {
        const uint32_t row = cur.pos[j];
        const uint32_t d = dist[j];
        if (count[d]++ == 0) {
          seen[distinct++] = d;
          first[d] = row;
          nodes[row].parent_dist = d;
          nodes[row].next_sibling = nodes[head].first_child;
          nodes[head].first_child = row;
          if (d == 0) chain_tail = row;
        } else if (d == 0) {
          nodes[chain_tail].first_child = row;
          chain_tail = row;
        }
      }
      // The rest of each nonzero bucket becomes its first row's segment;
      // count[d] turns into that segment's write cursor.
      bool forwards = false;
      for (size_t i = 0; i < distinct; ++i) {
        const uint32_t d = seen[i];
        if (d == 0 || count[d] < 2) continue;
        next.head[next.segs] = first[d];
        next.begin[next.segs] = static_cast<uint32_t>(next.rows);
        ++next.segs;
        const uint32_t rest = count[d] - 1;
        count[d] = static_cast<uint32_t>(next.rows);
        next.rows += rest;
        forwards = true;
      }
      if (forwards) {
        for (uint32_t j = b; j < e; ++j) {
          const uint32_t row = cur.pos[j];
          const uint32_t d = dist[j];
          if (d != 0 && row != first[d]) next.pos[count[d]++] = row;
        }
      }
      for (size_t i = 0; i < distinct; ++i) count[seen[i]] = 0;
    }
    next.begin[next.segs] = static_cast<uint32_t>(next.rows);
    std::swap(cur, next);
  }
  return tree;
}

BkTree BkTree::BuildAll(const RankingStore* store, Statistics* stats,
                        BkTreeOptions options, const PartRunner& runner) {
  std::vector<RankingId> ids(store->size());
  std::iota(ids.begin(), ids.end(), RankingId{0});
  return Build(store, ids, stats, options, runner);
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
  QueryNode(query, theta_raw, 0, root_dist, stats, out);
}

void BkTree::QueryNode(SortedRankingView query, RawDistance theta_raw,
                       uint32_t node_index, RawDistance node_dist,
                       Statistics* stats, std::vector<RankingId>* out) const {
  AddTicker(stats, Ticker::kTreeNodesVisited);
  const Node& node = nodes_[node_index];
  if (node_dist <= theta_raw) out->push_back(node.id);

  // A child at edge distance e can contain matches only if
  // |node_dist - e| <= theta (triangle inequality on the discrete metric).
  for (uint32_t child = node.first_child; child != kNoNode;
       child = nodes_[child].next_sibling) {
    const RawDistance e = nodes_[child].parent_dist;
    const RawDistance gap = e > node_dist ? e - node_dist : node_dist - e;
    if (gap > theta_raw) continue;
    if (e == 0 && options_.reuse_duplicate_distances) {
      // A 0-edge child is an identical ranking: its query distance equals
      // the parent's, no Footrule call needed (the paper's "exact matching
      // rankings in one partition" effect, here inside one tree).
      QueryNode(query, theta_raw, child, node_dist, stats, out);
      continue;
    }
    AddTicker(stats, Ticker::kDistanceCalls);
    const RawDistance child_dist =
        FootruleDistance(query, store_->sorted(nodes_[child].id));
    QueryNode(query, theta_raw, child, child_dist, stats, out);
  }
}

}  // namespace topk
