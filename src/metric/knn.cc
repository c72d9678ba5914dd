#include "metric/knn.h"

#include <algorithm>

#include "core/footrule.h"

namespace topk {

std::vector<Neighbor> LinearScanKnn(const RankingStore& store,
                                    const PreparedQuery& query, size_t j,
                                    Statistics* stats) {
  NeighborHeap heap(j);
  const SortedRankingView q = query.sorted_view();
  for (RankingId id = 0; id < store.size(); ++id) {
    AddTicker(stats, Ticker::kDistanceCalls);
    heap.Offer(id, FootruleDistance(q, store.sorted(id)));
  }
  return std::move(heap).Finish();
}

std::vector<Neighbor> LinearScanKnnBatched(const RankingStore& store,
                                           const PreparedQuery& query,
                                           size_t j,
                                           FootruleValidator* validator,
                                           Statistics* stats,
                                           QueryControl* control,
                                           const KnnSplit* split) {
  NeighborHeap heap(j);
  const size_t item_domain = static_cast<size_t>(store.max_item()) + 1;
  if (split != nullptr && split->parts > 1 && j > 0 &&
      store.size() >= split->min_volume) {
    std::vector<std::vector<Neighbor>> parts(split->parts);
    const bool completed = RunParts(
        *split, control,
        [&](const SplitWorker<FootruleValidator>& worker, size_t p,
            QueryControl* part_control) {
          NeighborHeap part_heap(j);
          worker.scratch->BindQuery(query.view(), item_domain);
          worker.scratch->SweepNearest(
              store, &part_heap, worker.stats, part_control,
              PartWindow(store.size(), split->parts, p));
          parts[p] = std::move(part_heap).Finish();
        });
    if (!completed) return {};
    for (const std::vector<Neighbor>& part : parts) {
      for (const Neighbor& neighbor : part) {
        heap.Offer(neighbor.id, neighbor.distance);
      }
    }
    return std::move(heap).Finish();
  }
  validator->BindQuery(query.view(), item_domain);
  validator->SweepNearest(store, &heap, stats, control);
  if (control != nullptr && control->stopped()) return {};
  return std::move(heap).Finish();
}

std::vector<Neighbor> BkTreeKnn(const BkTree& tree,
                                const PreparedQuery& query, size_t j,
                                Statistics* stats) {
  NeighborHeap heap(j);
  if (tree.empty() || j == 0) return std::move(heap).Finish();
  const auto& nodes = tree.nodes();
  const RankingStore& store = tree.store();
  const SortedRankingView q = query.sorted_view();

  // Depth-first with children visited in order of optimistic subtree
  // distance. Every node x below a child with edge label e satisfies
  // d(x, parent) = e by construction, so |d(q, parent) - e| lower-bounds
  // the whole subtree and pruning against the current j-th best is sound.
  // Distances are offered the moment they are computed so the bound
  // tightens as early as possible.
  struct Frame {
    uint32_t node;
    RawDistance dist;
  };
  std::vector<Frame> stack;
  AddTicker(stats, Ticker::kDistanceCalls);
  const RawDistance root_dist =
      FootruleDistance(q, store.sorted(nodes[0].id));
  heap.Offer(nodes[0].id, root_dist);
  stack.push_back(Frame{0, root_dist});

  std::vector<std::pair<RawDistance, Frame>> children;  // (optimistic, ...)
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    AddTicker(stats, Ticker::kTreeNodesVisited);

    children.clear();
    for (uint32_t child = nodes[frame.node].first_child;
         child != BkTree::kNoNode; child = nodes[child].next_sibling) {
      const RawDistance e = nodes[child].parent_dist;
      const RawDistance optimistic =
          e > frame.dist ? e - frame.dist : frame.dist - e;
      if (optimistic > heap.Bound()) continue;
      RawDistance child_dist;
      if (e == 0) {
        child_dist = frame.dist;  // identical ranking, reuse
      } else {
        AddTicker(stats, Ticker::kDistanceCalls);
        child_dist = FootruleDistance(q, store.sorted(nodes[child].id));
      }
      heap.Offer(nodes[child].id, child_dist);
      children.emplace_back(optimistic, Frame{child, child_dist});
    }
    // Push most promising last so it is explored first.
    std::sort(children.begin(), children.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [optimistic, child_frame] : children) {
      if (optimistic <= heap.Bound()) stack.push_back(child_frame);
    }
  }
  return std::move(heap).Finish();
}

std::vector<Neighbor> MTreeKnn(const MTree& tree, const PreparedQuery& query,
                               size_t j, Statistics* stats) {
  return tree.Knn(query.sorted_view(), j, stats);
}

}  // namespace topk
