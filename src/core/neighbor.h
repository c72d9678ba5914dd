// k-NN result pairs and the bounded best-j set every k-NN searcher keeps.
//
// A neighbour is a (ranking id, raw Footrule distance) pair; searchers
// order them by distance, then id. NeighborHeap is the one bounded
// max-heap of the j best pairs seen so far: its top is the current worst
// admitted neighbour, whose distance is the pruning bound (the "current
// j-th best" of the metric-space k-NN literature). It lives in core/ so
// the kernel layer's store-wide sweep can offer into it directly.

#ifndef TOPK_CORE_NEIGHBOR_H_
#define TOPK_CORE_NEIGHBOR_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "core/types.h"

namespace topk {

struct Neighbor {
  RankingId id;
  RawDistance distance;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// (distance, id) order: the result order of every k-NN searcher.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
}

/// Bounded best-j set over (distance, id) pairs: a max-heap under
/// NeighborLess whose top is the current worst admitted neighbour.
/// Offers may arrive in any id order; ties on distance are broken by id,
/// so the final set is the same whatever the order.
class NeighborHeap {
 public:
  explicit NeighborHeap(size_t capacity) : capacity_(capacity) {}

  bool full() const { return heap_.size() == capacity_; }

  /// Worst admitted distance; infinite while not full (0 at capacity 0).
  /// A candidate at a distance above it can never enter.
  RawDistance Bound() const {
    if (!full()) return std::numeric_limits<RawDistance>::max();
    return heap_.empty() ? 0 : heap_.front().distance;
  }

  void Offer(RankingId id, RawDistance distance) {
    if (capacity_ == 0) return;
    const Neighbor candidate{id, distance};
    if (!full()) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), NeighborLess);
      return;
    }
    if (NeighborLess(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), NeighborLess);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), NeighborLess);
    }
  }

  /// The admitted neighbours in (distance, id) order.
  std::vector<Neighbor> Finish() && {
    std::sort(heap_.begin(), heap_.end(), NeighborLess);
    return std::move(heap_);
  }

 private:
  size_t capacity_;
  std::vector<Neighbor> heap_;  // max-heap under NeighborLess
};

}  // namespace topk

#endif  // TOPK_CORE_NEIGHBOR_H_
