// Posting-list dropping driven by the minimum-overlap bound (Section 6.1).
//
// A result within raw distance theta of the query must share at least
// w = MinOverlap(k, theta) items with it, so by pigeonhole it is guaranteed
// to appear in any k - w + 1 of the query's k posting lists (conservative
// policy). The paper's Lemma 2 refines this to k - w lists when at least
// one accessed list belongs to an item in the query's top-w positions.
//
// Correctness correction (documented in DESIGN.md and verified by
// exhaustive tests): the k - w refinement is only sound while
// theta <= L(k, w) + 1. Overlap-w results are forced into the "all common
// items in the top-w positions of both rankings" configuration only up to
// that threshold; the cheapest non-top configuration costs exactly
// L(k, w) + 2, so for larger theta within the same w-bracket a result can
// evade every accessed list. SelectLists therefore applies the refinement
// only when it is provably safe and otherwise falls back to the
// conservative policy.

#ifndef TOPK_INVIDX_DROP_POLICY_H_
#define TOPK_INVIDX_DROP_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/bounds.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/simd.h"

namespace topk {

enum class DropMode {
  /// Access all k lists.
  kNone,
  /// Access k - w + 1 lists (always sound).
  kConservative,
  /// Access k - w lists with the top-w guarantee where sound; conservative
  /// elsewhere (Lemma 2 with the correctness guard).
  kPositionRefined,
};

/// The drop mode every serving read runs (ResilientReader's two tiers and
/// each MutableStore segment), decided here once. It costs nothing: at
/// every theta its lists are a subset of kNone's, so it never validates
/// more candidates. It stays exact because RangeSearch keeps its guards —
/// SelectLists falls back to the conservative k - w + 1 lists where
/// Lemma 2's top-w rule is unsound, and from theta >= dmax on the union is
/// bypassed for a sweep of the full id domain.
inline constexpr DropMode kServingDrop = DropMode::kPositionRefined;

const char* DropModeName(DropMode mode);

namespace drop_detail {

/// One query position and the length of its posting list.
struct PositionLength {
  size_t length;
  uint32_t pos;
};

/// SelectLists once it drops lists (mode != kNone, w = MinOverlap >= 2):
/// `lists[p]` = {length of position p's list, p} for every position p.
/// One body for every length callable SelectLists is instantiated with.
std::vector<uint32_t> SelectByLength(std::span<PositionLength> lists,
                                     uint32_t w, RawDistance theta_raw,
                                     DropMode mode, Statistics* stats);

}  // namespace drop_detail

/// Returns the query positions (ranks) whose posting lists must be
/// accessed, in ascending position order. `list_length(item)` supplies the
/// posting-list length so the longest lists are dropped first — the paper's
/// recommendation, since dropping long lists saves the most scanning. Each
/// length is read once, and only when lists may be dropped; equal lengths
/// drop the earlier position first. Only the result is allocated (and, for
/// k > 64, the lengths). Out of line: inlined, it would grow
/// RangeSearch's body around the query loop.
template <typename ListLength>
TOPK_NOINLINE std::vector<uint32_t> SelectLists(RankingView query,
                                                RawDistance theta_raw,
                                                DropMode mode,
                                                const ListLength& list_length,
                                                Statistics* stats = nullptr) {
  const uint32_t k = query.k();
  const uint32_t w = MinOverlap(k, theta_raw);
  if (mode == DropMode::kNone || w <= 1) {
    // w == 0 would mean even disjoint rankings qualify (theta >= dmax) and
    // an inverted index cannot find those at all; w == 1 permits no drops.
    std::vector<uint32_t> all(k);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  drop_detail::PositionLength stack_lists[64];
  std::vector<drop_detail::PositionLength> heap_lists(k > 64 ? k : 0);
  const std::span<drop_detail::PositionLength> lists =
      k > 64 ? std::span(heap_lists) : std::span(stack_lists).first(k);
  for (uint32_t pos = 0; pos < k; ++pos) {
    lists[pos] = {static_cast<size_t>(list_length(query[pos])), pos};
  }
  return drop_detail::SelectByLength(lists, w, theta_raw, mode, stats);
}

}  // namespace topk

#endif  // TOPK_INVIDX_DROP_POLICY_H_
