// Rank-augmented inverted index (Section 6.2).
//
// Posting entries carry the rank at which the item appears, so a query can
// compute Footrule contributions directly from the lists without touching
// the stored rankings. Lists are id-sorted, enabling both the ListMerge
// merge-join and the NRA-style List-at-a-Time processing.

#ifndef TOPK_INVIDX_AUGMENTED_INVERTED_INDEX_H_
#define TOPK_INVIDX_AUGMENTED_INVERTED_INDEX_H_

#include <span>

#include "core/ranking.h"
#include "core/types.h"
#include "kernel/posting_arena.h"

namespace topk {

/// Rank-augmented posting entry: the rank at which the ranking places the
/// list's item rides next to the ranking id, so Footrule contributions can
/// be computed from the list alone.
struct AugmentedEntry {
  RankingId id;
  Rank rank;
};

/// Two-pass counting build of the rank-augmented CSR arena over the whole
/// store (lists id-sorted, directory sized max_item + 1). Shared by the
/// augmented and blocked indexes, which differ only in post-processing.
PostingArena<AugmentedEntry> BuildAugmentedArena(const RankingStore& store);

class AugmentedInvertedIndex {
 public:
  /// Lists are id-sorted: FilterPhase may take its sorted-merge fast path.
  static constexpr bool kIdSortedLists = true;

  static AugmentedInvertedIndex Build(const RankingStore& store);

  /// Id-sorted posting list for `item` (empty if never indexed).
  std::span<const AugmentedEntry> list(ItemId item) const {
    return arena_.list(item);
  }

  size_t list_length(ItemId item) const { return arena_.list_length(item); }
  size_t num_indexed() const { return num_indexed_; }
  size_t num_entries() const { return arena_.num_entries(); }
  /// Exact heap bytes of the CSR arena (see kernel/posting_arena.h).
  size_t MemoryUsage() const { return arena_.MemoryUsage(); }

  const PostingArena<AugmentedEntry>& arena() const { return arena_; }

 private:
  PostingArena<AugmentedEntry> arena_;
  size_t num_indexed_ = 0;
};

}  // namespace topk

#endif  // TOPK_INVIDX_AUGMENTED_INVERTED_INDEX_H_
