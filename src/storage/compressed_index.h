// Compressed plain inverted index: the storage-tier counterpart of
// PlainInvertedIndex, serving the same id-sorted posting lists out of a
// CompressedPostingArena.
//
// The kernel FilterPhase consumes it through the decoded-lists protocol
// (kernel/filter_phase.h): list_length() answers O(1) from metadata (so
// SelectLists never decodes), and each selected list is decoded once
// into the caller-owned FilterScratch landing buffers — the short-list
// inline tier is handed out as a direct span with zero decode. The
// candidate stream, tickers, and results are bit-identical to the
// uncompressed index (tests/storage_compress_test.cc pins every engine
// configuration, fuzzed).
//
// CompressedFilterValidateEngine mirrors FilterValidateEngine exactly —
// both bind the kernel RangeSearch (kernel/range_search.h) — so the only
// moving part between the two is where the posting bytes come from.

#ifndef TOPK_STORAGE_COMPRESSED_INDEX_H_
#define TOPK_STORAGE_COMPRESSED_INDEX_H_

#include <span>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/range_search.h"
#include "storage/compressed_arena.h"

namespace topk {
namespace storage {

class CompressedInvertedIndex {
 public:
  /// Lists are id-sorted (they decode to exactly PlainInvertedIndex's
  /// lists): FilterPhase may take its sorted-merge fast path.
  static constexpr bool kIdSortedLists = true;
  /// Lists are served through DecodeList(item, scratch), not list(item).
  static constexpr bool kDecodedLists = true;
  /// Decoded entry type (selects the FilterScratch landing buffers).
  using PostingEntry = RankingId;

  CompressedInvertedIndex() = default;

  /// Compresses an already-built plain index's arena.
  static CompressedInvertedIndex FromPlain(const PlainInvertedIndex& plain) {
    CompressedInvertedIndex index;
    index.arena_ = CompressedPostingArena<RankingId>::FromArena(plain.arena());
    index.num_indexed_ = plain.num_indexed();
    return index;
  }

  /// Indexes every ranking in `store` (builds the plain CSR arena, then
  /// compresses it; the intermediate is dropped).
  static CompressedInvertedIndex Build(const RankingStore& store) {
    return FromPlain(PlainInvertedIndex::Build(store));
  }

  /// Wraps adopted (mmap'd) sections; see CompressedPostingArena::Adopt.
  static CompressedInvertedIndex FromParts(
      CompressedPostingArena<RankingId> arena, size_t num_indexed) {
    CompressedInvertedIndex index;
    index.arena_ = std::move(arena);
    index.num_indexed_ = num_indexed;
    return index;
  }

  /// Posting list for `item`, decoded into `scratch` when compressed,
  /// served directly from the inline tier otherwise.
  std::span<const RankingId> DecodeList(
      ItemId item, std::vector<RankingId>* scratch) const {
    return arena_.DecodeList(item, scratch);
  }

  size_t list_length(ItemId item) const { return arena_.list_length(item); }
  size_t num_indexed() const { return num_indexed_; }
  size_t num_entries() const { return arena_.num_entries(); }
  size_t MemoryUsage() const { return arena_.MemoryUsage(); }

  const CompressedPostingArena<RankingId>& arena() const { return arena_; }

 private:
  CompressedPostingArena<RankingId> arena_;
  size_t num_indexed_ = 0;
};

struct CompressedEngineOptions {
  DropMode drop = DropMode::kNone;
};

/// F&V / F&V+Drop over the compressed index: FilterValidateEngine with
/// the storage tier underneath, bit-identical results.
class CompressedFilterValidateEngine {
 public:
  /// `store` and `index` must outlive the engine.
  CompressedFilterValidateEngine(const RankingStore* store,
                                 const CompressedInvertedIndex* index,
                                 CompressedEngineOptions options = {});

  /// All rankings within raw distance `theta_raw` of the query, in
  /// ascending id order.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr);

 private:
  const RankingStore* store_;
  const CompressedInvertedIndex* index_;
  CompressedEngineOptions options_;
  RangeScratch scratch_;
};

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_COMPRESSED_INDEX_H_
