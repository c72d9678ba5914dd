// Compressed plain inverted index: the storage-tier counterpart of
// PlainInvertedIndex, serving the same id-sorted posting lists out of a
// CompressedPostingArena.
//
// The kernel FilterPhase consumes it through the decoded-lists protocol
// (kernel/filter_phase.h): list_length() answers O(1) from metadata (so
// SelectLists never decodes), and each selected list is decoded through
// DecodeListInRange into the caller-owned FilterScratch landing buffers
// — the whole list for a serial query, only the blocks that meet its id
// window for a part of a split one; the short-list inline tier is handed
// out as a direct span with zero decode. The candidate stream, results
// and every ticker but kBlocksDecoded (which the plain index never
// ticks) are bit-identical to the uncompressed index
// (tests/storage_compress_test.cc pins every engine configuration,
// fuzzed).
//
// CompressedFilterValidateEngine is FilterValidateEngine's class template
// (invidx/filter_validate.h) instantiated over this index.

#ifndef TOPK_STORAGE_COMPRESSED_INDEX_H_
#define TOPK_STORAGE_COMPRESSED_INDEX_H_

#include <span>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/id_split.h"
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

  /// The blocks of `item`'s list that meet `window` (a superset of the
  /// list's entries inside it, ascending); see
  /// CompressedPostingArena::DecodeListInRange.
  std::span<const RankingId> DecodeListInRange(
      ItemId item, IdWindow window, std::vector<RankingId>* scratch,
      Statistics* stats = nullptr) const {
    return arena_.DecodeListInRange(item, window, scratch, stats);
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

/// F&V / F&V+Drop over the compressed index: the one F&V engine
/// (invidx/filter_validate.h) with the storage tier underneath,
/// bit-identical results.
using CompressedFilterValidateEngine =
    BasicFilterValidateEngine<CompressedInvertedIndex>;
using CompressedEngineOptions = FilterValidateOptions;

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_COMPRESSED_INDEX_H_
