#include "storage/compressed_arena.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace topk {
namespace storage {

namespace {

inline RankingId EntryIdOf(RankingId entry) { return entry; }
inline RankingId EntryIdOf(const AugmentedEntry& entry) { return entry.id; }

/// Conservative 16-bit rank bounds of one block (see BlockRankRange:
/// min saturates downward-safe, max saturates to the unbounded marker).
inline BlockRankRange RankRangeOf(std::span<const AugmentedEntry> block) {
  uint32_t lo = block.front().rank;
  uint32_t hi = block.front().rank;
  for (const AugmentedEntry& entry : block) {
    lo = std::min<uint32_t>(lo, entry.rank);
    hi = std::max<uint32_t>(hi, entry.rank);
  }
  BlockRankRange range;
  range.min_rank = static_cast<uint16_t>(
      std::min<uint32_t>(lo, BlockRankRange::kRankRangeUnbounded));
  range.max_rank =
      hi >= BlockRankRange::kRankRangeUnbounded
          ? BlockRankRange::kRankRangeUnbounded
          : static_cast<uint16_t>(hi);
  return range;
}

template <typename Entry>
bool StrictlyAscendingIds(std::span<const Entry> list) {
  for (size_t i = 1; i < list.size(); ++i) {
    if (EntryIdOf(list[i]) <= EntryIdOf(list[i - 1])) return false;
  }
  return true;
}

inline void EncodeBlock(std::span<const RankingId> block,
                        std::vector<uint8_t>* bytes) {
  EncodeIdBlock(block, bytes);
}
inline void EncodeBlock(std::span<const AugmentedEntry> block,
                        std::vector<uint8_t>* bytes) {
  EncodeAugmentedBlock(block, bytes);
}

inline bool DecodeBlock(uint32_t first_id, uint32_t count,
                        const uint8_t* begin, const uint8_t* end,
                        RankingId* out) {
  return DecodeIdBlock(first_id, count, begin, end, out);
}
inline bool DecodeBlock(uint32_t first_id, uint32_t count,
                        const uint8_t* begin, const uint8_t* end,
                        AugmentedEntry* out) {
  return DecodeAugmentedBlock(first_id, count, begin, end, out);
}

}  // namespace

template <typename Entry>
CompressedPostingArena<Entry> CompressedPostingArena<Entry>::FromArena(
    const PostingArena<Entry>& arena) {
  CompressedPostingArena result;
  auto* lists = result.lists_.mutable_owned();
  auto* blocks = result.blocks_.mutable_owned();
  auto* inline_entries = result.inline_.mutable_owned();
  auto* bytes = result.bytes_.mutable_owned();
  lists->reserve(arena.num_lists());

  for (size_t i = 0; i < arena.num_lists(); ++i) {
    const std::span<const Entry> list = arena.list(i);
    CompressedListMeta meta;
    meta.length = static_cast<uint32_t>(list.size());
    // Short lists — and lists the delta codec cannot represent (ids not
    // strictly ascending, e.g. the blocked index's rank-major lists) —
    // take the inline tier verbatim.
    if (list.size() <= kInlineMaxEntries || !StrictlyAscendingIds(list)) {
      TOPK_DCHECK(inline_entries->size() < CompressedListMeta::kInlineBit);
      meta.head = CompressedListMeta::kInlineBit |
                  static_cast<uint32_t>(inline_entries->size());
      inline_entries->insert(inline_entries->end(), list.begin(), list.end());
      if (!list.empty()) ++result.num_inline_lists_;
    } else {
      TOPK_DCHECK(blocks->size() < CompressedListMeta::kInlineBit);
      meta.head = static_cast<uint32_t>(blocks->size());
      for (size_t offset = 0; offset < list.size();
           offset += kBlockEntries) {
        const size_t count = std::min<size_t>(kBlockEntries,
                                              list.size() - offset);
        const std::span<const Entry> block = list.subspan(offset, count);
        blocks->push_back(CompressedBlockMeta{
            EntryIdOf(block.front()), EntryIdOf(block.back()),
            static_cast<uint32_t>(count),
            static_cast<uint32_t>(bytes->size())});
        if constexpr (std::is_same_v<Entry, AugmentedEntry>) {
          result.ranks_.mutable_owned()->push_back(RankRangeOf(block));
        }
        EncodeBlock(block, bytes);
      }
    }
    lists->push_back(meta);
    result.num_entries_ += list.size();
  }
  return result;
}

template <typename Entry>
Result<CompressedPostingArena<Entry>> CompressedPostingArena<Entry>::Adopt(
    std::span<const CompressedListMeta> lists,
    std::span<const CompressedBlockMeta> blocks,
    std::span<const Entry> inline_entries, std::span<const uint8_t> bytes,
    std::span<const BlockRankRange> rank_ranges) {
  // Bounds-validate all metadata up front (O(lists + blocks), metadata
  // sections only) so no later decode can index outside the sections.
  if (!rank_ranges.empty() && rank_ranges.size() != blocks.size()) {
    return Status::InvalidArgument(
        "snapshot rank-range section does not match the block count");
  }
  for (const BlockRankRange& range : rank_ranges) {
    if (range.min_rank > range.max_rank) {
      return Status::InvalidArgument("snapshot block rank range inverted");
    }
  }
  uint32_t previous_offset = 0;
  for (const CompressedBlockMeta& block : blocks) {
    if (block.count == 0 || block.count > kBlockEntries) {
      return Status::InvalidArgument("snapshot block count out of range");
    }
    if (block.byte_offset > bytes.size() ||
        block.byte_offset < previous_offset) {
      return Status::InvalidArgument("snapshot block offsets not monotone");
    }
    previous_offset = block.byte_offset;
  }
  size_t num_entries = 0;
  for (const CompressedListMeta& meta : lists) {
    const uint32_t head = meta.head & ~CompressedListMeta::kInlineBit;
    if ((meta.head & CompressedListMeta::kInlineBit) != 0) {
      if (head > inline_entries.size() ||
          meta.length > inline_entries.size() - head) {
        return Status::InvalidArgument(
            "snapshot inline list outside the inline section");
      }
    } else {
      if (meta.length == 0) {
        return Status::InvalidArgument("snapshot block list of length 0");
      }
      const size_t num_blocks =
          (static_cast<size_t>(meta.length) + kBlockEntries - 1) /
          kBlockEntries;
      if (head > blocks.size() || num_blocks > blocks.size() - head) {
        return Status::InvalidArgument(
            "snapshot list references blocks outside the block section");
      }
      size_t covered = 0;
      for (size_t b = head; b < head + num_blocks; ++b) {
        covered += blocks[b].count;
      }
      if (covered != meta.length) {
        return Status::InvalidArgument(
            "snapshot block counts do not cover the list length");
      }
    }
    num_entries += meta.length;
  }

  CompressedPostingArena result;
  result.lists_.Adopt(lists.data(), lists.size());
  result.blocks_.Adopt(blocks.data(), blocks.size());
  result.ranks_.Adopt(rank_ranges.data(), rank_ranges.size());
  result.inline_.Adopt(inline_entries.data(), inline_entries.size());
  result.bytes_.Adopt(bytes.data(), bytes.size());
  result.num_entries_ = num_entries;
  for (size_t i = 0; i < lists.size(); ++i) {
    if ((lists[i].head & CompressedListMeta::kInlineBit) != 0 &&
        lists[i].length > 0) {
      ++result.num_inline_lists_;
    }
  }
  return result;
}

template <typename Entry>
bool CompressedPostingArena<Entry>::DecodeListInto(size_t i,
                                                   Entry* out) const {
  TOPK_DCHECK(i < lists_.size());
  const CompressedListMeta meta = lists_.data()[i];
  // Nothing to write for an empty list; `out` may then legitimately be
  // null (e.g. an empty caller buffer), which memcpy's nonnull contract
  // would reject even at size 0.
  if (meta.length == 0) return true;
  const uint32_t head = meta.head & ~CompressedListMeta::kInlineBit;
  if ((meta.head & CompressedListMeta::kInlineBit) != 0) {
    std::memcpy(out, inline_.data() + head,
                static_cast<size_t>(meta.length) * sizeof(Entry));
    return true;
  }
  const auto blocks = blocks_.span();
  size_t cursor = 0;
  for (size_t b = head; cursor < meta.length; ++b) {
    const auto [begin, end] = BlockBytes(b);
    if (!DecodeBlock(blocks[b].first_id, blocks[b].count, begin, end,
                     out + cursor)) {
      return false;
    }
    cursor += blocks[b].count;
  }
  return true;
}

template <typename Entry>
std::span<const Entry> CompressedPostingArena<Entry>::DecodeList(
    size_t i, std::vector<Entry>* scratch) const {
  if (i >= lists_.size()) return {};
  const CompressedListMeta meta = lists_.data()[i];
  if ((meta.head & CompressedListMeta::kInlineBit) != 0) {
    const uint32_t head = meta.head & ~CompressedListMeta::kInlineBit;
    return {inline_.data() + head, meta.length};
  }
  if (scratch->size() < meta.length) {
    scratch->resize(meta.length);  // alloc-ok: scratch setup, grow-only
  }
  if (!DecodeListInto(i, scratch->data())) {
    // Malformed payload (possible only for an adopted snapshot whose
    // checksums were never verified): serve zeros rather than stale
    // scratch. Memory safety never depended on this branch.
    TOPK_DCHECK(false && "malformed compressed posting payload");
    std::fill(scratch->data(), scratch->data() + meta.length, Entry{});
  }
  return {scratch->data(), meta.length};
}

template <typename Entry>
template <typename DiscardFn>
std::span<const Entry> CompressedPostingArena<Entry>::DecodeSelectedBlocks(
    size_t i, std::vector<Entry>* scratch, BlockSkipStats* skip,
    const DiscardFn& discard) const {
  if (i >= lists_.size()) return {};
  const CompressedListMeta meta = lists_.data()[i];
  const uint32_t head = meta.head & ~CompressedListMeta::kInlineBit;
  if ((meta.head & CompressedListMeta::kInlineBit) != 0) {
    // Inline lists carry no block metadata to skip on: hand out the
    // stored entries whole (superset semantics, caller filters).
    return {inline_.data() + head, meta.length};
  }
  if (scratch->size() < meta.length) {
    scratch->resize(meta.length);  // alloc-ok: scratch setup, grow-only
  }
  const auto blocks = blocks_.span();
  size_t cursor = 0;
  size_t remaining = meta.length;
  for (size_t b = head; remaining > 0; ++b) {
    const CompressedBlockMeta& block = blocks[b];
    remaining -= block.count;
    if (skip != nullptr) ++skip->blocks_considered;
    if (discard(b)) {
      // Skipped on metadata alone: the block's payload byte range is
      // never computed, never read (scripts/check_invariants.py lints
      // this continue-before-BlockBytes shape).
      if (skip != nullptr) {
        ++skip->blocks_skipped;
        skip->entries_skipped += block.count;
      }
      continue;
    }
    const auto [begin, end] = BlockBytes(b);
    if (!DecodeBlock(block.first_id, block.count, begin, end,
                     scratch->data() + cursor)) {
      // Same policy as DecodeList: malformed payload (unverified
      // snapshot) serves zeros; memory safety never depended on this.
      TOPK_DCHECK(false && "malformed compressed posting payload");
      std::fill(scratch->data() + cursor,
                scratch->data() + cursor + block.count, Entry{});
    }
    cursor += block.count;
  }
  return {scratch->data(), cursor};
}

template <typename Entry>
std::span<const Entry>
CompressedPostingArena<Entry>::DecodeBlocksInRankWindow(
    size_t i, uint32_t rank_lo, uint32_t rank_hi,
    std::vector<Entry>* scratch, BlockSkipStats* skip) const {
  const auto ranks = ranks_.span();
  if (ranks.empty()) {
    // No rank metadata (plain arena, or an adoption without the
    // section): nothing can be proven disjoint, decode everything.
    return DecodeSelectedBlocks(i, scratch, skip,
                                [](size_t) { return false; });
  }
  return DecodeSelectedBlocks(
      i, scratch, skip, [&ranks, rank_lo, rank_hi](size_t b) {
        return ranks[b].DisjointFrom(rank_lo, rank_hi);
      });
}

template class CompressedPostingArena<RankingId>;
template class CompressedPostingArena<AugmentedEntry>;

}  // namespace storage
}  // namespace topk
