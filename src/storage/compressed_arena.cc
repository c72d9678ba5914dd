#include "storage/compressed_arena.h"

#include <algorithm>
#include <cstring>

namespace topk {
namespace storage {

namespace {

bool StrictlyAscendingIds(std::span<const RankingId> list) {
  for (size_t i = 1; i < list.size(); ++i) {
    if (list[i] <= list[i - 1]) return false;
  }
  return true;
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
    // strictly ascending) — take the inline tier verbatim.
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
            block.front(), block.back(), static_cast<uint32_t>(count),
            static_cast<uint32_t>(bytes->size())});
        EncodeIdBlock(block, bytes);
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
    std::span<const Entry> inline_entries, std::span<const uint8_t> bytes) {
  // Bounds-validate all metadata up front (O(lists + blocks), metadata
  // sections only) so no later decode can index outside the sections.
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
bool CompressedPostingArena<Entry>::DecodeBlocksInRange(
    size_t i, IdWindow window, Entry* out, size_t* written,
    Statistics* stats) const {
  TOPK_DCHECK(i < lists_.size());
  *written = 0;
  const CompressedListMeta meta = lists_.data()[i];
  // Nothing to write for an empty list; `out` may then legitimately be
  // null (e.g. an empty caller buffer), which memcpy's nonnull contract
  // would reject even at size 0.
  if (meta.length == 0) return true;
  const uint32_t head = meta.head & ~CompressedListMeta::kInlineBit;
  if ((meta.head & CompressedListMeta::kInlineBit) != 0) {
    std::memcpy(out, inline_.data() + head,
                static_cast<size_t>(meta.length) * sizeof(Entry));
    *written = meta.length;
    return true;
  }
  if (window.lo >= window.hi) return true;
  // Adopt checked that these blocks exist and that their counts sum to
  // the list length, so `out` never overflows whichever blocks decode.
  const std::span<const CompressedBlockMeta> blocks = blocks_.span().subspan(
      head, (static_cast<size_t>(meta.length) + kBlockEntries - 1) /
                kBlockEntries);
  // A list's blocks ascend by id, so a binary search over their last ids
  // finds the first that can meet the window, and the first block past
  // the window ends the walk. Metadata alone decides either way; the
  // guard below also keeps a block of a corrupt, unordered directory that
  // misses the window from being decoded.
  size_t b = static_cast<size_t>(
      std::partition_point(blocks.begin(), blocks.end(),
                           [lo = window.lo](const CompressedBlockMeta& m) {
                             return m.last_id < lo;
                           }) -
      blocks.begin());
  size_t cursor = 0;
  uint64_t decoded = 0;
  bool ok = true;
  for (; b < blocks.size(); ++b) {
    const CompressedBlockMeta& block = blocks[b];
    if (block.first_id >= window.hi) break;
    if (block.last_id < window.lo) continue;
    const auto [begin, end] = BlockBytes(head + b);
    if (!DecodeIdBlock(block.first_id, block.count, begin, end,
                       out + cursor)) {
      ok = false;
      break;
    }
    cursor += block.count;
    ++decoded;
  }
  AddTicker(stats, Ticker::kBlocksDecoded, decoded);
  *written = cursor;
  return ok;
}

template <typename Entry>
bool CompressedPostingArena<Entry>::DecodeListInto(size_t i,
                                                   Entry* out) const {
  size_t written = 0;
  return DecodeBlocksInRange(i, kAllIds, out, &written);
}

template <typename Entry>
std::span<const Entry> CompressedPostingArena<Entry>::DecodeListInRange(
    size_t i, IdWindow window, std::vector<Entry>* scratch,
    Statistics* stats) const {
  if (i >= lists_.size()) return {};
  const CompressedListMeta meta = lists_.data()[i];
  if ((meta.head & CompressedListMeta::kInlineBit) != 0) {
    const uint32_t head = meta.head & ~CompressedListMeta::kInlineBit;
    return {inline_.data() + head, meta.length};
  }
  if (scratch->size() < meta.length) {
    scratch->resize(meta.length);  // alloc-ok: scratch setup, grow-only
  }
  size_t written = 0;
  if (!DecodeBlocksInRange(i, window, scratch->data(), &written, stats)) {
    // Malformed payload (possible only for an adopted snapshot whose
    // checksums were never verified): serve nothing rather than stale
    // scratch. Memory safety never depended on this branch.
    TOPK_DCHECK(false && "malformed compressed posting payload");
    return {};
  }
  return {scratch->data(), written};
}

template class CompressedPostingArena<RankingId>;

}  // namespace storage
}  // namespace topk
