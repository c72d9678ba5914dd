// Decoder-hardening fuzz: corrupt and truncated compressed-posting
// payloads must fail *cleanly* — a Status at Adopt time when the
// metadata is inconsistent, `false` from the bool-returning decode
// paths when the payload bytes are bad — and must never read or write
// outside the sections handed to Adopt (the ASan CI leg runs this
// suite; write-side discipline is additionally pinned here with canary
// entries after every decode buffer). The fixture arena deliberately
// mixes the inline tier with block lists at and around the
// kBlockEntries boundary (127/128/129), since the boundary block is
// where an off-by-one in the byte-range walk would live.
//
// Only the bool-returning APIs (DecodeListInto; DecodeBlocksInRange,
// the id-window block loop a split query's parts decode through; and
// Adopt) may ever see corrupt payload bytes: the span-returning
// DecodeList/DecodeListInRange document malformed payloads as a
// checksum-verification bug and TOPK_DCHECK on them, which would abort
// the Debug/ASan builds this suite targets.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/types.h"
#include "kernel/id_split.h"
#include "kernel/posting_arena.h"
#include "storage/compressed_arena.h"
#include "storage/posting_codec.h"

namespace topk {
namespace {

using storage::CompressedBlockMeta;
using storage::CompressedListMeta;
using storage::CompressedPostingArena;
using storage::kBlockEntries;

constexpr RankingId kCanaryId = 0xCAFEF00Du;
constexpr size_t kCanaryEntries = 4;

using Arena = CompressedPostingArena<RankingId>;
using Lists = std::vector<std::vector<RankingId>>;

Arena Compress(const Lists& lists) {
  PostingArenaBuilder<RankingId> builder(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t j = 0; j < lists[i].size(); ++j) builder.Count(i);
  }
  builder.FinishCounting();
  for (size_t i = 0; i < lists.size(); ++i) {
    for (const RankingId id : lists[i]) builder.Append(i, id);
  }
  return Arena::FromArena(std::move(builder).Build());
}

/// Lengths straddling the inline tier (<= 8) and the block boundary:
/// 0, 1, 8, 9, 127, 128, 129, 300 — every tier transition the format
/// has. Ids stride with mixed widths so every group-varint byte class
/// appears in the payload.
Lists FixtureLists(uint64_t seed) {
  Rng rng(seed);
  Lists lists;
  for (const size_t length : {0u, 1u, 8u, 9u, 127u, 128u, 129u, 300u}) {
    std::vector<RankingId> list;
    RankingId id = static_cast<RankingId>(rng.Below(1000));
    for (size_t i = 0; i < length; ++i) {
      list.push_back(id);
      id += 1 + static_cast<RankingId>(rng.Below(1u << (rng.Below(4) * 8)));
    }
    lists.push_back(std::move(list));
  }
  return lists;
}

/// Decodes every list of `arena` through the bool-returning path into a
/// canary-guarded buffer: whatever the payload contains, the decoder
/// must stay within the list's `length` entries. Returns one bool per
/// list.
std::vector<bool> DecodeAllWithCanaries(const Arena& arena) {
  std::vector<bool> ok(arena.num_lists());
  for (size_t i = 0; i < arena.num_lists(); ++i) {
    const size_t length = arena.list_length(i);
    std::vector<RankingId> out(length + kCanaryEntries, kCanaryId);
    ok[i] = arena.DecodeListInto(i, out.data());
    for (size_t c = 0; c < kCanaryEntries; ++c) {
      EXPECT_EQ(out[length + c], kCanaryId)
          << "decode wrote past list length, list " << i;
    }
  }
  return ok;
}

/// Window decodes of every list of `arena` through the bool-returning
/// block loop (DecodeBlocksInRange), over the whole domain and the seven
/// parts of a split of [0, id_span): whatever the payload, each decode
/// returns a clean bool and writes at most the list's `length` entries.
void WindowDecodeAllWithCanaries(const Arena& arena, RankingId id_span) {
  std::vector<IdWindow> windows = {kAllIds};
  for (size_t p = 0; p < 7; ++p) windows.push_back(PartWindow(id_span, 7, p));
  for (size_t i = 0; i < arena.num_lists(); ++i) {
    const size_t length = arena.list_length(i);
    for (const IdWindow window : windows) {
      std::vector<RankingId> out(length + kCanaryEntries, kCanaryId);
      size_t written = 0;
      arena.DecodeBlocksInRange(i, window, out.data(), &written);
      EXPECT_LE(written, length) << "list " << i;
      for (size_t c = 0; c < kCanaryEntries; ++c) {
        EXPECT_EQ(out[length + c], kCanaryId)
            << "window decode wrote past list length, list " << i;
      }
    }
  }
}

/// One past the largest id of `lists`: the span a split would cut.
RankingId IdSpan(const Lists& lists) {
  RankingId span = 1;
  for (const auto& list : lists) {
    for (const RankingId id : list) span = std::max(span, id + 1);
  }
  return span;
}

TEST(DecodeFuzzTest, TruncatedByteStreamFailsCleanly) {
  const auto lists = FixtureLists(11);
  const auto arena = Compress(lists);
  const std::vector<CompressedListMeta> metas(arena.list_metas().begin(),
                                              arena.list_metas().end());
  const std::vector<CompressedBlockMeta> blocks(arena.block_metas().begin(),
                                                arena.block_metas().end());
  const std::vector<RankingId> inline_entries(arena.inline_entries().begin(),
                                              arena.inline_entries().end());
  const auto full_bytes = arena.byte_stream();
  // Every truncation length: either Adopt rejects (an interior block's
  // byte offset now points past the stream) or adoption succeeds and
  // each list decode returns a clean bool; lists whose payload survived
  // the cut decode to exactly the source entries.
  for (size_t keep = 0; keep <= full_bytes.size(); ++keep) {
    const std::vector<uint8_t> bytes(full_bytes.begin(),
                                     full_bytes.begin() + keep);
    auto adopted = Arena::Adopt(metas, blocks, inline_entries, bytes);
    if (!adopted.ok()) continue;
    const std::vector<bool> ok = DecodeAllWithCanaries(adopted.value());
    WindowDecodeAllWithCanaries(adopted.value(), IdSpan(lists));
    for (size_t i = 0; i < lists.size(); ++i) {
      if (keep == full_bytes.size()) {
        EXPECT_TRUE(ok[i]) << "full stream, list " << i;
      }
      if (!ok[i]) continue;
      std::vector<RankingId> out(lists[i].size());
      ASSERT_TRUE(adopted.value().DecodeListInto(i, out.data()));
      if (!lists[i].empty() &&
          (keep == full_bytes.size() ||
           lists[i].size() <= Arena::kInlineMaxEntries)) {
        EXPECT_EQ(out, lists[i]) << "keep=" << keep << " list=" << i;
      }
    }
  }
}

TEST(DecodeFuzzTest, CorruptPayloadBytesFailCleanlyOrDecodeInBounds) {
  const auto lists = FixtureLists(13);
  const auto arena = Compress(lists);
  const std::vector<CompressedListMeta> metas(arena.list_metas().begin(),
                                              arena.list_metas().end());
  const std::vector<CompressedBlockMeta> blocks(arena.block_metas().begin(),
                                                arena.block_metas().end());
  const std::vector<RankingId> inline_entries(arena.inline_entries().begin(),
                                              arena.inline_entries().end());
  const auto full_bytes = arena.byte_stream();
  ASSERT_FALSE(full_bytes.empty());
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("payload fuzz seed " + std::to_string(seed) +
                 " (re-run with this seed to reproduce)");
    Rng rng(seed);
    std::vector<uint8_t> bytes(full_bytes.begin(), full_bytes.end());
    const size_t flips = 1 + rng.Below(8);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.Below(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.Below(255));
    }
    auto adopted = Arena::Adopt(metas, blocks, inline_entries, bytes);
    // Payload corruption is invisible to the metadata bounds checks.
    ASSERT_TRUE(adopted.ok());
    // Every decode must come back as a bool — true or false, corrupt
    // values are fine — without ever leaving the list's entry budget
    // (the canaries assert the write side; ASan asserts the read side),
    // over the whole list and over a split's windows alike.
    DecodeAllWithCanaries(adopted.value());
    WindowDecodeAllWithCanaries(adopted.value(), IdSpan(lists));
  }
}

TEST(DecodeFuzzTest, CorruptMetadataRejectedOrDecodesInBounds) {
  const auto lists = FixtureLists(17);
  const auto arena = Compress(lists);
  const std::vector<CompressedListMeta> base_metas(arena.list_metas().begin(),
                                                   arena.list_metas().end());
  const std::vector<CompressedBlockMeta> base_blocks(
      arena.block_metas().begin(), arena.block_metas().end());
  const std::vector<RankingId> inline_entries(arena.inline_entries().begin(),
                                              arena.inline_entries().end());
  const std::vector<uint8_t> bytes(arena.byte_stream().begin(),
                                   arena.byte_stream().end());
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("metadata fuzz seed " + std::to_string(seed) +
                 " (re-run with this seed to reproduce)");
    Rng rng(seed);
    std::vector<CompressedListMeta> metas = base_metas;
    std::vector<CompressedBlockMeta> blocks = base_blocks;
    // Smash one random 32-bit word in one of the metadata sections.
    if (rng.Below(2) == 0) {
      auto* words = reinterpret_cast<uint32_t*>(metas.data());
      words[rng.Below(metas.size() * 2)] = static_cast<uint32_t>(rng.Next());
    } else {
      auto* words = reinterpret_cast<uint32_t*>(blocks.data());
      words[rng.Below(blocks.size() * 4)] = static_cast<uint32_t>(rng.Next());
    }
    auto adopted = Arena::Adopt(metas, blocks, inline_entries, bytes);
    if (!adopted.ok()) {
      ++rejected;
      continue;
    }
    DecodeAllWithCanaries(adopted.value());
    WindowDecodeAllWithCanaries(adopted.value(), IdSpan(lists));
  }
  // The bounds validation must be doing real work: random 32-bit smashes
  // of cursors/counts/offsets overwhelmingly produce inconsistencies.
  EXPECT_GT(rejected, 0u);
}

TEST(DecodeFuzzTest, TruncatedMetadataSectionsRejected) {
  const auto lists = FixtureLists(19);
  const auto arena = Compress(lists);
  const std::vector<CompressedListMeta> metas(arena.list_metas().begin(),
                                              arena.list_metas().end());
  const std::vector<CompressedBlockMeta> blocks(arena.block_metas().begin(),
                                                arena.block_metas().end());
  const std::vector<RankingId> inline_entries(arena.inline_entries().begin(),
                                              arena.inline_entries().end());
  const std::vector<uint8_t> bytes(arena.byte_stream().begin(),
                                   arena.byte_stream().end());
  ASSERT_FALSE(blocks.empty());
  // Cut the block-meta section so a long list dangles off its end.
  {
    const std::vector<CompressedBlockMeta> cut(blocks.begin(),
                                               blocks.end() - 1);
    EXPECT_FALSE(Arena::Adopt(metas, cut, inline_entries, bytes).ok());
  }
  // Cut the inline section under the inline lists.
  if (!inline_entries.empty()) {
    const std::vector<RankingId> cut(inline_entries.begin(),
                                     inline_entries.end() - 1);
    EXPECT_FALSE(Arena::Adopt(metas, blocks, cut, bytes).ok());
  }
}

}  // namespace
}  // namespace topk
