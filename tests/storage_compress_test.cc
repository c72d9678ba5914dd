// Differential suite for the compressed storage tier: every decoded
// list and every query answer must be bit-identical to the uncompressed
// path. Codec round-trips (crafted and fuzzed), arena
// round-trips at block-boundary lengths, Adopt validation, and the
// engine differential (compressed vs plain F&V / F&V+Drop, tickers
// included) all live here; the mmap snapshot path has its own suite in
// storage_snapshot_test.cc.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/filter_phase.h"
#include "kernel/id_split.h"
#include "kernel/posting_arena.h"
#include "storage/compressed_arena.h"
#include "storage/compressed_index.h"
#include "storage/posting_codec.h"
#include "test_util.h"

namespace topk {
namespace {

using storage::CompressedBlockMeta;
using storage::CompressedInvertedIndex;
using storage::CompressedListMeta;
using storage::CompressedPostingArena;
using storage::kBlockEntries;

// ---------------------------------------------------------------------
// Codec round-trips.

std::vector<RankingId> DecodedIds(std::span<const RankingId> ids) {
  std::vector<uint8_t> bytes;
  storage::EncodeIdBlock(ids, &bytes);
  std::vector<RankingId> out(ids.size());
  EXPECT_TRUE(storage::DecodeIdBlock(ids.front(),
                                     static_cast<uint32_t>(ids.size()),
                                     bytes.data(), bytes.data() + bytes.size(),
                                     out.data()));
  return out;
}

TEST(PostingCodec, IdBlockRoundTrips) {
  const std::vector<std::vector<RankingId>> cases = {
      {0},
      {7},
      {0, 1},
      {0, 1, 2, 3, 4},                          // dense deltas, partial group
      {5, 300, 70000, 20000000, 4000000000u},   // 1..4 byte deltas
      {0, 4294967295u},                         // maximal single delta
  };
  for (const auto& ids : cases) {
    EXPECT_EQ(DecodedIds(ids), ids);
  }
  std::vector<RankingId> exact_group_multiple;  // count-1 divisible by 4
  for (uint32_t i = 0; i < 125; ++i) {
    exact_group_multiple.push_back(i * 17);
  }
  EXPECT_EQ(DecodedIds(exact_group_multiple), exact_group_multiple);
  std::vector<RankingId> full_block;  // the kBlockEntries contract edge
  for (uint32_t i = 0; i < kBlockEntries; ++i) {
    full_block.push_back(i * 17);
  }
  EXPECT_EQ(DecodedIds(full_block), full_block);
}

TEST(PostingCodec, DecodeRejectsTruncatedPayload) {
  std::vector<RankingId> ids;
  for (uint32_t i = 0; i < 64; ++i) ids.push_back(i * 300000);
  std::vector<uint8_t> bytes;
  storage::EncodeIdBlock(ids, &bytes);
  std::vector<RankingId> out(ids.size());
  for (const size_t keep : {size_t{0}, size_t{1}, bytes.size() / 2,
                            bytes.size() - 1}) {
    EXPECT_FALSE(storage::DecodeIdBlock(
        ids.front(), static_cast<uint32_t>(ids.size()), bytes.data(),
        bytes.data() + keep, out.data()))
        << "keep=" << keep;
  }
}

// ---------------------------------------------------------------------
// Arena round-trips.

/// Builds a single-list CSR arena holding ids 0, stride, 2*stride, ...
PostingArena<RankingId> SingleListArena(size_t length, uint32_t stride) {
  PostingArenaBuilder<RankingId> builder(1);
  for (size_t i = 0; i < length; ++i) builder.Count(0);
  builder.FinishCounting();
  for (size_t i = 0; i < length; ++i) {
    builder.Append(0, static_cast<RankingId>(i * stride));
  }
  return std::move(builder).Build();
}

TEST(CompressedArena, RoundTripsBlockBoundaryLengths) {
  // Lengths congruent to -1 / 0 / +1 mod the block size, the inline
  // threshold edges, and an empty list.
  const size_t lengths[] = {0,
                            1,
                            CompressedPostingArena<RankingId>::
                                    kInlineMaxEntries -
                                1,
                            CompressedPostingArena<RankingId>::
                                kInlineMaxEntries,
                            CompressedPostingArena<RankingId>::
                                    kInlineMaxEntries +
                                1,
                            kBlockEntries - 1,
                            kBlockEntries,
                            kBlockEntries + 1,
                            3 * kBlockEntries - 1,
                            3 * kBlockEntries,
                            3 * kBlockEntries + 1};
  for (const size_t length : lengths) {
    const PostingArena<RankingId> arena = SingleListArena(length, 7);
    const auto compressed =
        CompressedPostingArena<RankingId>::FromArena(arena);
    ASSERT_EQ(compressed.num_lists(), 1u);
    EXPECT_EQ(compressed.num_entries(), length);
    EXPECT_EQ(compressed.list_length(0), length);
    std::vector<RankingId> scratch;
    const auto decoded = compressed.DecodeList(0, &scratch);
    ASSERT_EQ(decoded.size(), length) << "length=" << length;
    const auto original = arena.list(0);
    for (size_t i = 0; i < length; ++i) {
      ASSERT_EQ(decoded[i], original[i]) << "length=" << length << " i=" << i;
    }
  }
}

TEST(CompressedArena, ShortListsAreInlineAndZeroDecode) {
  const PostingArena<RankingId> arena = SingleListArena(
      CompressedPostingArena<RankingId>::kInlineMaxEntries, 3);
  const auto compressed = CompressedPostingArena<RankingId>::FromArena(arena);
  EXPECT_TRUE(compressed.is_inline(0));
  EXPECT_EQ(compressed.num_blocks(), 0u);
  std::vector<RankingId> scratch;
  const auto decoded = compressed.DecodeList(0, &scratch);
  // Inline lists are served in place: the scratch buffer is untouched.
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(decoded.size(),
            CompressedPostingArena<RankingId>::kInlineMaxEntries);
}

TEST(CompressedArena, NonAscendingListsFallBackToInlineTier) {
  // Rank-major lists (the blocked index) are not delta-encodable; the
  // arena must store them verbatim rather than corrupt them.
  PostingArenaBuilder<RankingId> builder(1);
  const std::vector<RankingId> ids = {9, 4, 7, 1, 8, 2, 6, 0, 5, 3, 10, 12};
  for (size_t i = 0; i < ids.size(); ++i) builder.Count(0);
  builder.FinishCounting();
  for (const RankingId id : ids) builder.Append(0, id);
  const PostingArena<RankingId> arena = std::move(builder).Build();

  const auto compressed = CompressedPostingArena<RankingId>::FromArena(arena);
  EXPECT_TRUE(compressed.is_inline(0));
  std::vector<RankingId> scratch;
  const auto decoded = compressed.DecodeList(0, &scratch);
  ASSERT_EQ(decoded.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(decoded[i], ids[i]);
}

TEST(CompressedArena, OutOfRangeListDecodesEmpty) {
  const PostingArena<RankingId> arena = SingleListArena(10, 1);
  const auto compressed = CompressedPostingArena<RankingId>::FromArena(arena);
  std::vector<RankingId> scratch;
  EXPECT_TRUE(compressed.DecodeList(1, &scratch).empty());
  EXPECT_EQ(compressed.list_length(1), 0u);
}

TEST(CompressedArena, AdoptRejectsMalformedMetadata) {
  const PostingArena<RankingId> arena = SingleListArena(300, 5);
  const auto good = CompressedPostingArena<RankingId>::FromArena(arena);
  const auto lists = good.list_metas();
  const auto blocks = good.block_metas();
  const auto inline_entries = good.inline_entries();
  const auto bytes = good.byte_stream();

  // Unmodified sections adopt fine.
  ASSERT_TRUE(CompressedPostingArena<RankingId>::Adopt(
                  lists, blocks, inline_entries, bytes)
                  .ok());

  // Block count outside [1, kBlockEntries].
  std::vector<CompressedBlockMeta> bad_blocks(blocks.begin(), blocks.end());
  bad_blocks[0].count = kBlockEntries + 1;
  EXPECT_FALSE(CompressedPostingArena<RankingId>::Adopt(
                   lists, bad_blocks, inline_entries, bytes)
                   .ok());

  // Byte offset beyond the stream.
  bad_blocks.assign(blocks.begin(), blocks.end());
  bad_blocks[1].byte_offset = static_cast<uint32_t>(bytes.size() + 1);
  EXPECT_FALSE(CompressedPostingArena<RankingId>::Adopt(
                   lists, bad_blocks, inline_entries, bytes)
                   .ok());

  // List pointing past the block directory.
  std::vector<CompressedListMeta> bad_lists(lists.begin(), lists.end());
  bad_lists[0].head = static_cast<uint32_t>(blocks.size());
  EXPECT_FALSE(CompressedPostingArena<RankingId>::Adopt(
                   bad_lists, blocks, inline_entries, bytes)
                   .ok());

  // Inline list overrunning the inline section.
  bad_lists.assign(lists.begin(), lists.end());
  bad_lists[0].head = CompressedListMeta::kInlineBit | 1u;
  EXPECT_FALSE(CompressedPostingArena<RankingId>::Adopt(
                   bad_lists, blocks, inline_entries, bytes)
                   .ok());
}

// ---------------------------------------------------------------------
// Id-window decode: only the blocks that meet the window, by metadata.

/// Windows over the ids [0, 3 * length) of a stride-3 list: the whole
/// domain, empty windows, every split part count's windows, windows
/// starting exactly at a block's first id, windows that touch only a
/// block's last id, windows that fall in the gap between two blocks, and
/// windows past the list.
std::vector<IdWindow> DecodeWindows(size_t length) {
  const auto span = static_cast<RankingId>(3 * length);
  std::vector<IdWindow> windows = {kAllIds, {0, 0}, {5, 5}, {0, 1},
                                   {span, kInvalidRankingId}};
  for (const size_t parts : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{64}, length + 5}) {
    for (size_t p = 0; p < parts; ++p) {
      windows.push_back(PartWindow(span, parts, p));
    }
  }
  for (RankingId b = 1; b <= 2; ++b) {
    const RankingId first = 3 * kBlockEntries * b;  // block b's first id
    const RankingId last = first - 3;               // block b-1's last id
    windows.push_back({first, first + 1});
    windows.push_back({last, last + 1});
    windows.push_back({last, first + 1});
    windows.push_back({last + 1, first});  // between the blocks
  }
  return windows;
}

TEST(CompressedArena, WindowDecodeLandsOnlyTheBlocksMeetingTheWindow) {
  // List lengths around the inline limit (8) and the first two block
  // boundaries: each window decode must land exactly the stored blocks
  // whose [first_id, last_id] meets the window — whole, in list order —
  // tick kBlocksDecoded once per such block, and hold every entry of the
  // window, which SliceToWindow then cuts out exactly. Inline lists come
  // back whole and decode no block.
  using Arena = CompressedPostingArena<RankingId>;
  for (const size_t length :
       {size_t{0}, size_t{1}, size_t{Arena::kInlineMaxEntries},
        size_t{Arena::kInlineMaxEntries + 1}, size_t{kBlockEntries - 1},
        size_t{kBlockEntries}, size_t{kBlockEntries + 1},
        size_t{2 * kBlockEntries - 1}, size_t{2 * kBlockEntries},
        size_t{2 * kBlockEntries + 1}}) {
    const PostingArena<RankingId> arena = SingleListArena(length, 3);
    const Arena compressed = Arena::FromArena(arena);
    const std::span<const RankingId> list = arena.list(0);
    const bool is_inline = length <= Arena::kInlineMaxEntries;
    std::vector<RankingId> scratch;
    std::vector<RankingId> out(length);
    for (const IdWindow window : DecodeWindows(length)) {
      SCOPED_TRACE("length " + std::to_string(length) + " window [" +
                   std::to_string(window.lo) + ", " +
                   std::to_string(window.hi) + ")");
      std::vector<RankingId> want_blocks;
      uint64_t want_decoded = 0;
      if (is_inline) {
        want_blocks.assign(list.begin(), list.end());
      } else if (window.lo < window.hi) {
        for (size_t begin = 0; begin < length; begin += kBlockEntries) {
          const size_t end = std::min<size_t>(begin + kBlockEntries, length);
          if (list[begin] < window.hi && list[end - 1] >= window.lo) {
            want_blocks.insert(want_blocks.end(), list.begin() + begin,
                               list.begin() + end);
            ++want_decoded;
          }
        }
      }
      std::vector<RankingId> want_window;
      for (const RankingId id : list) {
        if (id >= window.lo && id < window.hi) want_window.push_back(id);
      }

      Statistics stats;
      const auto decoded =
          compressed.DecodeListInRange(0, window, &scratch, &stats);
      EXPECT_EQ(std::vector<RankingId>(decoded.begin(), decoded.end()),
                want_blocks);
      EXPECT_EQ(stats.Get(Ticker::kBlocksDecoded), want_decoded);
      const auto sliced = filter_detail::SliceToWindow(decoded, window);
      EXPECT_EQ(std::vector<RankingId>(sliced.begin(), sliced.end()),
                want_window);
      if (is_inline) {
        // A direct span into the inline section, not a copy.
        EXPECT_TRUE(decoded.empty() ||
                    decoded.data() == compressed.inline_entries().data());
      }

      // The bool-returning loop writes the same entries.
      size_t written = 0;
      Statistics bool_stats;
      EXPECT_TRUE(compressed.DecodeBlocksInRange(0, window, out.data(),
                                                 &written, &bool_stats));
      ASSERT_EQ(written, want_blocks.size());
      EXPECT_TRUE(std::equal(out.begin(), out.begin() + written,
                             want_blocks.begin()));
      EXPECT_EQ(bool_stats.Get(Ticker::kBlocksDecoded), want_decoded);
    }
    // The whole-list decode is the kAllIds window: every block once.
    Statistics whole;
    const auto decoded = compressed.DecodeList(0, &scratch, &whole);
    EXPECT_EQ(std::vector<RankingId>(decoded.begin(), decoded.end()),
              std::vector<RankingId>(list.begin(), list.end()));
    EXPECT_EQ(whole.Get(Ticker::kBlocksDecoded),
              is_inline ? 0 : (length + kBlockEntries - 1) / kBlockEntries);
  }
}

// ---------------------------------------------------------------------
// Fuzzed arena round-trips. Any failure prints the seed that reproduces
// it.

PostingArena<RankingId> RandomArena(Rng* rng, bool ascending) {
  const size_t num_lists = 1 + rng->Below(40);
  std::vector<std::vector<RankingId>> lists(num_lists);
  for (auto& list : lists) {
    const size_t length = rng->Below(400);
    RankingId id = static_cast<RankingId>(rng->Below(1000));
    for (size_t i = 0; i < length; ++i) {
      list.push_back(ascending ? id : static_cast<RankingId>(rng->Next()));
      id += 1 + static_cast<RankingId>(rng->Below(1 + rng->Below(100000)));
    }
  }
  PostingArenaBuilder<RankingId> builder(num_lists);
  for (size_t i = 0; i < num_lists; ++i) {
    for (size_t j = 0; j < lists[i].size(); ++j) builder.Count(i);
  }
  builder.FinishCounting();
  for (size_t i = 0; i < num_lists; ++i) {
    for (const RankingId id : lists[i]) builder.Append(i, id);
  }
  return std::move(builder).Build();
}

void FuzzRoundTrip(uint64_t seed) {
  SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
               " (re-run with this seed to reproduce)");
  Rng rng(seed);
  const bool ascending = rng.Below(4) != 0;  // mostly codec, some fallback
  const PostingArena<RankingId> arena = RandomArena(&rng, ascending);
  const auto compressed = CompressedPostingArena<RankingId>::FromArena(arena);
  ASSERT_EQ(compressed.num_lists(), arena.num_lists());
  ASSERT_EQ(compressed.num_entries(), arena.num_entries());
  std::vector<RankingId> scratch;
  for (size_t i = 0; i < arena.num_lists(); ++i) {
    const auto expected = arena.list(i);
    const auto decoded = compressed.DecodeList(i, &scratch);
    ASSERT_EQ(decoded.size(), expected.size()) << "list " << i;
    ASSERT_EQ(0, std::memcmp(decoded.data(), expected.data(),
                             expected.size() * sizeof(RankingId)))
        << "list " << i;
  }
}

TEST(CompressedArenaFuzz, PlainEntriesRoundTrip) {
  for (uint64_t seed = 1; seed <= 25; ++seed) FuzzRoundTrip(seed);
}

// ---------------------------------------------------------------------
// Engine differential: compressed vs plain F&V must be bit-identical —
// results AND tickers — for every drop mode and theta, k = 1 included;
// kBlocksDecoded, which only the compressed tier ticks, is pinned to the
// blocks of the selected lists.

void ExpectEngineEquivalence(const RankingStore& store, uint64_t seed) {
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const CompressedInvertedIndex compressed =
      CompressedInvertedIndex::FromPlain(plain);
  const auto queries = testutil::MakeQueries(store, 10, seed);
  const RawDistance dmax = MaxDistance(store.k());
  const RawDistance thetas[] = {0, dmax / 4, dmax / 2, dmax};
  for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                              DropMode::kPositionRefined}) {
    FilterValidateEngine reference(&store, &plain, {drop});
    storage::CompressedFilterValidateEngine tier(&store, &compressed,
                                                 {drop});
    for (const auto& query : queries) {
      for (const RawDistance theta : thetas) {
        Statistics ref_stats;
        Statistics tier_stats;
        const auto expected = reference.Query(query, theta, &ref_stats);
        const auto actual = tier.Query(query, theta, &tier_stats);
        ASSERT_EQ(actual, expected)
            << "drop=" << static_cast<int>(drop) << " theta=" << theta;
        // The compressed tier also counts the blocks it decodes, which
        // the plain index has none of.
        ASSERT_TRUE(testutil::TickersEqualExcept(tier_stats, ref_stats,
                                                 Ticker::kBlocksDecoded))
            << "drop=" << static_cast<int>(drop) << " theta=" << theta;
        ASSERT_EQ(tier_stats.Get(Ticker::kBlocksDecoded),
                  testutil::RangeSearchBlocks(compressed, store.k(),
                                                query.view(), theta, drop))
            << "drop=" << static_cast<int>(drop) << " theta=" << theta;
      }
    }
  }
}

TEST(CompressedEngine, MatchesPlainOnClusteredStore) {
  ExpectEngineEquivalence(testutil::MakeClusteredStore(10, 600, 7), 77);
}

TEST(CompressedEngine, MatchesPlainOnUniformStore) {
  // Small domain: long posting lists, deep into the block tier.
  ExpectEngineEquivalence(testutil::MakeUniformStore(8, 500, 40, 11), 78);
}

TEST(CompressedEngine, MatchesPlainAtKEqualsOne) {
  ExpectEngineEquivalence(testutil::MakeUniformStore(1, 200, 12, 13), 79);
}

TEST(CompressedEngine, MatchesPlainAtExactBlockBoundaryListLengths) {
  // Every ranking contains item 0, so its posting list length equals n;
  // n = block size +/- 1 and exactly the block size.
  for (const size_t n : {size_t{kBlockEntries - 1}, size_t{kBlockEntries},
                         size_t{kBlockEntries + 1}}) {
    RankingStore store(4);
    for (size_t i = 0; i < n; ++i) {
      const auto base = static_cast<ItemId>(3 * i);
      store.AddUnchecked(
          std::vector<ItemId>{0, base + 1, base + 2, base + 3});
    }
    ExpectEngineEquivalence(store, 80 + n);
  }
}

TEST(CompressedEngine, AgreesWithBruteForceAtModerateTheta) {
  const RankingStore store = testutil::MakeClusteredStore(10, 400, 21);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const CompressedInvertedIndex compressed =
      CompressedInvertedIndex::FromPlain(plain);
  storage::CompressedFilterValidateEngine tier(&store, &compressed, {});
  const RawDistance theta = MaxDistance(store.k()) / 3;
  for (const auto& query : testutil::MakeQueries(store, 8, 22)) {
    EXPECT_EQ(tier.Query(query, theta),
              testutil::BruteForce(store, query, theta));
  }
}

TEST(CompressedEngine, CompressesZipfWorkloadAtLeastTwofold) {
  // The acceptance bar the bench reports on the real datasets, pinned
  // here on a Zipf-popularity store whose lists are long enough to
  // exercise the block tier (the regime the storage tier exists for).
  GeneratorOptions options;
  options.n = 2000;
  options.k = 10;
  options.domain = 300;
  options.zipf_s = 1.0;
  options.seed = 31;
  const RankingStore store = Generate(options);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const CompressedInvertedIndex compressed =
      CompressedInvertedIndex::FromPlain(plain);
  const auto& arena = plain.arena();
  const size_t uncompressed_bytes =
      arena.num_entries() * sizeof(RankingId) +
      (arena.num_lists() + 1) * sizeof(uint32_t);
  const size_t compressed_bytes = compressed.arena().CompressedBytes();
  ASSERT_GT(compressed_bytes, size_t{0});
  EXPECT_GE(static_cast<double>(uncompressed_bytes) /
                static_cast<double>(compressed_bytes),
            2.0)
      << "compression ratio regressed below 2x: " << compressed_bytes
      << " vs " << uncompressed_bytes << " bytes ("
      << compressed.arena().BytesPerEntry() << " B/entry)";
}

}  // namespace
}  // namespace topk
