// Differential suite for compressed augmented serving: the rank-range
// block metadata, the rank-windowed partial decode, and the
// CompressedAugmentedEngine must be bit-identical to the uncompressed
// engines — with block skipping on AND off, across every drop mode,
// thetas from 0 to dmax (exhaustive at small k), block-boundary list
// lengths, and fuzzed stores (failing seeds printed). The streaming
// exact finalization is additionally pinned to zero distance calls.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/posting_entry.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/augmented_inverted_index.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "storage/compressed_arena.h"
#include "storage/compressed_augmented.h"
#include "test_util.h"

namespace topk {
namespace {

using storage::BlockRankRange;
using storage::CompressedAugmentedEngine;
using storage::CompressedAugmentedIndex;
using storage::CompressedAugmentedOptions;
using storage::CompressedListMeta;
using storage::CompressedPostingArena;
using storage::kBlockEntries;

// ---------------------------------------------------------------------
// Rank-range metadata.

TEST(BlockRankRange, DisjointFromIsExactWithoutSaturation) {
  const BlockRankRange range{5, 10};
  EXPECT_TRUE(range.DisjointFrom(0, 4));
  EXPECT_TRUE(range.DisjointFrom(11, 20));
  EXPECT_FALSE(range.DisjointFrom(10, 12));
  EXPECT_FALSE(range.DisjointFrom(0, 5));
  EXPECT_FALSE(range.DisjointFrom(7, 8));   // window inside the range
  EXPECT_FALSE(range.DisjointFrom(0, 20));  // range inside the window
}

TEST(BlockRankRange, SaturatedMaxIsNeverSkippedOnItsHighBound) {
  const BlockRankRange saturated{5, BlockRankRange::kRankRangeUnbounded};
  // max_rank is "+infinity": only the low bound may prove disjointness.
  EXPECT_FALSE(saturated.DisjointFrom(100000, 200000));
  EXPECT_TRUE(saturated.DisjointFrom(0, 4));
}

TEST(CompressedAugmentedArena, RankRangesMatchBlockContents) {
  // Long lists (small domain) so multiple blocks per list exist.
  const RankingStore store = testutil::MakeUniformStore(8, 900, 24, 5);
  const AugmentedInvertedIndex augmented = AugmentedInvertedIndex::Build(store);
  const auto compressed =
      CompressedPostingArena<AugmentedEntry>::FromArena(augmented.arena());
  const auto lists = compressed.list_metas();
  const auto blocks = compressed.block_metas();
  const auto ranks = compressed.rank_ranges();
  ASSERT_EQ(ranks.size(), compressed.num_blocks());
  ASSERT_GT(compressed.num_blocks(), 0u);

  std::vector<AugmentedEntry> scratch;
  for (size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].length == 0 ||
        (lists[i].head & CompressedListMeta::kInlineBit) != 0) {
      continue;
    }
    const auto decoded = compressed.DecodeList(i, &scratch);
    size_t block = lists[i].head;
    size_t cursor = 0;
    while (cursor < decoded.size()) {
      const uint32_t count = blocks[block].count;
      uint32_t lo = UINT32_MAX;
      uint32_t hi = 0;
      for (uint32_t j = 0; j < count; ++j) {
        lo = std::min(lo, decoded[cursor + j].rank);
        hi = std::max(hi, decoded[cursor + j].rank);
      }
      EXPECT_EQ(ranks[block].min_rank, lo) << "list " << i;
      EXPECT_EQ(ranks[block].max_rank, hi) << "list " << i;  // ranks < k
      cursor += count;
      ++block;
    }
  }
}

TEST(CompressedAugmentedArena, RankWindowDecodeIsTheIntersectingBlocks) {
  const RankingStore store = testutil::MakeUniformStore(10, 1200, 20, 9);
  const auto index = CompressedAugmentedIndex::Build(store);
  const auto& arena = index.arena();
  const auto lists = arena.list_metas();
  const auto blocks = arena.block_metas();
  const auto ranks = arena.rank_ranges();

  std::vector<AugmentedEntry> full_scratch;
  std::vector<AugmentedEntry> window_scratch;
  for (size_t i = 0; i < lists.size(); ++i) {
    const auto full = arena.DecodeList(i, &full_scratch);
    for (const auto& [lo, hi] : {std::pair<uint32_t, uint32_t>{0, 2},
                                {3, 5},
                                {8, 9},
                                {0, 9}}) {
      BlockSkipStats skip;
      const auto windowed =
          arena.DecodeBlocksInRankWindow(i, lo, hi, &window_scratch, &skip);
      if (lists[i].length == 0 ||
          (lists[i].head & CompressedListMeta::kInlineBit) != 0) {
        // Inline lists come back whole, nothing considered or skipped.
        ASSERT_EQ(windowed.size(), full.size());
        EXPECT_EQ(skip.blocks_considered, 0u);
        continue;
      }
      // Expected: concatenation of exactly the non-disjoint blocks.
      std::vector<AugmentedEntry> expected;
      size_t block = lists[i].head;
      size_t cursor = 0;
      size_t expect_skipped = 0;
      while (cursor < full.size()) {
        const uint32_t count = blocks[block].count;
        if (ranks[block].DisjointFrom(lo, hi)) {
          ++expect_skipped;
        } else {
          expected.insert(expected.end(), full.begin() + cursor,
                          full.begin() + cursor + count);
        }
        cursor += count;
        ++block;
      }
      ASSERT_EQ(windowed.size(), expected.size())
          << "list " << i << " window [" << lo << ", " << hi << "]";
      for (size_t j = 0; j < expected.size(); ++j) {
        ASSERT_EQ(windowed[j].id, expected[j].id);
        ASSERT_EQ(windowed[j].rank, expected[j].rank);
      }
      EXPECT_EQ(skip.blocks_skipped, expect_skipped);
      EXPECT_EQ(skip.blocks_considered, block - lists[i].head);
      // Soundness: every in-window entry of the full list is present.
      for (const auto& entry : full) {
        if (entry.rank >= lo && entry.rank <= hi) {
          EXPECT_TRUE(std::any_of(windowed.begin(), windowed.end(),
                                  [&](const AugmentedEntry& e) {
                                    return e.id == entry.id &&
                                           e.rank == entry.rank;
                                  }));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Engine differential: skip-on, skip-off, and the plain reference agree
// on every drop mode and theta.

void ExpectAugmentedEquivalence(const RankingStore& store, uint64_t seed,
                                std::span<const RawDistance> thetas) {
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const CompressedAugmentedIndex compressed =
      CompressedAugmentedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 8, seed);
  for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                              DropMode::kPositionRefined}) {
    FilterValidateEngine reference(&store, &plain, {drop});
    CompressedAugmentedEngine with_skip(&store, &compressed, {drop, true});
    CompressedAugmentedEngine without_skip(&store, &compressed,
                                           {drop, false});
    for (const auto& query : queries) {
      for (const RawDistance theta : thetas) {
        const auto expected = reference.Query(query, theta);
        ASSERT_EQ(with_skip.Query(query, theta), expected)
            << "skip=on drop=" << static_cast<int>(drop)
            << " theta=" << theta;
        ASSERT_EQ(without_skip.Query(query, theta), expected)
            << "skip=off drop=" << static_cast<int>(drop)
            << " theta=" << theta;
      }
    }
  }
}

TEST(CompressedAugmentedEngine, MatchesPlainOnClusteredStore) {
  const RankingStore store = testutil::MakeClusteredStore(10, 600, 7);
  const RawDistance dmax = MaxDistance(store.k());
  const RawDistance thetas[] = {0, dmax / 4, dmax / 2, dmax};
  ExpectAugmentedEquivalence(store, 87, thetas);
}

TEST(CompressedAugmentedEngine, MatchesPlainOnUniformStore) {
  // Small domain: long posting lists, deep into the block tier.
  const RankingStore store = testutil::MakeUniformStore(8, 500, 40, 11);
  const RawDistance dmax = MaxDistance(store.k());
  const RawDistance thetas[] = {0, dmax / 4, dmax / 2, dmax};
  ExpectAugmentedEquivalence(store, 88, thetas);
}

TEST(CompressedAugmentedEngine, MatchesPlainExhaustivelyAtSmallK) {
  // Every theta in [0, dmax] at k = 4: the full threshold lattice.
  const RankingStore store = testutil::MakeUniformStore(4, 300, 14, 13);
  std::vector<RawDistance> thetas;
  for (RawDistance theta = 0; theta <= MaxDistance(store.k()); ++theta) {
    thetas.push_back(theta);
  }
  ExpectAugmentedEquivalence(store, 89, thetas);
}

TEST(CompressedAugmentedEngine, MatchesPlainAtBlockBoundaryListLengths) {
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
    const RawDistance dmax = MaxDistance(store.k());
    const RawDistance thetas[] = {0, dmax / 4, dmax / 2, dmax};
    ExpectAugmentedEquivalence(store, 90 + n, thetas);
  }
}

TEST(CompressedAugmentedEngine, AgreesWithBruteForce) {
  const RankingStore store = testutil::MakeClusteredStore(10, 400, 21);
  const CompressedAugmentedIndex compressed =
      CompressedAugmentedIndex::Build(store);
  CompressedAugmentedEngine engine(&store, &compressed, {});
  const RawDistance theta = MaxDistance(store.k()) / 3;
  for (const auto& query : testutil::MakeQueries(store, 8, 22)) {
    EXPECT_EQ(engine.Query(query, theta),
              testutil::BruteForce(store, query, theta));
  }
}

TEST(CompressedAugmentedEngineFuzz, MatchesBruteForceOnRandomStores) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (re-run with this seed to reproduce)");
    Rng rng(seed);
    const uint32_t k = 2 + static_cast<uint32_t>(rng.Below(9));
    const uint32_t domain = k + 2 + static_cast<uint32_t>(rng.Below(40));
    const size_t n = 50 + rng.Below(300);
    const RankingStore store =
        testutil::MakeUniformStore(k, n, domain, seed * 101);
    const CompressedAugmentedIndex compressed =
        CompressedAugmentedIndex::Build(store);
    const DropMode drop =
        std::array{DropMode::kNone, DropMode::kConservative,
                   DropMode::kPositionRefined}[rng.Below(3)];
    CompressedAugmentedEngine engine(&store, &compressed,
                                     {drop, rng.Below(2) == 0});
    // Thetas stay below dmax, like every inverted-index brute-force
    // differential: a disjoint ranking sits at exactly dmax and appears
    // in no posting list (the documented exactness contract).
    const RawDistance theta = rng.Below(MaxDistance(k));
    for (const auto& query : testutil::MakeQueries(store, 5, seed * 7)) {
      ASSERT_EQ(engine.Query(query, theta),
                testutil::BruteForce(store, query, theta))
          << "k=" << k << " theta=" << theta
          << " drop=" << static_cast<int>(drop);
    }
  }
}

// ---------------------------------------------------------------------
// Ticker evidence: the window actually skips, and complete sweeps
// finalize without a single distance call.

TEST(CompressedAugmentedEngine, TightThetaSkipsBlocksOnConcentratedRanks) {
  // Item 0 appears in every ranking, at a rank that changes every
  // kBlockEntries ids: each block of its posting list covers exactly one
  // rank, so a tight discovery window skips all but the nearby blocks —
  // the rank-mismatch pruning the rank ranges exist for.
  constexpr uint32_t kK = 5;
  RankingStore store(kK);
  for (uint32_t rank = 0; rank < kK; ++rank) {
    for (uint32_t i = 0; i < kBlockEntries; ++i) {
      std::vector<ItemId> items;
      const auto base =
          static_cast<ItemId>(1 + (kK - 1) * (rank * kBlockEntries + i));
      for (uint32_t j = 0; j + 1 < kK; ++j) items.push_back(base + j);
      items.insert(items.begin() + rank, 0);
      store.AddUnchecked(items);
    }
  }
  const CompressedAugmentedIndex compressed =
      CompressedAugmentedIndex::Build(store);
  CompressedAugmentedEngine engine(&store, &compressed, {});
  // Query ranks item 0 first: at theta = 1 only the rank-{0, 1} blocks
  // of its five-block list can discover results.
  PreparedQuery query(
      Ranking::Create(std::vector<ItemId>{0, 1, 2, 3, 4}).ValueOrDie());
  Statistics stats;
  const auto results = engine.Query(query, /*theta_raw=*/1, &stats);
  EXPECT_EQ(stats.Get(Ticker::kBlocksSkipped), 3u);
  EXPECT_EQ(stats.Get(Ticker::kBlocksDecoded), 2u);
  EXPECT_GT(stats.Get(Ticker::kPostingEntriesSkipped), 0u);
  // Identical results with skipping disabled.
  CompressedAugmentedEngine no_skip(&store, &compressed,
                                    {DropMode::kNone, false});
  Statistics no_skip_stats;
  EXPECT_EQ(no_skip.Query(query, 1, &no_skip_stats), results);
  EXPECT_EQ(no_skip_stats.Get(Ticker::kBlocksSkipped), 0u);
}

TEST(CompressedAugmentedEngine, CompleteSweepUsesZeroDistanceCalls) {
  // At theta = dmax - 1 (the largest theta the sweep serves; from dmax on
  // RangeSearch validates the full id domain) nothing is skipped or
  // dropped, so the streaming finalization answers from the accumulators
  // alone: ranks straight from the decode buffer, zero store probes.
  const RankingStore store = testutil::MakeClusteredStore(8, 300, 41);
  const CompressedAugmentedIndex compressed =
      CompressedAugmentedIndex::Build(store);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  FilterValidateEngine reference(&store, &plain, {});
  CompressedAugmentedEngine engine(&store, &compressed, {});
  const RawDistance theta = MaxDistance(store.k()) - 1;
  for (const auto& query : testutil::MakeQueries(store, 5, 42)) {
    Statistics stats;
    const auto results = engine.Query(query, theta, &stats);
    EXPECT_EQ(results, reference.Query(query, theta));
    EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), 0u);
    EXPECT_EQ(stats.Get(Ticker::kBlocksSkipped), 0u);
  }
}

}  // namespace
}  // namespace topk
