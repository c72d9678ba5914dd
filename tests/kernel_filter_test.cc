// Differential suite for the src/kernel/ layer.
//
// FilterPhase is pinned bit-identical (candidate order included) to the
// pre-refactor F&V filter loop — reproduced here verbatim as the
// reference — across the plain, augmented, and blocked indices, all drop
// policies, and the empty/single-item/dmax edge cases. The batched
// Footrule validator is pinned against the scalar merge kernel, RangeSearch's
// run merge against std::sort (and, over the many-run blocked index,
// against brute force), and the CSR arena's memory accounting is checked
// as exact arithmetic. Id-window splits are pinned against the whole
// query: each window's candidates are the whole union's inside it, and a
// split RangeSearch returns the serial answer with the serial tickers —
// over the RAM indexes and over the storage tier's compressed index,
// whose windows decode only the blocks they meet.

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/deadline.h"
#include "core/footrule.h"
#include "core/rng.h"
#include "harness/thread_pool.h"
#include "invidx/augmented_inverted_index.h"
#include "invidx/blocked_inverted_index.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "kernel/id_split.h"
#include "kernel/posting_arena.h"
#include "kernel/range_search.h"
#include "storage/compressed_index.h"
#include "test_util.h"

namespace topk {
namespace {

/// The ids of `item`'s posting list, whole: a CSR index's arena span, or
/// a compressed index's whole-list decode.
template <typename Index>
std::vector<RankingId> ListIds(const Index& index, ItemId item) {
  std::vector<RankingId> ids;
  if constexpr (IndexHasDecodedLists<Index>()) {
    std::vector<RankingId> landing;
    const auto list = index.DecodeList(item, &landing);
    ids.assign(list.begin(), list.end());
  } else {
    for (const auto& entry : index.list(item)) {
      ids.push_back(PostingEntryId(entry));
    }
  }
  return ids;
}

// The historical F&V filter loop (invidx/filter_validate.cc before the
// kernel refactor): SelectLists, then scan each kept list and dedup
// through an epoch-stamped visited set, appending in first-encounter
// order. Any divergence from FilterPhase is a kernel regression.
template <typename Index>
std::vector<RankingId> ReferenceFilter(const Index& index, RankingView query,
                                       RawDistance theta_raw, DropMode drop,
                                       size_t id_capacity) {
  VisitedSet visited(id_capacity);
  visited.NextEpoch();
  std::vector<RankingId> candidates;
  const std::vector<uint32_t> positions = SelectLists(
      query, theta_raw, drop,
      [&index](ItemId item) { return index.list_length(item); }, nullptr);
  for (uint32_t pos : positions) {
    for (const RankingId id : ListIds(index, query[pos])) {
      if (!visited.TestAndSet(id)) candidates.push_back(id);
    }
  }
  return candidates;
}

template <typename Index>
void ExpectFilterMatchesReference(const Index& index,
                                  const RankingStore& store,
                                  const std::vector<PreparedQuery>& queries,
                                  RawDistance theta_raw, DropMode drop) {
  FilterScratch scratch;
  for (const PreparedQuery& query : queries) {
    Statistics stats;
    const auto got = FilterPhase(index, query.view(), theta_raw, drop,
                                 store.size(), &scratch, &stats);
    const auto want = ReferenceFilter(index, query.view(), theta_raw, drop,
                                      store.size());
    ASSERT_EQ(std::vector<RankingId>(got.begin(), got.end()), want)
        << "drop=" << DropModeName(drop) << " theta_raw=" << theta_raw;
  }
}

class KernelFilterTest : public ::testing::Test {
 protected:
  void RunAcrossIndices(const RankingStore& store,
                        const std::vector<PreparedQuery>& queries,
                        RawDistance theta_raw, DropMode drop) {
    const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
    const AugmentedInvertedIndex augmented =
        AugmentedInvertedIndex::Build(store);
    const BlockedInvertedIndex blocked = BlockedInvertedIndex::Build(store);
    ExpectFilterMatchesReference(plain, store, queries, theta_raw, drop);
    ExpectFilterMatchesReference(augmented, store, queries, theta_raw, drop);
    ExpectFilterMatchesReference(blocked, store, queries, theta_raw, drop);
  }
};

TEST_F(KernelFilterTest, MatchesReferenceAcrossIndicesAndDropPolicies) {
  const RankingStore store = testutil::MakeClusteredStore(7, 400, 21);
  const auto queries = testutil::MakeQueries(store, 25, 22);
  for (const DropMode drop :
       {DropMode::kNone, DropMode::kConservative, DropMode::kPositionRefined}) {
    for (const double theta : {0.0, 0.1, 0.3, 0.6, 0.9}) {
      RunAcrossIndices(store, queries, RawThreshold(theta, 7), drop);
    }
  }
}

TEST_F(KernelFilterTest, EmptyStoreYieldsNoCandidates) {
  const RankingStore store(5);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  FilterScratch scratch;
  const auto queries = testutil::MakeQueries(
      testutil::MakeUniformStore(5, 10, 20, 23), 5, 24);
  for (const PreparedQuery& query : queries) {
    const auto got = FilterPhase(plain, query.view(), RawThreshold(0.5, 5),
                                 DropMode::kNone, store.size(), &scratch);
    EXPECT_TRUE(got.empty());
  }
}

TEST_F(KernelFilterTest, SingleItemRankings) {
  // k = 1: dmax = 2, every drop policy degenerates to "access the list".
  const RankingStore store = testutil::MakeUniformStore(1, 50, 10, 25);
  const auto queries = testutil::MakeQueries(store, 10, 26);
  for (const DropMode drop :
       {DropMode::kNone, DropMode::kConservative, DropMode::kPositionRefined}) {
    RunAcrossIndices(store, queries, RawThreshold(0.4, 1), drop);
  }
}

TEST_F(KernelFilterTest, DmaxThresholdStillMatchesReference) {
  // theta_raw = dmax: MinOverlap is 0, so no list may be dropped; the
  // union is still only the overlapping rankings (the F&V caveat).
  const RankingStore store = testutil::MakeUniformStore(5, 200, 40, 27);
  const auto queries = testutil::MakeQueries(store, 10, 28);
  for (const DropMode drop :
       {DropMode::kNone, DropMode::kConservative, DropMode::kPositionRefined}) {
    RunAcrossIndices(store, queries, MaxDistance(5), drop);
  }
}

TEST_F(KernelFilterTest, SubsetIndexFilterUsesSubsetPositions) {
  // The coarse medoid retrieval filters over a BuildSubset index whose
  // entries are subset positions; id_capacity is the subset size.
  const RankingStore store = testutil::MakeUniformStore(4, 120, 30, 29);
  const std::vector<RankingId> subset = {3, 17, 42, 88, 101};
  const PlainInvertedIndex index =
      PlainInvertedIndex::BuildSubset(store, subset);
  const auto queries = testutil::MakeQueries(store, 10, 30);
  FilterScratch scratch;
  for (const PreparedQuery& query : queries) {
    const auto got = FilterPhase(index, query.view(), RawThreshold(0.5, 4),
                                 DropMode::kNone, subset.size(), &scratch);
    const auto want = ReferenceFilter(index, query.view(),
                                      RawThreshold(0.5, 4), DropMode::kNone,
                                      subset.size());
    ASSERT_EQ(std::vector<RankingId>(got.begin(), got.end()), want);
    for (const RankingId pos : got) ASSERT_LT(pos, subset.size());
  }
}

TEST_F(KernelFilterTest, TickersMatchScannedEntries) {
  const RankingStore store = testutil::MakeUniformStore(5, 150, 35, 31);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 5, 32);
  FilterScratch scratch;
  for (const PreparedQuery& query : queries) {
    Statistics stats;
    FilterPhase(index, query.view(), MaxDistance(5) - 1, DropMode::kNone,
                store.size(), &scratch, &stats);
    size_t expected = 0;
    for (const ItemId item : query.view().items()) {
      expected += index.list_length(item);
    }
    EXPECT_EQ(stats.Get(Ticker::kPostingEntriesScanned), expected);
    // FilterPhase leaves kCandidates to the caller.
    EXPECT_EQ(stats.Get(Ticker::kCandidates), 0u);
  }
}

// --- Batched Footrule validator vs. the scalar merge kernel. ---

TEST(FootruleValidatorTest, DistanceMatchesScalarKernel) {
  const RankingStore store = testutil::MakeClusteredStore(10, 300, 33);
  const auto queries = testutil::MakeQueries(store, 20, 34);
  FootruleValidator validator;
  for (const PreparedQuery& query : queries) {
    validator.BindQuery(query.view());
    for (RankingId id = 0; id < store.size(); ++id) {
      ASSERT_EQ(validator.Distance(store.view(id)),
                FootruleDistance(query.sorted_view(), store.sorted(id)));
    }
  }
}

TEST(FootruleValidatorTest, ValidateSpanMatchesScalarDecisions) {
  const RankingStore store = testutil::MakeClusteredStore(8, 250, 35);
  const auto queries = testutil::MakeQueries(store, 15, 36);
  std::vector<RankingId> all(store.size());
  for (RankingId id = 0; id < store.size(); ++id) all[id] = id;
  FootruleValidator validator;
  for (const PreparedQuery& query : queries) {
    for (const double theta : {0.0, 0.05, 0.3, 0.7, 1.0}) {
      const RawDistance theta_raw = RawThreshold(theta, 8);
      validator.BindQuery(query.view());
      std::vector<RankingId> got;
      Statistics stats;
      validator.ValidateSpan(store, all, theta_raw, &got, &stats);
      ASSERT_EQ(got, testutil::BruteForce(store, query, theta_raw))
          << "theta=" << theta;
      // One DFC per candidate, early exit or not (paper accounting).
      EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), store.size());
    }
  }
}

TEST(FootruleValidatorTest, RebindReusesTableAcrossQueries) {
  // Interleaved rebinding must not leak ranks between queries (the epoch
  // stamps, not clears, the table).
  const RankingStore store = testutil::MakeUniformStore(6, 100, 200, 37);
  const auto queries = testutil::MakeQueries(store, 10, 38);
  FootruleValidator validator;
  for (int round = 0; round < 3; ++round) {
    for (const PreparedQuery& query : queries) {
      validator.BindQuery(query.view());
      for (RankingId id = 0; id < store.size(); id += 7) {
        ASSERT_EQ(validator.Distance(store.view(id)),
                  FootruleDistance(query.sorted_view(), store.sorted(id)));
      }
    }
  }
}

TEST(FootruleValidatorTest, ItemDomainCapsTableWithoutChangingDistances) {
  // A query carrying a huge (malformed / adversarial) item id must not
  // force a giant rank table: capped at the store's item domain, the
  // uncovered query item can only be absent from every candidate, which
  // the (Sq - qcover) term accounts for exactly.
  RankingStore store(3);
  ASSERT_TRUE(store.Add(std::vector<ItemId>{0, 1, 2}).ok());
  ASSERT_TRUE(store.Add(std::vector<ItemId>{1, 2, 3}).ok());
  const PreparedQuery query(
      Ranking::Create(std::vector<ItemId>{1, 2, 4000000000u}).ValueOrDie());
  const size_t domain = static_cast<size_t>(store.max_item()) + 1;
  FootruleValidator validator;
  validator.BindQuery(query.view(), domain);
  EXPECT_LE(validator.table_capacity(), domain);
  for (RankingId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(validator.Distance(store.view(id)),
              FootruleDistance(query.sorted_view(), store.sorted(id)));
  }
}

TEST(FootruleValidatorTest, CandidateItemsBeyondTableAreAbsent) {
  // Candidates may contain item ids the query never touched (beyond the
  // table's size); they must count as absent, not crash.
  RankingStore store(3);
  ASSERT_TRUE(store.Add(std::vector<ItemId>{1000000, 2000000, 3000000}).ok());
  const PreparedQuery query(
      Ranking::Create(std::vector<ItemId>{0, 1, 2}).ValueOrDie());
  FootruleValidator validator;
  validator.BindQuery(query.view());
  EXPECT_EQ(validator.Distance(store.view(0)),
            FootruleDistance(query.sorted_view(), store.sorted(0)));
  EXPECT_EQ(validator.Distance(store.view(0)), MaxDistance(3));
}

// --- The early exit's lower bound LB(p) = running - qcover + S(p). ---

/// LB(0..k) of `candidate` against `query` by the definition: running and
/// qcover summed over positions [0, p), S(p) from kernel::ExitSlack. Also
/// pins ExitSlack to its closed form Sq - T(k - p) and LB to "never weaker
/// than the candidate-side running sum".
std::vector<RawDistance> ExitLowerBounds(const std::vector<ItemId>& query,
                                         const std::vector<ItemId>& candidate) {
  const auto k = static_cast<uint32_t>(query.size());
  const auto tri = [](RawDistance m) { return m * (m + 1) / 2; };
  std::vector<RawDistance> bounds = {0};
  RawDistance running = 0;
  RawDistance qcover = 0;
  kernel::ExitSlack slack(k);
  for (uint32_t p = 0; p < k; ++p) {
    const auto it = std::find(query.begin(), query.end(), candidate[p]);
    if (it != query.end()) {
      const auto rank = static_cast<RawDistance>(it - query.begin());
      running += rank > p ? rank - p : p - rank;
      qcover += k - rank;
    } else {
      running += k - p;
    }
    const RawDistance s = slack.Advance(p);
    EXPECT_EQ(s, tri(k) - tri(k - p - 1)) << "k=" << k << " p=" << p;
    EXPECT_GE(s, qcover) << "k=" << k << " p=" << p;
    bounds.push_back(running + s - qcover);
    EXPECT_GE(bounds.back(), running) << "k=" << k << " p=" << p;
  }
  return bounds;
}

TEST(FootruleValidatorTest, ExitLowerBoundIsMonotoneAndExactAtK) {
  // Disjoint, partly overlapping, permuted and identical pairs: LB(p)
  // never decreases, never exceeds F, and equals F at p = k; the scalar
  // WithinThreshold (which exits on it) agrees with F <= theta at every
  // theta in [0, dmax] and at the unbounded k-NN threshold UINT64_MAX.
  Rng rng(20150323);
  for (const uint32_t k : {1u, 2u, 3u, 7u, 10u, 25u}) {
    std::vector<ItemId> query(k);
    for (uint32_t p = 0; p < k; ++p) query[p] = p;
    std::vector<std::vector<ItemId>> candidates;
    for (int trial = 0; trial < 20; ++trial) {
      rng.Shuffle(&query);
      std::vector<ItemId> disjoint(k);
      for (uint32_t p = 0; p < k; ++p) disjoint[p] = k + p;
      rng.Shuffle(&disjoint);
      candidates.push_back(disjoint);
      // Keep `shared` random query items, fill with fresh ones, shuffle.
      const auto shared = static_cast<uint32_t>(rng.Below(k + 1));
      std::vector<ItemId> overlap = query;
      rng.Shuffle(&overlap);
      for (uint32_t p = shared; p < k; ++p) overlap[p] = 2 * k + p;
      rng.Shuffle(&overlap);
      candidates.push_back(overlap);
      std::vector<ItemId> permuted = query;
      rng.Shuffle(&permuted);
      candidates.push_back(permuted);
      candidates.push_back(query);

      RankingStore store(k);
      for (const auto& items : candidates) store.AddUnchecked(items);
      const PreparedQuery prepared(Ranking::Create(query).ValueOrDie());
      FootruleValidator validator;
      validator.BindQuery(prepared.view());
      for (RankingId id = 0; id < store.size(); ++id) {
        const RawDistance f =
            FootruleDistance(prepared.sorted_view(), store.sorted(id));
        const auto bounds = ExitLowerBounds(query, candidates[id]);
        for (uint32_t p = 0; p < k; ++p) {
          ASSERT_LE(bounds[p], bounds[p + 1]) << "k=" << k << " p=" << p;
          ASSERT_LE(bounds[p], f) << "k=" << k << " p=" << p;
        }
        ASSERT_EQ(bounds[k], f) << "k=" << k;
        for (RawDistance theta = 0; theta <= MaxDistance(k); ++theta) {
          ASSERT_EQ(validator.WithinThreshold(store.view(id), theta),
                    f <= theta)
              << "k=" << k << " theta=" << theta;
        }
        EXPECT_TRUE(validator.WithinThreshold(store.view(id), UINT64_MAX));
      }
      candidates.clear();
    }
  }
}

// --- RangeSearch's run merge vs. std::sort. ---

void ExpectRunMergeSorts(const std::vector<RankingId>& input, size_t first) {
  std::vector<RankingId> got = input;
  std::vector<RankingId> buffer;
  MergeAscendingRuns(&got, first, &buffer);
  std::vector<RankingId> want = input;
  std::sort(want.begin() + static_cast<std::ptrdiff_t>(first), want.end());
  ASSERT_EQ(got, want) << "n=" << input.size() << " first=" << first;
}

TEST(RunMergeTest, EmptyAndOneElementRanges) {
  ExpectRunMergeSorts({}, 0);
  ExpectRunMergeSorts({7}, 0);
  ExpectRunMergeSorts({7}, 1);
  ExpectRunMergeSorts({9, 3}, 2);
}

TEST(RunMergeTest, OneRunIsLeftInPlaceWithoutTheBuffer) {
  std::vector<RankingId> values = {1, 4, 9, 12, 40};
  std::vector<RankingId> buffer;
  MergeAscendingRuns(&values, 0, &buffer);
  EXPECT_EQ(values, (std::vector<RankingId>{1, 4, 9, 12, 40}));
  EXPECT_EQ(buffer.capacity(), 0u);
}

TEST(RunMergeTest, TwoRuns) {
  ExpectRunMergeSorts({5, 8, 20, 1, 9, 30}, 0);
  ExpectRunMergeSorts({5, 8, 20, 1}, 0);
  ExpectRunMergeSorts({50, 1, 2, 3}, 0);
}

TEST(RunMergeTest, KRunsOfRandomLengths) {
  Rng rng(45);
  for (size_t runs = 3; runs <= 40; ++runs) {
    std::vector<RankingId> values;
    for (size_t r = 0; r < runs; ++r) {
      // Each run ascends from a random start; length-1 runs included.
      RankingId id = static_cast<RankingId>(rng.Below(1000));
      const size_t length = 1 + rng.Below(12);
      for (size_t j = 0; j < length; ++j) {
        values.push_back(id);
        id += 1 + static_cast<RankingId>(rng.Below(50));
      }
    }
    ExpectRunMergeSorts(values, 0);
  }
}

TEST(RunMergeTest, FullyDescendingRangeIsNRuns) {
  for (const size_t n : {2u, 3u, 7u, 64u, 1001u}) {
    std::vector<RankingId> values(n);
    for (size_t j = 0; j < n; ++j) values[j] = static_cast<RankingId>(n - j);
    ExpectRunMergeSorts(values, 0);
  }
}

TEST(RunMergeTest, NonZeroFirstLeavesThePrefixByteIdentical) {
  // A MutableStore query appends segment after segment into one output:
  // the merge may only reorder what the current segment appended.
  const std::vector<RankingId> prefix = {90, 3, 77, 3, 0};
  std::vector<RankingId> values = prefix;
  for (const RankingId id : {40, 41, 60, 2, 5, 61, 1}) values.push_back(id);
  std::vector<RankingId> buffer;
  MergeAscendingRuns(&values, prefix.size(), &buffer);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), values.begin()));
  EXPECT_EQ(std::vector<RankingId>(values.begin() + 5, values.end()),
            (std::vector<RankingId>{1, 2, 5, 40, 41, 60, 61}));
  ExpectRunMergeSorts({90, 3, 77, 8, 2, 6}, 3);
}

TEST(RunMergeTest, WarmBufferIsReusedWithoutGrowing) {
  std::vector<RankingId> buffer;
  std::vector<RankingId> large(500);
  for (size_t j = 0; j < large.size(); ++j) {
    large[j] = static_cast<RankingId>((j * 7919) % 500);
  }
  MergeAscendingRuns(&large, 0, &buffer);
  ASSERT_TRUE(std::is_sorted(large.begin(), large.end()));
  const RankingId* warm = buffer.data();
  std::vector<RankingId> small = {9, 8, 7, 1, 2};
  MergeAscendingRuns(&small, 0, &buffer);
  EXPECT_EQ(small, (std::vector<RankingId>{1, 2, 7, 8, 9}));
  EXPECT_EQ(buffer.data(), warm);
}

TEST(RunMergeTest, BlockedIndexRangeSearchMatchesBruteForce) {
  // The blocked index's lists are rank-major, not id-sorted, so a union
  // over it hands the merge many runs per query.
  const uint32_t k = 8;
  const RankingStore store = testutil::MakeClusteredStore(k, 600, 46);
  const BlockedInvertedIndex index = BlockedInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 25, 47);
  RangeScratch scratch;
  FilterScratch filter;
  FootruleValidator validator;
  size_t multi_run_outputs = 0;
  for (const DropMode drop :
       {DropMode::kNone, DropMode::kConservative, DropMode::kPositionRefined}) {
    for (const double theta : {0.1, 0.3, 0.6, 0.9}) {
      const RawDistance theta_raw = RawThreshold(theta, k);
      ASSERT_LT(theta_raw, MaxDistance(k));
      for (const PreparedQuery& query : queries) {
        // A non-empty prefix, as a later MutableStore segment sees it.
        std::vector<RankingId> out = {999999, 4};
        ASSERT_TRUE(RangeSearch(store, &index, query.view(), theta_raw, drop,
                                &scratch, &out));
        const std::vector<RankingId> want =
            testutil::BruteForce(store, query, theta_raw);
        ASSERT_EQ(std::vector<RankingId>(out.begin() + 2, out.end()), want)
            << "drop=" << DropModeName(drop) << " theta=" << theta;
        EXPECT_EQ(out[0], 999999u);
        EXPECT_EQ(out[1], 4u);

        std::vector<RankingId> unmerged;
        validator.BindQuery(query.view());
        validator.ValidateSpan(
            store,
            FilterPhase(index, query.view(), theta_raw, drop, store.size(),
                        &filter),
            theta_raw, &unmerged, nullptr);
        if (!std::is_sorted(unmerged.begin(), unmerged.end())) {
          ++multi_run_outputs;
        }
      }
    }
  }
  EXPECT_GT(multi_run_outputs, 0u);
}

// --- CSR arena: structure and exact memory accounting. ---

TEST(PostingArenaTest, BuilderProducesExactLists) {
  PostingArenaBuilder<RankingId> builder(4);
  const std::vector<std::pair<size_t, RankingId>> entries = {
      {0, 1}, {2, 2}, {0, 3}, {3, 4}, {0, 5}};
  for (const auto& [list, entry] : entries) builder.Count(list);
  builder.FinishCounting();
  for (const auto& [list, entry] : entries) builder.Append(list, entry);
  const PostingArena<RankingId> arena = std::move(builder).Build();

  EXPECT_EQ(arena.num_lists(), 4u);
  EXPECT_EQ(arena.num_entries(), 5u);
  EXPECT_EQ(std::vector<RankingId>(arena.list(0).begin(), arena.list(0).end()),
            (std::vector<RankingId>{1, 3, 5}));
  EXPECT_TRUE(arena.list(1).empty());
  EXPECT_EQ(arena.list(2).size(), 1u);
  EXPECT_EQ(arena.list(3).front(), 4u);
  EXPECT_TRUE(arena.list(99).empty());
}

TEST(PostingArenaTest, MemoryUsageIsExactArithmetic) {
  const RankingStore store = testutil::MakeUniformStore(5, 500, 80, 39);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  EXPECT_EQ(plain.MemoryUsage(),
            plain.num_entries() * sizeof(RankingId) +
                (static_cast<size_t>(store.max_item()) + 2) *
                    sizeof(uint32_t));

  const AugmentedInvertedIndex augmented =
      AugmentedInvertedIndex::Build(store);
  EXPECT_EQ(augmented.MemoryUsage(),
            augmented.num_entries() * sizeof(AugmentedEntry) +
                (static_cast<size_t>(store.max_item()) + 2) *
                    sizeof(uint32_t));

  const BlockedInvertedIndex blocked = BlockedInvertedIndex::Build(store);
  const size_t num_items = static_cast<size_t>(store.max_item()) + 1;
  EXPECT_EQ(blocked.MemoryUsage(),
            blocked.num_entries() * sizeof(AugmentedEntry) +
                (num_items + 1) * sizeof(uint32_t) +
                num_items * (store.k() + 1) * sizeof(uint32_t));
}

// --- Id-window splits: FilterPhase windows and split RangeSearch. ---

/// Runs the parts in order, part p on worker slot p % workers.
PartRunner LoopRunner(size_t workers) {
  return [workers](size_t parts, const PartBody& body) {
    for (size_t p = 0; p < parts; ++p) body(p % workers, p);
  };
}

/// Worker slots of a split: each its own scratch and counters.
struct SplitWorkers {
  explicit SplitWorkers(size_t count) : scratch(count), stats(count) {
    for (size_t w = 0; w < count; ++w) {
      slots.push_back({&scratch[w], &stats[w]});
    }
  }
  Statistics Summed() const {
    Statistics sum;
    for (const Statistics& s : stats) sum.MergeFrom(s);
    return sum;
  }
  std::vector<RangeScratch> scratch;
  std::vector<Statistics> stats;
  std::vector<SplitWorker<RangeScratch>> slots;
};

/// Part counts from one part to more parts than ids (empty windows).
std::vector<size_t> PartCounts(const RankingStore& store) {
  return {1, 2, 3, 7, 64, store.size() + 5};
}

/// kBlocksDecoded over a split's windows: a compressed index's parts
/// decode every block the serial query decodes, plus at most one
/// straddling block per block-tier list at each of the parts - 1 window
/// boundaries, and the serial count is every block of the selected lists
/// when the query reads them (`reads_lists`: RangeSearch reads none from
/// dmax on). A CSR index decodes nothing.
template <typename Index>
void ExpectBlocksDecodedBound(const Index& index, RankingView query,
                              RawDistance theta_raw, DropMode drop,
                              bool reads_lists, const Statistics& summed,
                              const Statistics& serial, size_t parts) {
  const uint64_t serial_blocks = serial.Get(Ticker::kBlocksDecoded);
  const uint64_t summed_blocks = summed.Get(Ticker::kBlocksDecoded);
  if constexpr (IndexHasDecodedLists<Index>()) {
    const testutil::SelectedBlocks selected =
        reads_lists
            ? testutil::SelectedBlockTier(index, query, theta_raw, drop)
            : testutil::SelectedBlocks{};
    EXPECT_EQ(serial_blocks, selected.blocks);
    EXPECT_GE(summed_blocks, serial_blocks) << "parts=" << parts;
    EXPECT_LE(summed_blocks, serial_blocks + (parts - 1) * selected.lists)
        << "parts=" << parts;
  } else {
    (void)index;
    (void)query;
    (void)theta_raw;
    (void)drop;
    (void)reads_lists;
    EXPECT_EQ(serial_blocks, 0u);
    EXPECT_EQ(summed_blocks, 0u);
  }
}

template <typename Index>
void ExpectWindowsMatchTheWholeUnion(const Index& index,
                                     const RankingStore& store,
                                     const std::vector<PreparedQuery>& queries,
                                     RawDistance theta_raw, DropMode drop) {
  FilterScratch scratch;
  for (const PreparedQuery& query : queries) {
    const std::vector<uint32_t> positions = SelectLists(
        query.view(), theta_raw, drop,
        [&index](ItemId item) { return index.list_length(item); });
    const std::vector<RankingId> whole = ReferenceFilter(
        index, query.view(), theta_raw, drop, store.size());
    Statistics whole_stats;
    FilterPhase(index, query.view(), theta_raw, drop, store.size(), &scratch,
                &whole_stats);
    for (const size_t parts : PartCounts(store)) {
      Statistics summed;
      for (size_t p = 0; p < parts; ++p) {
        const IdWindow window = PartWindow(store.size(), parts, p);
        const auto got = FilterPhase(index, query.view(), positions, window,
                                     store.size(), &scratch, &summed);
        std::vector<RankingId> want;
        for (const RankingId id : whole) {
          if (id >= window.lo && id < window.hi) want.push_back(id);
        }
        ASSERT_EQ(std::vector<RankingId>(got.begin(), got.end()), want)
            << "drop=" << DropModeName(drop) << " theta_raw=" << theta_raw
            << " parts=" << parts << " part=" << p;
      }
      EXPECT_EQ(summed.Get(Ticker::kPostingEntriesScanned),
                whole_stats.Get(Ticker::kPostingEntriesScanned));
      ExpectBlocksDecodedBound(index, query.view(), theta_raw, drop,
                               /*reads_lists=*/true, summed, whole_stats,
                               parts);
    }
  }
}

TEST(FilterWindowTest, WindowCandidatesAreTheWholeUnionInsideTheWindow) {
  // One window over [0, n) is the whole union byte for byte; P windows
  // are its candidates inside each window, in the same order, and their
  // scanned-entry ticks sum to the whole query's.
  const uint32_t k = 8;
  const RankingStore store = testutil::MakeClusteredStore(k, 700, 51);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const AugmentedInvertedIndex augmented =
      AugmentedInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 12, 52);
  for (const DropMode drop :
       {DropMode::kNone, DropMode::kConservative, DropMode::kPositionRefined}) {
    for (const double theta : {0.1, 0.3, 0.6, 0.9}) {
      const RawDistance theta_raw = RawThreshold(theta, k);
      ExpectWindowsMatchTheWholeUnion(plain, store, queries, theta_raw, drop);
      ExpectWindowsMatchTheWholeUnion(augmented, store, queries, theta_raw,
                                      drop);
    }
  }
}

/// Serial RangeSearch vs the same query split into every part count over
/// three worker slots: equal answers (after a kept prefix), and the
/// caller's plus the workers' tickers sum to the serial ones with
/// kListsDropped ticked once, by the caller (kBlocksDecoded within the
/// straddling-block bound of ExpectBlocksDecodedBound).
template <typename Index>
void ExpectSplitMatchesSerial(const Index& index, const RankingStore& store,
                              const std::vector<PreparedQuery>& queries,
                              RawDistance theta_raw, DropMode drop) {
  RangeScratch serial_scratch;
  RangeScratch caller_scratch;
  for (const PreparedQuery& query : queries) {
    std::vector<RankingId> want;
    Statistics serial_stats;
    ASSERT_TRUE(RangeSearch(store, &index, query.view(), theta_raw, drop,
                            &serial_scratch, &want, &serial_stats));
    for (const size_t parts : PartCounts(store)) {
      SplitWorkers workers(3);
      const RangeSplit split{parts, 0, LoopRunner(3), workers.slots};
      std::vector<RankingId> out = {999999, 4};
      Statistics caller_stats;
      ASSERT_TRUE(RangeSearch(store, &index, query.view(), theta_raw, drop,
                              &caller_scratch, &out, &caller_stats, nullptr,
                              KeepAllRows{}, &split));
      ASSERT_EQ(std::vector<RankingId>(out.begin() + 2, out.end()), want)
          << "drop=" << DropModeName(drop) << " theta_raw=" << theta_raw
          << " parts=" << parts;
      EXPECT_EQ(out[0], 999999u);
      EXPECT_EQ(out[1], 4u);
      const Statistics summed = workers.Summed();
      const Statistics total = Merge(caller_stats, summed);
      EXPECT_TRUE(testutil::TickersEqualExcept(total, serial_stats,
                                               Ticker::kBlocksDecoded))
          << "parts=" << parts;
      ExpectBlocksDecodedBound(index, query.view(), theta_raw, drop,
                               UnionCoversRange(store.k(), theta_raw), total,
                               serial_stats, parts);
      EXPECT_EQ(summed.Get(Ticker::kListsDropped), 0u);
      if (parts > 1 && UnionCoversRange(store.k(), theta_raw)) {
        // The split really ran: the caller validated nothing itself.
        EXPECT_EQ(caller_stats.Get(Ticker::kCandidates), 0u);
      } else {
        // One part, or the full-domain sweep from dmax on: serial.
        EXPECT_EQ(summed, Statistics());
      }
    }
  }
}

TEST(RangeSplitTest, PartsMatchSerialAnswerAndTickers) {
  const uint32_t k = 8;
  const RankingStore store = testutil::MakeClusteredStore(k, 700, 53);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const AugmentedInvertedIndex augmented =
      AugmentedInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 12, 54);
  for (const DropMode drop :
       {DropMode::kNone, DropMode::kConservative, DropMode::kPositionRefined}) {
    for (const double theta : {0.1, 0.3, 0.6, 0.9}) {
      const RawDistance theta_raw = RawThreshold(theta, k);
      ExpectSplitMatchesSerial(plain, store, queries, theta_raw, drop);
      ExpectSplitMatchesSerial(augmented, store, queries, theta_raw, drop);
    }
  }
}

/// A store whose lists take every compressed-tier shape: items 0..8 hold
/// 1, 8 (the inline limit), 9, 127, 128, 129, 255, 256 and 257 postings,
/// spread over the whole id range so split windows cut through their
/// blocks, and item 9 holds none; the other slots of each ranking are
/// random filler items from a 30-item domain, whose lists are long.
RankingStore MakeListLengthStore() {
  constexpr uint32_t kK = 10;
  constexpr size_t kN = 300;
  const size_t lengths[] = {1, 8, 9, 127, 128, 129, 255, 256, 257};
  std::vector<std::vector<ItemId>> rows(kN);
  for (size_t s = 0; s < std::size(lengths); ++s) {
    for (size_t j = 0; j < lengths[s]; ++j) {
      rows[j * kN / lengths[s]].push_back(static_cast<ItemId>(s));
    }
  }
  Rng rng(71);
  RankingStore store(kK);
  for (std::vector<ItemId>& items : rows) {
    while (items.size() < kK) {
      const auto item = static_cast<ItemId>(20 + rng.Below(30));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    // Shuffle so the special items do not always take the top ranks.
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.Below(i)]);
    }
    store.AddUnchecked(items);
  }
  return store;
}

/// Queries over the list-length store: stored rankings (ranking 0 holds
/// every special item), their perturbed copies, and one query of all nine
/// special items plus the empty item 9.
std::vector<PreparedQuery> ListLengthQueries(const RankingStore& store) {
  std::vector<PreparedQuery> queries = testutil::MakeQueries(store, 3, 72);
  queries.emplace_back(store.Materialize(0));
  queries.emplace_back(store.Materialize(150));
  queries.emplace_back(
      Ranking::Create({9, 0, 1, 2, 3, 4, 5, 6, 7, 8}).ValueOrDie());
  return queries;
}

TEST(CompressedSplitTest, WindowsAndSplitsMatchTheWholeQuery) {
  // The storage tier's index under the same window and split checks as
  // the RAM indexes: each window decodes only the blocks it meets, yet
  // its candidates are the whole union's inside it, and a split returns
  // the serial answer with the serial tickers (kBlocksDecoded within one
  // straddling block per list per boundary). Every drop mode, theta up to
  // dmax - 1 and dmax, lists of length 0, 1, 8, 9, 127-129 and 255-257,
  // and a long-list uniform store.
  const RankingStore lengths = MakeListLengthStore();
  const RankingStore uniform =
      testutil::MakeUniformStore(/*k=*/8, /*n=*/400, /*domain=*/24, 73);
  for (const RankingStore* store : {&lengths, &uniform}) {
    const storage::CompressedInvertedIndex index =
        storage::CompressedInvertedIndex::Build(*store);
    const std::vector<PreparedQuery> queries =
        store == &lengths ? ListLengthQueries(*store)
                          : testutil::MakeQueries(*store, 4, 74);
    const uint32_t k = store->k();
    const RawDistance dmax = MaxDistance(k);
    for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                                DropMode::kPositionRefined}) {
      for (const RawDistance theta_raw :
           {RawThreshold(0.1, k), RawThreshold(0.3, k), RawThreshold(0.6, k),
            dmax - 1, dmax}) {
        ExpectWindowsMatchTheWholeUnion(index, *store, queries, theta_raw,
                                        drop);
        ExpectSplitMatchesSerial(index, *store, queries, theta_raw, drop);
      }
    }
  }
}

TEST(RangeSplitTest, ThreadPoolRunnerMatchesSerial) {
  // The frontend's runner: ParallelFor's slot picks the worker.
  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 2000, 55);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 10, 56);
  ThreadPool pool(3);
  SplitWorkers workers(4);
  RangeScratch serial_scratch;
  RangeScratch caller_scratch;
  for (const size_t parts : {size_t{2}, size_t{7}, size_t{64}}) {
    const RangeSplit split{
        parts, 0,
        [&pool](size_t n, const PartBody& body) { pool.ParallelFor(n, body); },
        workers.slots};
    for (const PreparedQuery& query : queries) {
      for (const double theta : {0.2, 0.5}) {
        const RawDistance theta_raw = RawThreshold(theta, k);
        std::vector<RankingId> want;
        ASSERT_TRUE(RangeSearch(store, &index, query.view(), theta_raw,
                                DropMode::kPositionRefined, &serial_scratch,
                                &want));
        std::vector<RankingId> got;
        ASSERT_TRUE(RangeSearch(store, &index, query.view(), theta_raw,
                                DropMode::kPositionRefined, &caller_scratch,
                                &got, nullptr, nullptr, KeepAllRows{},
                                &split));
        ASSERT_EQ(got, want) << "parts=" << parts << " theta=" << theta;
      }
    }
  }
}

TEST(RangeSplitTest, ThreadPoolRunnerMatchesSerialOverCompressedIndex) {
  // The snapshot reader's runner: the pool's ParallelFor over a
  // compressed index, whose parts decode only the blocks of their
  // windows. Answers equal the serial query's, tickers too apart from
  // kBlocksDecoded's straddling blocks.
  const uint32_t k = 10;
  const RankingStore store =
      testutil::MakeUniformStore(k, /*n=*/3000, /*domain=*/50, 75);
  const storage::CompressedInvertedIndex index =
      storage::CompressedInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 6, 76);
  ThreadPool pool(3);
  SplitWorkers workers(4);
  RangeScratch serial_scratch;
  RangeScratch caller_scratch;
  for (const size_t parts : {size_t{2}, size_t{7}, kSplitParts}) {
    const RangeSplit split{
        parts, 0,
        [&pool](size_t n, const PartBody& body) { pool.ParallelFor(n, body); },
        workers.slots};
    for (const PreparedQuery& query : queries) {
      for (const double theta : {0.2, 0.5}) {
        const RawDistance theta_raw = RawThreshold(theta, k);
        std::vector<RankingId> want;
        Statistics serial_stats;
        ASSERT_TRUE(RangeSearch(store, &index, query.view(), theta_raw,
                                DropMode::kPositionRefined, &serial_scratch,
                                &want, &serial_stats));
        for (Statistics& stats : workers.stats) stats.Reset();
        std::vector<RankingId> got;
        Statistics caller_stats;
        ASSERT_TRUE(RangeSearch(store, &index, query.view(), theta_raw,
                                DropMode::kPositionRefined, &caller_scratch,
                                &got, &caller_stats, nullptr, KeepAllRows{},
                                &split));
        ASSERT_EQ(got, want) << "parts=" << parts << " theta=" << theta;
        const Statistics total = Merge(caller_stats, workers.Summed());
        EXPECT_TRUE(testutil::TickersEqualExcept(total, serial_stats,
                                                 Ticker::kBlocksDecoded))
            << "parts=" << parts << " theta=" << theta;
        ExpectBlocksDecodedBound(index, query.view(), theta_raw,
                                 DropMode::kPositionRefined,
                                 /*reads_lists=*/true, total, serial_stats,
                                 parts);
      }
    }
  }
}

TEST(RangeSplitTest, StoppedControlLeavesOutputAtItsEntrySize) {
  const uint32_t k = 8;
  const RankingStore store = testutil::MakeClusteredStore(k, 700, 57);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 4, 58);
  const RawDistance theta_raw = RawThreshold(0.6, k);
  RangeScratch scratch;
  for (const size_t parts : PartCounts(store)) {
    SplitWorkers workers(3);
    const RangeSplit split{parts, 0, LoopRunner(3), workers.slots};
    for (const PreparedQuery& query : queries) {
      // Stopped before the query starts: cancelled, or past the deadline.
      CancelToken token;
      token.Cancel();
      QueryControl cancelled(Deadline::Infinite(), &token);
      QueryControl expired(Deadline::AfterMillis(-1.0));
      for (QueryControl* control : {&cancelled, &expired}) {
        std::vector<RankingId> out = {7};
        EXPECT_FALSE(RangeSearch(store, &index, query.view(), theta_raw,
                                 DropMode::kNone, &scratch, &out, nullptr,
                                 control, KeepAllRows{}, &split));
        EXPECT_EQ(out, std::vector<RankingId>{7}) << "parts=" << parts;
        EXPECT_TRUE(control->stopped());
      }

      // Cancelled while the first part runs: the other parts see it, the
      // query stops, and the caller's control reports the cancel.
      CancelToken mid_token;
      QueryControl mid(Deadline::Infinite(), &mid_token);
      const RangeSplit cancelling{
          parts, 0,
          [&mid_token](size_t n, const PartBody& body) {
            for (size_t p = 0; p < n; ++p) {
              body(0, p);
              mid_token.Cancel();
            }
          },
          workers.slots};
      std::vector<RankingId> out = {7};
      const bool completed =
          RangeSearch(store, &index, query.view(), theta_raw, DropMode::kNone,
                      &scratch, &out, nullptr, &mid, KeepAllRows{},
                      &cancelling);
      if (parts > 1) {
        EXPECT_FALSE(completed) << "parts=" << parts;
        EXPECT_EQ(out, std::vector<RankingId>{7}) << "parts=" << parts;
        EXPECT_TRUE(mid.stopped());
        EXPECT_TRUE(mid.cancelled());
      }
    }
  }
}

TEST(RangeSplitTest, UnsplittablePathsAndSmallVolumesRunSerial) {
  // Blocked lists are not id-sorted, a keep-predicate filters rows, theta
  // at dmax sweeps the full domain, and a volume floor above the query's
  // postings keeps it on the caller: no worker ticks anything, and the
  // answers equal the serial ones.
  const uint32_t k = 6;
  const RankingStore store = testutil::MakeClusteredStore(k, 500, 59);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const BlockedInvertedIndex blocked = BlockedInvertedIndex::Build(store);
  const auto queries = testutil::MakeQueries(store, 8, 60);
  const auto odd = [](RankingId id) { return id % 2 == 1; };
  RangeScratch scratch;
  SplitWorkers workers(3);
  const RangeSplit split{16, 0, LoopRunner(3), workers.slots};
  const RangeSplit floored{16, store.size() * k + 1, LoopRunner(3),
                           workers.slots};
  for (const PreparedQuery& query : queries) {
    for (const RawDistance theta_raw :
         {RawThreshold(0.4, k), MaxDistance(k)}) {
      std::vector<RankingId> want;
      ASSERT_TRUE(RangeSearch(store, &plain, query.view(), theta_raw,
                              DropMode::kNone, &scratch, &want));
      std::vector<RankingId> got;
      ASSERT_TRUE(RangeSearch(store, &blocked, query.view(), theta_raw,
                              DropMode::kNone, &scratch, &got, nullptr,
                              nullptr, KeepAllRows{}, &split));
      EXPECT_EQ(got, want);
      got.clear();
      ASSERT_TRUE(RangeSearch(store, &plain, query.view(), theta_raw,
                              DropMode::kNone, &scratch, &got, nullptr,
                              nullptr, KeepAllRows{}, &floored));
      EXPECT_EQ(got, want);
      if (theta_raw == MaxDistance(k)) {
        got.clear();
        ASSERT_TRUE(RangeSearch(store, &plain, query.view(), theta_raw,
                                DropMode::kNone, &scratch, &got, nullptr,
                                nullptr, KeepAllRows{}, &split));
        EXPECT_EQ(got, want);
      }
      std::vector<RankingId> want_odd;
      for (const RankingId id : want) {
        if (odd(id)) want_odd.push_back(id);
      }
      got.clear();
      ASSERT_TRUE(RangeSearch(store, &plain, query.view(), theta_raw,
                              DropMode::kNone, &scratch, &got, nullptr,
                              nullptr, odd, &split));
      EXPECT_EQ(got, want_odd);
    }
  }
  EXPECT_EQ(workers.Summed(), Statistics());
}

// --- End-to-end: the refactored engines still answer exactly. ---

TEST(KernelEndToEndTest, FvOverArenaMatchesBruteForce) {
  const RankingStore store = testutil::MakeClusteredStore(6, 300, 41);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
  FilterValidateEngine engine(&store, &index);
  const auto queries = testutil::MakeQueries(store, 20, 42);
  for (const PreparedQuery& query : queries) {
    for (const double theta : {0.1, 0.4, 0.8}) {
      const RawDistance theta_raw = RawThreshold(theta, 6);
      ASSERT_EQ(engine.Query(query, theta_raw),
                testutil::BruteForce(store, query, theta_raw));
    }
  }
}

}  // namespace
}  // namespace topk
