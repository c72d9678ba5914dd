// Edge cases across the stack: k = 1, single-element stores, all-identical
// collections, maximal thresholds, and duplicate-heavy structures (the
// BK-tree 0-edge and M-tree balanced-tie paths).

#include <gtest/gtest.h>

#include <numeric>

#include "harness/query_algorithms.h"
#include "test_util.h"

namespace topk {
namespace {

TEST(EdgeCaseTest, KEqualsOneRankings) {
  RankingStore store(1);
  for (ItemId item : {3u, 7u, 3u, 9u, 7u, 3u}) {
    store.AddUnchecked(std::vector<ItemId>{item});
  }
  // dmax = 1*2 = 2; identical singletons at 0, different ones at 2.
  EXPECT_EQ(MaxDistance(1), 2u);
  const PreparedQuery query(std::move(Ranking::Create({3})).ValueOrDie());
  EngineSuite suite(&store);
  for (Algorithm algorithm :
       {Algorithm::kFV, Algorithm::kListMerge, Algorithm::kLaatPrune,
        Algorithm::kBlockedPrune, Algorithm::kCoarse, Algorithm::kBkTree,
        Algorithm::kMTree, Algorithm::kAdaptSearch}) {
    auto engine = suite.MakeEngine(algorithm);
    EXPECT_EQ(engine->Query(0, query, 0, nullptr, nullptr),
              (std::vector<RankingId>{0, 2, 5}))
        << AlgorithmName(algorithm);
    EXPECT_EQ(engine->Query(0, query, 1, nullptr, nullptr),
              (std::vector<RankingId>{0, 2, 5}))
        << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, SingleRankingStore) {
  RankingStore store(5);
  store.AddUnchecked(std::vector<ItemId>{1, 2, 3, 4, 5});
  EngineSuite suite(&store);
  const PreparedQuery hit(
      std::move(Ranking::Create({1, 2, 3, 4, 5})).ValueOrDie());
  const PreparedQuery near(
      std::move(Ranking::Create({2, 1, 3, 4, 5})).ValueOrDie());
  for (Algorithm algorithm :
       {Algorithm::kFV, Algorithm::kCoarse, Algorithm::kBkTree,
        Algorithm::kMTree, Algorithm::kLaatPrune, Algorithm::kAdaptSearch}) {
    auto engine = suite.MakeEngine(algorithm);
    EXPECT_EQ(engine->Query(0, hit, 0, nullptr, nullptr),
              (std::vector<RankingId>{0}))
        << AlgorithmName(algorithm);
    EXPECT_EQ(engine->Query(0, near, 1, nullptr, nullptr),
              std::vector<RankingId>{})
        << AlgorithmName(algorithm);
    EXPECT_EQ(engine->Query(0, near, 2, nullptr, nullptr),
              (std::vector<RankingId>{0}))
        << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, AllIdenticalCollection) {
  RankingStore store(5);
  for (int i = 0; i < 500; ++i) {
    store.AddUnchecked(std::vector<ItemId>{5, 4, 3, 2, 1});
  }
  EngineSuite suite(&store);
  const PreparedQuery query(
      std::move(Ranking::Create({5, 4, 3, 2, 1})).ValueOrDie());
  std::vector<RankingId> everyone(store.size());
  std::iota(everyone.begin(), everyone.end(), 0);
  for (Algorithm algorithm :
       {Algorithm::kFV, Algorithm::kCoarse, Algorithm::kBkTree,
        Algorithm::kMTree, Algorithm::kBlockedPrune}) {
    auto engine = suite.MakeEngine(algorithm);
    EXPECT_EQ(engine->Query(0, query, 0, nullptr, nullptr), everyone)
        << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, BkTreeDuplicateChainsSkipDistanceCalls) {
  // 1 seed + 999 exact duplicates: querying must not pay a Footrule call
  // per duplicate (the 0-edge shortcut, BkTreeOptions).
  RankingStore store(10);
  std::vector<ItemId> row = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (int i = 0; i < 1000; ++i) store.AddUnchecked(row);
  const BkTree tree = BkTree::BuildAll(&store);
  const PreparedQuery query(std::move(Ranking::Create(row)).ValueOrDie());
  Statistics stats;
  const auto results = tree.RangeQuery(query.sorted_view(), 0, &stats);
  EXPECT_EQ(results.size(), 1000u);
  EXPECT_LE(stats.Get(Ticker::kDistanceCalls), 2u)
      << "duplicates must reuse the root distance";
}

TEST(EdgeCaseTest, BkTreeDuplicateChainsBuildCheaply) {
  RankingStore store(10);
  std::vector<ItemId> row = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (int i = 0; i < 1000; ++i) store.AddUnchecked(row);
  Statistics stats;
  const BkTree tree = BkTree::BuildAll(&store, &stats);
  EXPECT_EQ(tree.size(), 1000u);
  // Linear, not quadratic: one distance call and one descent step per
  // insert, where walking the 0-edge chain would take ~500k steps.
  EXPECT_LE(stats.Get(Ticker::kDistanceCalls), 1100u);
  EXPECT_LE(stats.Get(Ticker::kTreeNodesVisited), 2u * 1000u);
}

TEST(EdgeCaseTest, MTreeDuplicateHeavyBuildStaysBalanced) {
  RankingStore store(10);
  std::vector<ItemId> row_a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<ItemId> row_b = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  for (int i = 0; i < 1000; ++i) {
    store.AddUnchecked(row_a);
    store.AddUnchecked(row_b);
  }
  MTreeOptions options;
  options.node_capacity = 16;
  Statistics stats;
  const MTree tree = MTree::BuildAll(&store, options, &stats);
  EXPECT_TRUE(tree.CheckInvariants());
  // Balanced tie-splitting keeps construction near-linear; the degenerate
  // (capacity, 1) splitting would need >> 40 distance calls per insert.
  EXPECT_LT(stats.Get(Ticker::kDistanceCalls), 2000u * 64u);
  const PreparedQuery query(std::move(Ranking::Create(row_a)).ValueOrDie());
  EXPECT_EQ(tree.RangeQuery(query.sorted_view(), 0).size(), 1000u);
}

TEST(EdgeCaseTest, ThresholdJustBelowMaxStillExact) {
  const RankingStore store = testutil::MakeClusteredStore(5, 300, 211);
  EngineSuite suite(&store);
  const auto queries = testutil::MakeQueries(store, 5, 212);
  const RawDistance theta_raw = MaxDistance(5) - 1;
  for (Algorithm algorithm :
       {Algorithm::kFV, Algorithm::kListMerge, Algorithm::kLaatPrune,
        Algorithm::kCoarse, Algorithm::kBkTree, Algorithm::kAdaptSearch}) {
    auto engine = suite.MakeEngine(algorithm);
    for (const auto& query : queries) {
      EXPECT_EQ(engine->Query(0, query, theta_raw, nullptr, nullptr),
                testutil::BruteForce(store, query, theta_raw))
          << AlgorithmName(algorithm);
    }
  }
}

TEST(EdgeCaseTest, MetricTreesHandleThetaEqualMax) {
  // Metric trees have no overlap requirement: at theta = dmax they must
  // return everything (unlike inverted-index methods, whose contract
  // requires theta < dmax).
  const RankingStore store = testutil::MakeClusteredStore(5, 200, 213);
  const BkTree bk = BkTree::BuildAll(&store);
  const MTree mt = MTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 3, 214);
  for (const auto& query : queries) {
    EXPECT_EQ(bk.RangeQuery(query.sorted_view(), MaxDistance(5)).size(),
              store.size());
    EXPECT_EQ(mt.RangeQuery(query.sorted_view(), MaxDistance(5)).size(),
              store.size());
  }
}

TEST(EdgeCaseTest, GeneratorZipfTailRespectsCap) {
  GeneratorOptions options;
  options.n = 2000;
  options.k = 10;
  options.domain = 4000;
  options.zipf_s = 0.8;
  options.cluster_zipf_exponent = 1.5;
  options.max_cluster_size = 50;
  options.exact_duplicate_probability = 1.0;
  options.seed = 31;
  const RankingStore store = Generate(options);
  ASSERT_EQ(store.size(), 2000u);
  // With exact duplicates only, runs of identical rankings = clusters;
  // none may exceed the cap.
  size_t run = 1;
  size_t longest = 1;
  for (RankingId id = 1; id < store.size(); ++id) {
    const bool same = std::equal(store.view(id).items().begin(),
                                 store.view(id).items().end(),
                                 store.view(id - 1).items().begin());
    run = same ? run + 1 : 1;
    longest = std::max(longest, run);
  }
  EXPECT_LE(longest, 50u);
  EXPECT_GT(longest, 2u) << "the tail should produce some real clusters";
}

}  // namespace
}  // namespace topk
