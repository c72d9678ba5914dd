// KNN queries (extension beyond the paper's range-only evaluation):
// exactness of every searcher against the linear-scan oracle, pruning
// effectiveness, and edge cases — including the batched sweep's lane
// remainder, tie and ticker contracts, with SIMD on and off.

#include "metric/knn.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "coarse/coarse_index.h"
#include "core/deadline.h"
#include "test_util.h"

namespace topk {
namespace {

/// The served k-NN scan on a fresh validator, SIMD forced on or off.
std::vector<Neighbor> BatchedKnn(const RankingStore& store,
                                 const PreparedQuery& query, size_t j,
                                 bool use_simd, Statistics* stats = nullptr) {
  FootruleValidator validator;
  validator.set_use_simd(use_simd);
  return LinearScanKnnBatched(store, query, j, &validator, stats);
}

/// `n` copies of `items`.
RankingStore RepeatedStore(const std::vector<ItemId>& items, size_t n) {
  RankingStore store(static_cast<uint32_t>(items.size()));
  for (size_t i = 0; i < n; ++i) store.AddUnchecked(items);
  return store;
}

/// Neighbours 0..count-1, all at `distance`.
std::vector<Neighbor> IdsAt(size_t count, RawDistance distance) {
  std::vector<Neighbor> out;
  for (RankingId id = 0; id < count; ++id) out.push_back({id, distance});
  return out;
}

class KnnEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, size_t>> {};

TEST_P(KnnEquivalenceTest, AllSearchersMatchLinearScan) {
  const auto [k, j] = GetParam();
  const RankingStore store = testutil::MakeClusteredStore(k, 1000, 221);
  const BkTree bk = BkTree::BuildAll(&store);
  const MTree mt = MTree::BuildAll(&store);
  CoarseOptions coarse_options;
  coarse_options.theta_c = 0.3;
  const CoarseIndex coarse = CoarseIndex::Build(&store, coarse_options);

  const auto queries = testutil::MakeQueries(store, 15, 222);
  for (const PreparedQuery& query : queries) {
    const auto truth = LinearScanKnn(store, query, j);
    EXPECT_EQ(BkTreeKnn(bk, query, j), truth) << "BK k=" << k << " j=" << j;
    EXPECT_EQ(MTreeKnn(mt, query, j), truth) << "MT k=" << k << " j=" << j;
    EXPECT_EQ(coarse.Knn(query, j), truth) << "Coarse k=" << k << " j=" << j;
    EXPECT_EQ(BatchedKnn(store, query, j, /*use_simd=*/true), truth)
        << "Batched SIMD k=" << k << " j=" << j;
    EXPECT_EQ(BatchedKnn(store, query, j, /*use_simd=*/false), truth)
        << "Batched scalar k=" << k << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnEquivalenceTest,
    ::testing::Combine(::testing::Values(5u, 10u),
                       ::testing::Values(size_t{1}, size_t{5}, size_t{20},
                                         size_t{100})));

TEST(KnnTest, LinearScanOrdering) {
  RankingStore store(3);
  store.AddUnchecked(std::vector<ItemId>{1, 2, 3});  // id 0
  store.AddUnchecked(std::vector<ItemId>{2, 1, 3});  // id 1, distance 2
  store.AddUnchecked(std::vector<ItemId>{1, 2, 3});  // id 2, duplicate
  store.AddUnchecked(std::vector<ItemId>{7, 8, 9});  // id 3, disjoint
  const PreparedQuery query(
      std::move(Ranking::Create({1, 2, 3})).ValueOrDie());
  const auto nn = LinearScanKnn(store, query, 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0], (Neighbor{0, 0}));
  EXPECT_EQ(nn[1], (Neighbor{2, 0}));  // tie broken by id
  EXPECT_EQ(nn[2], (Neighbor{1, 2}));
}

TEST(KnnTest, JLargerThanCollectionReturnsEverything) {
  const RankingStore store = testutil::MakeClusteredStore(5, 50, 223);
  const BkTree bk = BkTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 3, 224);
  for (const auto& query : queries) {
    const auto nn = BkTreeKnn(bk, query, 500);
    EXPECT_EQ(nn.size(), store.size());
    for (size_t i = 1; i < nn.size(); ++i) {
      EXPECT_LE(nn[i - 1].distance, nn[i].distance);
    }
    const auto truth = LinearScanKnn(store, query, 500);
    EXPECT_EQ(truth.size(), store.size());
    EXPECT_EQ(BatchedKnn(store, query, 500, /*use_simd=*/true), truth);
    EXPECT_EQ(BatchedKnn(store, query, 500, /*use_simd=*/false), truth);
  }
}

TEST(KnnTest, JZeroReturnsNothing) {
  const RankingStore store = testutil::MakeClusteredStore(5, 50, 225);
  const BkTree bk = BkTree::BuildAll(&store);
  const MTree mt = MTree::BuildAll(&store);
  const PreparedQuery query(store.Materialize(0));
  EXPECT_TRUE(BkTreeKnn(bk, query, 0).empty());
  EXPECT_TRUE(MTreeKnn(mt, query, 0).empty());
  EXPECT_TRUE(LinearScanKnn(store, query, 0).empty());
  EXPECT_TRUE(BatchedKnn(store, query, 0, /*use_simd=*/true).empty());
  EXPECT_TRUE(BatchedKnn(store, query, 0, /*use_simd=*/false).empty());
}

TEST(KnnSweepTest, StoreSizeNotAMultipleOfTheLaneWidth) {
  // 1003 rows: every lane width leaves a scalar remainder, and it holds
  // copies of a query, so the remainder must displace neighbours the lane
  // batches admitted.
  RankingStore store = testutil::MakeClusteredStore(10, 1000, 231);
  const auto queries = testutil::MakeQueries(store, 5, 232);
  for (int copy = 0; copy < 3; ++copy) {
    store.AddUnchecked(queries[0].view().items());
  }
  ASSERT_EQ(store.size(), 1003u);
  for (const PreparedQuery& query : queries) {
    for (const size_t j : {size_t{1}, size_t{3}, size_t{7}, size_t{9}}) {
      const auto truth = LinearScanKnn(store, query, j);
      EXPECT_EQ(BatchedKnn(store, query, j, /*use_simd=*/true), truth)
          << "j=" << j;
      EXPECT_EQ(BatchedKnn(store, query, j, /*use_simd=*/false), truth)
          << "j=" << j;
    }
  }
}

TEST(KnnSweepTest, AllDuplicatesTieAcrossTheHeapBoundary) {
  // Every row ties, so the heap fills and then rejects equal-distance
  // rows by id inside the very lane batch that filled it. At distance 0
  // the threshold stays 0 (equal rows reach Offer); above 0 it drops to
  // worst - 1 (equal rows never pass the kernel). Both keep ids 0..j-1.
  const std::vector<ItemId> row = {1, 2, 3, 4, 5};
  const RankingStore store = RepeatedStore(row, 37);
  const PreparedQuery exact(std::move(Ranking::Create(row)).ValueOrDie());
  const PreparedQuery swapped(
      std::move(Ranking::Create({1, 2, 3, 5, 4})).ValueOrDie());
  for (const size_t j : {size_t{1}, size_t{3}, size_t{5}, size_t{12}}) {
    for (const bool simd : {true, false}) {
      EXPECT_EQ(BatchedKnn(store, exact, j, simd), IdsAt(j, 0))
          << "j=" << j << " simd=" << simd;
      EXPECT_EQ(BatchedKnn(store, swapped, j, simd), IdsAt(j, 2))
          << "j=" << j << " simd=" << simd;
    }
  }
}

TEST(KnnSweepTest, AllDisjointRowsSitAtDmaxInIdOrder) {
  const RankingStore store = RepeatedStore({10, 11, 12, 13}, 21);
  const PreparedQuery query(
      std::move(Ranking::Create({1, 2, 3, 4})).ValueOrDie());
  const RawDistance dmax = MaxDistance(4);
  for (const size_t j : {size_t{1}, size_t{8}, size_t{21}, size_t{40}}) {
    const auto expected = IdsAt(std::min(j, store.size()), dmax);
    EXPECT_EQ(LinearScanKnn(store, query, j), expected);
    EXPECT_EQ(BatchedKnn(store, query, j, /*use_simd=*/true), expected);
    EXPECT_EQ(BatchedKnn(store, query, j, /*use_simd=*/false), expected);
  }
}

TEST(KnnSweepTest, DistanceCallsAreOnePerRowWithSimdOnAndOff) {
  const RankingStore store = testutil::MakeClusteredStore(10, 999, 233);
  const auto queries = testutil::MakeQueries(store, 4, 234);
  Statistics scalar_oracle, simd_on, simd_off;
  for (const PreparedQuery& query : queries) {
    LinearScanKnn(store, query, 10, &scalar_oracle);
    BatchedKnn(store, query, 10, /*use_simd=*/true, &simd_on);
    BatchedKnn(store, query, 10, /*use_simd=*/false, &simd_off);
  }
  const uint64_t expected = queries.size() * store.size();
  EXPECT_EQ(scalar_oracle.Get(Ticker::kDistanceCalls), expected);
  EXPECT_EQ(simd_on.Get(Ticker::kDistanceCalls), expected);
  EXPECT_EQ(simd_off.Get(Ticker::kDistanceCalls), expected);
}

TEST(KnnSweepTest, StoppedSweepReturnsNothing) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 235);
  const PreparedQuery query(store.Materialize(0));
  FootruleValidator validator;
  CancelToken token;
  token.Cancel();
  QueryControl cancelled(Deadline::Infinite(), &token);
  EXPECT_TRUE(
      LinearScanKnnBatched(store, query, 5, &validator, nullptr, &cancelled)
          .empty());
  EXPECT_TRUE(cancelled.stopped());
  QueryControl expired(Deadline::AfterMillis(-1.0));
  EXPECT_TRUE(
      LinearScanKnnBatched(store, query, 5, &validator, nullptr, &expired)
          .empty());
  EXPECT_TRUE(expired.stopped());
  // The same validator still answers an unconstrained query exactly.
  EXPECT_EQ(LinearScanKnnBatched(store, query, 5, &validator),
            LinearScanKnn(store, query, 5));
}

TEST(KnnTest, TreesPruneDistanceCallsForSmallJ) {
  const RankingStore store = testutil::MakeClusteredStore(10, 3000, 226);
  const BkTree bk = BkTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 10, 227);
  Statistics stats;
  for (const auto& query : queries) BkTreeKnn(bk, query, 5, &stats);
  EXPECT_LT(stats.Get(Ticker::kDistanceCalls),
            queries.size() * store.size())
      << "KNN must not degenerate into a full scan";
}

TEST(KnnTest, NeighborDistancesAreExact) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 228);
  const MTree mt = MTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 5, 229);
  for (const auto& query : queries) {
    for (const Neighbor& neighbor : MTreeKnn(mt, query, 10)) {
      EXPECT_EQ(neighbor.distance,
                FootruleDistance(query.sorted_view(),
                                 store.sorted(neighbor.id)));
    }
  }
}

TEST(KnnTest, DuplicateHeavyCollection) {
  RankingStore store(5);
  const ItemId a[] = {1, 2, 3, 4, 5};
  const ItemId b[] = {1, 2, 3, 5, 4};
  for (int i = 0; i < 100; ++i) {
    store.AddUnchecked(a);
    store.AddUnchecked(b);
  }
  const BkTree bk = BkTree::BuildAll(&store);
  const PreparedQuery query(std::move(Ranking::Create(
                                std::vector<ItemId>(a, a + 5)))
                                .ValueOrDie());
  const auto nn = BkTreeKnn(bk, query, 150);
  ASSERT_EQ(nn.size(), 150u);
  // The 100 exact copies come first (distance 0, ids even), then 50 of
  // the swapped variant (distance 2).
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(nn[i].distance, 0u);
  for (size_t i = 100; i < 150; ++i) EXPECT_EQ(nn[i].distance, 2u);
}

}  // namespace
}  // namespace topk
