// Coarse index: exactness across the full configuration space (the
// paper's Lemma 1 correctness), phase accounting, and structural checks.

#include "coarse/coarse_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <tuple>

#include "cluster/cn_partitioner.h"
#include "core/footrule.h"
#include "data/generator.h"
#include "harness/thread_pool.h"
#include "invidx/filter_validate.h"
#include "kernel/id_split.h"
#include "test_util.h"

namespace topk {
namespace {

class CoarseEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<double, double, int, int>> {};

TEST_P(CoarseEquivalenceTest, MatchesBruteForce) {
  const auto [theta, theta_c, partitioner_int, drop_int] = GetParam();
  CoarseOptions options;
  options.theta_c = theta_c;
  options.partitioner = static_cast<PartitionerKind>(partitioner_int);
  options.drop = static_cast<DropMode>(drop_int);

  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 1200, 131);
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  const auto queries = testutil::MakeQueries(store, 20, 132);
  const RawDistance theta_raw = RawThreshold(theta, k);
  for (const PreparedQuery& query : queries) {
    EXPECT_EQ(index.Query(query, theta_raw),
              testutil::BruteForce(store, query, theta_raw))
        << "theta=" << theta << " theta_c=" << theta_c
        << " partitioner=" << PartitionerKindName(options.partitioner)
        << " drop=" << drop_int;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoarseEquivalenceTest,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.2, 0.3),
                       ::testing::Values(0.06, 0.2, 0.5),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(0, 2)));

TEST(CoarseIndexTest, FallbackWhenRelaxedThresholdReachesMax) {
  // theta + radius >= dmax: the inverted index cannot see disjoint
  // medoids; the engine must fall back to scanning medoids and stay exact.
  const uint32_t k = 5;
  const RankingStore store = testutil::MakeClusteredStore(k, 400, 133);
  CoarseOptions options;
  options.theta_c = 0.8;
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  const auto queries = testutil::MakeQueries(store, 10, 134);
  const RawDistance theta_raw = RawThreshold(0.5, k);
  for (const PreparedQuery& query : queries) {
    EXPECT_EQ(index.Query(query, theta_raw),
              testutil::BruteForce(store, query, theta_raw));
  }
}

TEST(CoarseIndexTest, PartitionCountShrinksWithThetaC) {
  const RankingStore store = testutil::MakeClusteredStore(10, 1500, 135);
  size_t previous = store.size() + 1;
  for (double theta_c : {0.0, 0.1, 0.3, 0.6}) {
    CoarseOptions options;
    options.theta_c = theta_c;
    const CoarseIndex index = CoarseIndex::Build(&store, options);
    EXPECT_LE(index.num_partitions(), previous);
    previous = index.num_partitions();
  }
}

TEST(CoarseIndexTest, StrictModeMaxRadiusWithinThetaC) {
  const RankingStore store = testutil::MakeClusteredStore(10, 800, 136);
  CoarseOptions options;
  options.theta_c = 0.3;
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  EXPECT_LE(index.max_radius(), RawThreshold(0.3, 10));
}

TEST(CoarseIndexTest, PhaseTimesAreRecorded) {
  const RankingStore store = testutil::MakeClusteredStore(10, 800, 137);
  CoarseOptions options;
  options.theta_c = 0.3;
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  const auto queries = testutil::MakeQueries(store, 20, 138);
  PhaseTimes phases;
  for (const auto& query : queries) {
    index.Query(query, RawThreshold(0.2, 10), nullptr, &phases);
  }
  EXPECT_GT(phases.filter_ms, 0.0);
  EXPECT_GT(phases.validate_ms, 0.0);
}

TEST(CoarseIndexTest, DistanceCallsBelowFvOnClusteredData) {
  // The headline effect: partition medoids absorb near-duplicates, so
  // coarse validation needs fewer Footrule calls than validating every
  // candidate as F&V does.
  const RankingStore store = testutil::MakeClusteredStore(10, 3000, 139);
  CoarseOptions options;
  options.theta_c = 0.3;
  const CoarseIndex index = CoarseIndex::Build(&store, options);

  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  FilterValidateEngine fv(&store, &plain);

  const auto queries = testutil::MakeQueries(store, 20, 140);
  Statistics coarse_stats;
  Statistics fv_stats;
  const RawDistance theta_raw = RawThreshold(0.1, 10);
  for (const auto& query : queries) {
    index.Query(query, theta_raw, &coarse_stats);
    fv.Query(query, theta_raw, &fv_stats);
  }
  EXPECT_LT(coarse_stats.Get(Ticker::kDistanceCalls),
            fv_stats.Get(Ticker::kDistanceCalls));
}

TEST(CoarseIndexTest, BuildFromExternalPartitioning) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 141);
  Rng rng(11);
  Partitioning partitioning =
      CnPartition(store, RawThreshold(0.25, 10), &rng);
  CoarseOptions options;
  options.theta_c = 0.25;
  const CoarseIndex index = CoarseIndex::BuildFromPartitioning(
      &store, options, std::move(partitioning));
  const auto queries = testutil::MakeQueries(store, 10, 142);
  const RawDistance theta_raw = RawThreshold(0.2, 10);
  for (const auto& query : queries) {
    EXPECT_EQ(index.Query(query, theta_raw),
              testutil::BruteForce(store, query, theta_raw));
  }
}

TEST(CoarseIndexTest, MemoryUsageAccountsPartitions) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 143);
  CoarseOptions options;
  options.theta_c = 0.3;
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  EXPECT_GT(index.MemoryUsage(), 0u);
  size_t total_members = 0;
  for (size_t p = 0; p < index.num_partitions(); ++p) {
    const std::span<const RankingId> members = index.members(p);
    EXPECT_TRUE(std::ranges::is_sorted(members)) << p;
    EXPECT_TRUE(std::ranges::binary_search(members, index.medoid(p))) << p;
    total_members += members.size();
  }
  EXPECT_EQ(total_members, store.size());
}

TEST(CoarseIndexTest, SingletonPartitionsBehaveAtThetaCZero) {
  const RankingStore store = testutil::MakeClusteredStore(10, 400, 144);
  CoarseOptions options;
  options.theta_c = 0.0;
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  const auto queries = testutil::MakeQueries(store, 10, 145);
  for (double theta : {0.0, 0.2}) {
    const RawDistance theta_raw = RawThreshold(theta, 10);
    for (const auto& query : queries) {
      EXPECT_EQ(index.Query(query, theta_raw),
                testutil::BruteForce(store, query, theta_raw));
    }
  }
}

/// Same medoids, radii and member spans, partition for partition.
void ExpectSameIndex(const CoarseIndex& got, const CoarseIndex& want) {
  ASSERT_EQ(got.num_partitions(), want.num_partitions());
  EXPECT_EQ(got.max_radius(), want.max_radius());
  for (size_t p = 0; p < got.num_partitions(); ++p) {
    ASSERT_EQ(got.medoid(p), want.medoid(p)) << p;
    ASSERT_EQ(got.radius(p), want.radius(p)) << p;
    ASSERT_TRUE(std::ranges::equal(got.members(p), want.members(p))) << p;
  }
}

/// Builds `store`'s index serially, over a 3-worker pool and over a runner
/// that runs parts last to first: all three are the same index with the
/// same construction tallies.
void CheckRunnerBuilds(const RankingStore& store,
                       const CoarseOptions& options) {
  Statistics serial_stats;
  const CoarseIndex serial = CoarseIndex::Build(&store, options, &serial_stats);
  ThreadPool pool(3);
  const PartRunner reverse = [](size_t parts, const PartBody& body) {
    for (size_t part = parts; part-- > 0;) body(0, part);
  };
  for (const PartRunner& runner : {PoolRunner(&pool), reverse}) {
    Statistics stats;
    ExpectSameIndex(CoarseIndex::Build(&store, options, &stats, runner),
                    serial);
    EXPECT_EQ(stats, serial_stats);
  }
}

TEST(CoarseIndexTest, RunnerBuildEqualsSerialBuild) {
  // Large enough that the global BK-tree's first level fans out.
  const RankingStore store =
      Generate(NytLikeOptions(BkTree::kFanOutMinCalls + 2000, 10, 20150323));
  for (const PartitionerKind partitioner :
       {PartitionerKind::kBkStrict, PartitionerKind::kBkSubtree}) {
    SCOPED_TRACE(PartitionerKindName(partitioner));
    CoarseOptions options;
    options.theta_c = 0.06;
    options.partitioner = partitioner;
    options.drop = DropMode::kPositionRefined;
    CheckRunnerBuilds(store, options);
  }
}

// --- Member spans: ball containment, boundaries and concurrency. ---

/// Two interleaved near-duplicate groups, each a partition of radius 2:
/// even ids hold ranking A and its adjacent-swap variants, odd ids ranking
/// C (A with its last two items replaced, d(A, C) = 6) and C's variants.
/// Eight rankings over disjoint items sit at dmax from both groups as
/// singleton partitions.
struct InterleavedGroups {
  RankingStore store{10};
  Partitioning partitioning;
};

InterleavedGroups MakeInterleavedGroups() {
  InterleavedGroups g;
  std::vector<ItemId> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<ItemId> c = {1, 2, 3, 4, 5, 6, 7, 8, 11, 12};
  Partition pa{0, {}, 0};
  Partition pc{1, {}, 0};
  for (int i = 0; i < 20; ++i) {
    std::vector<ItemId> va = a;
    std::vector<ItemId> vc = c;
    if (i % 4 == 3) {  // every fourth row is an adjacent-swap variant
      std::swap(va[i % 9], va[i % 9 + 1]);
      std::swap(vc[i % 9], vc[i % 9 + 1]);
    }
    pa.members.push_back(g.store.AddUnchecked(va));
    pc.members.push_back(g.store.AddUnchecked(vc));
  }
  for (Partition* p : {&pa, &pc}) {
    for (const RankingId id : p->members) {
      p->radius = std::max(p->radius, FootruleDistance(g.store.sorted(p->medoid),
                                                       g.store.sorted(id)));
    }
  }
  g.partitioning.partitions = {pa, pc};
  for (ItemId base = 100; base < 180; base += 10) {
    std::vector<ItemId> far(10);
    for (ItemId i = 0; i < 10; ++i) far[i] = base + i;
    const RankingId id = g.store.AddUnchecked(far);
    g.partitioning.partitions.push_back(Partition{id, {id}, 0});
  }
  return g;
}

PreparedQuery QueryOfRow(const RankingStore& store, RankingId id) {
  const std::span<const ItemId> items = store.view(id).items();
  return PreparedQuery(std::move(Ranking::Create(std::vector<ItemId>(
                                     items.begin(), items.end())))
                           .ValueOrDie());
}

TEST(CoarseSpanTest, PartitionInsideTheBallIsEmittedWithoutMemberCalls) {
  InterleavedGroups g = MakeInterleavedGroups();
  ASSERT_EQ(g.partitioning.partitions[0].radius, 2u);
  const CoarseIndex index =
      CoarseIndex::BuildFromPartitioning(&g.store, {}, g.partitioning);
  const PreparedQuery query = QueryOfRow(g.store, 0);
  // d(q, m_A) = 0, r_A = 2: at theta = 2 group A lies inside the ball,
  // group C (medoid at 6) is not even probed.
  Statistics stats;
  const std::vector<RankingId> got = index.Query(query, 2, &stats);
  EXPECT_EQ(got, testutil::BruteForce(g.store, query, 2));
  EXPECT_EQ(got.size(), index.members(0).size());
  EXPECT_EQ(stats.Get(Ticker::kAcceptedByUpperBound), index.members(0).size());
  EXPECT_EQ(stats.Get(Ticker::kPartitionsProbed), 1u);
  // Only the retrieved medoids were scored.
  EXPECT_EQ(stats.Get(Ticker::kDistanceCalls),
            stats.Get(Ticker::kCandidates));
}

TEST(CoarseSpanTest, ThetaExactlyAtMedoidDistancePlusRadius) {
  InterleavedGroups g = MakeInterleavedGroups();
  const CoarseIndex index =
      CoarseIndex::BuildFromPartitioning(&g.store, {}, g.partitioning);
  const PreparedQuery query = QueryOfRow(g.store, 0);
  const RawDistance to_c = FootruleDistance(query.sorted_view(),
                                            g.store.sorted(index.medoid(1)));
  ASSERT_EQ(to_c, 6u);
  const RawDistance edge = to_c + index.radius(1);
  // At d + r_C both groups are emitted whole, their ids interleaved; one
  // below, group C is validated member by member.
  for (const RawDistance theta : {edge - 1, edge, edge + 1}) {
    Statistics stats;
    const std::vector<RankingId> got = index.Query(query, theta, &stats);
    EXPECT_EQ(got, testutil::BruteForce(g.store, query, theta))
        << "theta=" << theta;
    EXPECT_TRUE(std::ranges::is_sorted(got)) << "theta=" << theta;
    const uint64_t whole = index.members(0).size() +
                           (theta >= edge ? index.members(1).size() : 0);
    EXPECT_EQ(stats.Get(Ticker::kAcceptedByUpperBound), whole)
        << "theta=" << theta;
  }
}

TEST(CoarseSpanTest, AllPartitionersMatchBruteForceWithSimdOnAndOff) {
  const uint32_t k = 5;
  const RankingStore store = testutil::MakeClusteredStore(k, 600, 146);
  const auto queries = testutil::MakeQueries(store, 12, 147);
  for (const PartitionerKind partitioner :
       {PartitionerKind::kBkStrict, PartitionerKind::kBkSubtree,
        PartitionerKind::kChavezNavarro}) {
    // theta_c = 0.8 with theta >= 0.3 reaches dmax: the medoid-scan
    // fallback.
    for (const double theta_c : {0.1, 0.8}) {
      CoarseOptions options;
      options.theta_c = theta_c;
      options.partitioner = partitioner;
      const CoarseIndex index = CoarseIndex::Build(&store, options);
      for (const bool use_simd : {true, false}) {
        CoarseScratch scratch;
        scratch.validator.set_use_simd(use_simd);
        for (const double theta : {0.0, 0.1, 0.3, 0.5}) {
          const RawDistance theta_raw = RawThreshold(theta, k);
          for (const PreparedQuery& query : queries) {
            ASSERT_EQ(index.Query(query, theta_raw, &scratch, nullptr,
                                  nullptr),
                      testutil::BruteForce(store, query, theta_raw))
                << PartitionerKindName(partitioner) << " theta_c=" << theta_c
                << " simd=" << use_simd << " theta=" << theta;
          }
        }
      }
    }
  }
}

TEST(CoarseSpanTest, FourThreadsShareOneIndexWithTheirOwnScratch) {
  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 2000, 148);
  CoarseOptions options;
  options.theta_c = 0.2;
  options.drop = DropMode::kPositionRefined;
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  const auto queries = testutil::MakeQueries(store, 16, 149);
  const RawDistance theta_raw = RawThreshold(0.2, k);
  std::vector<std::vector<RankingId>> truth;
  for (const PreparedQuery& query : queries) {
    truth.push_back(testutil::BruteForce(store, query, theta_raw));
  }
  std::vector<size_t> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      CoarseScratch scratch;
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          const size_t i = (q + t) % queries.size();
          if (index.Query(queries[i], theta_raw, &scratch, nullptr,
                          nullptr) != truth[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

TEST(CoarseSpanTest, TrippedCancelStopsBeforeAnyLaneBatch) {
  const RankingStore store = testutil::MakeClusteredStore(10, 1500, 150);
  CoarseOptions options;
  options.theta_c = 0.2;
  const CoarseIndex index = CoarseIndex::Build(&store, options);
  CancelToken tripped;
  tripped.Cancel();
  for (const PreparedQuery& query : testutil::MakeQueries(store, 5, 151)) {
    QueryControl control(Deadline::Infinite(), &tripped);
    CoarseScratch scratch;
    Statistics stats;
    EXPECT_TRUE(index
                    .Query(query, RawThreshold(0.3, 10), &scratch, &stats,
                           nullptr, &control)
                    .empty());
    EXPECT_TRUE(control.stopped());
    EXPECT_LE(stats.Get(Ticker::kDistanceCalls), kSimdLanes);
    EXPECT_EQ(stats.Get(Ticker::kResults), 0u);
  }
}

}  // namespace
}  // namespace topk
