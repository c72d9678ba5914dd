// Coarse index: exactness across the full configuration space (the
// paper's Lemma 1 correctness), phase accounting, and structural checks.

#include "coarse/coarse_index.h"

#include <gtest/gtest.h>

#include <tuple>

#include "cluster/cn_partitioner.h"
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
  EXPECT_EQ(index.partitioning().total_members(), store.size());
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

/// Same medoids, partitions and radii, and every partition tree node for
/// node.
void ExpectSameIndex(const CoarseIndex& got, const CoarseIndex& want) {
  ASSERT_EQ(got.num_partitions(), want.num_partitions());
  EXPECT_EQ(got.max_radius(), want.max_radius());
  for (size_t p = 0; p < got.num_partitions(); ++p) {
    const Partition& a = got.partitioning().partitions[p];
    const Partition& b = want.partitioning().partitions[p];
    ASSERT_EQ(a.medoid, b.medoid) << p;
    ASSERT_EQ(a.members, b.members) << p;
    ASSERT_EQ(a.radius, b.radius) << p;
    const auto& got_nodes = got.partition_tree(p).nodes();
    const auto& want_nodes = want.partition_tree(p).nodes();
    ASSERT_EQ(got_nodes.size(), want_nodes.size()) << p;
    for (size_t i = 0; i < got_nodes.size(); ++i) {
      ASSERT_TRUE(got_nodes[i].id == want_nodes[i].id &&
                  got_nodes[i].parent_dist == want_nodes[i].parent_dist &&
                  got_nodes[i].first_child == want_nodes[i].first_child &&
                  got_nodes[i].next_sibling == want_nodes[i].next_sibling)
          << "partition " << p << " node " << i;
    }
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

}  // namespace
}  // namespace topk
