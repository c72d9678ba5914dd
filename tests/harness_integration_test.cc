// Integration: every algorithm in the suite returns the exact result set
// on the same workload; the runner and report plumbing work end to end.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "harness/query_algorithms.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "test_util.h"

namespace topk {
namespace {

class SuiteEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SuiteEquivalenceTest, AllAlgorithmsAgreeWithBruteForce) {
  const auto [algorithm_int, theta] = GetParam();
  const auto algorithm = static_cast<Algorithm>(algorithm_int);
  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 1500, 171);
  EngineSuite suite(&store);
  const auto queries = testutil::MakeQueries(store, 15, 172);
  const RawDistance theta_raw = RawThreshold(theta, k);

  std::unique_ptr<QueryEngine> engine =
      algorithm == Algorithm::kMinimalFV
          ? suite.MakeOracleEngine(queries, theta_raw)
          : suite.MakeEngine(algorithm);
  ASSERT_NE(engine, nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(engine->Query(i, queries[i], theta_raw, nullptr, nullptr),
              testutil::BruteForce(store, queries[i], theta_raw))
        << AlgorithmName(algorithm) << " theta=" << theta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SuiteEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 13),
                       ::testing::Values(0.0, 0.2)));

TEST(RunnerTest, AggregatesAcrossQueries) {
  const RankingStore store = testutil::MakeClusteredStore(10, 800, 173);
  EngineSuite suite(&store);
  const auto queries = testutil::MakeQueries(store, 25, 174);
  auto engine = suite.MakeEngine(Algorithm::kFV);
  const RunResult result =
      RunQueries(engine.get(), queries, RawThreshold(0.2, 10));
  EXPECT_EQ(result.num_queries, 25u);
  EXPECT_GT(result.wall_ms, 0.0);
  EXPECT_EQ(result.stats.Get(Ticker::kResults), result.total_results);
  EXPECT_GT(result.stats.Get(Ticker::kDistanceCalls), 0u);
  EXPECT_GT(result.mean_ms_per_query(), 0.0);
}

TEST(RunnerTest, CoarsePhasesSumBelowWallTime) {
  const RankingStore store = testutil::MakeClusteredStore(10, 800, 175);
  EngineSuite suite(&store);
  const auto queries = testutil::MakeQueries(store, 25, 176);
  auto engine = suite.MakeEngine(Algorithm::kCoarse);
  const RunResult result =
      RunQueries(engine.get(), queries, RawThreshold(0.2, 10));
  EXPECT_GT(result.phases.filter_ms, 0.0);
  EXPECT_GT(result.phases.validate_ms, 0.0);
  EXPECT_LE(result.phases.total_ms(), result.wall_ms * 1.5);
}

TEST(EngineSuiteTest, BuildInfoReportsTimeAndMemory) {
  const RankingStore store = testutil::MakeClusteredStore(10, 800, 177);
  EngineSuite suite(&store);
  for (Algorithm algorithm :
       {Algorithm::kFV, Algorithm::kListMerge, Algorithm::kBlockedPrune,
        Algorithm::kAdaptSearch, Algorithm::kCoarse, Algorithm::kBkTree,
        Algorithm::kMTree}) {
    const IndexBuildInfo info = suite.BuildInfo(algorithm);
    EXPECT_GT(info.memory_bytes, 0u) << AlgorithmName(algorithm);
    EXPECT_GE(info.build_ms, 0.0) << AlgorithmName(algorithm);
  }
}

const Algorithm kRangeAlgorithms[] = {
    Algorithm::kFV,           Algorithm::kFVDrop,
    Algorithm::kListMerge,    Algorithm::kLaatPrune,
    Algorithm::kBlockedPrune, Algorithm::kBlockedPruneDrop,
    Algorithm::kCoarse,       Algorithm::kCoarseDrop,
    Algorithm::kAdaptSearch,  Algorithm::kBkTree,
    Algorithm::kMTree,        Algorithm::kLinearScan};

TEST(EngineSuiteTest, EmptyResultOnDisjointQuery) {
  const uint32_t k = 8;
  const RankingStore store = testutil::MakeClusteredStore(k, 400, 178);
  EngineSuite suite(&store);
  // Items far outside the generated domain: nothing overlaps, so with a
  // sub-disjoint threshold every engine returns the empty list.
  std::vector<ItemId> alien(k);
  for (uint32_t p = 0; p < k; ++p) alien[p] = 1000000 + p;
  const PreparedQuery query(
      std::move(Ranking::Create(std::move(alien))).ValueOrDie());
  for (const Algorithm algorithm : kRangeAlgorithms) {
    auto engine = suite.MakeEngine(algorithm);
    EXPECT_TRUE(engine->Query(0, query, 0, nullptr, nullptr).empty())
        << AlgorithmName(algorithm);
  }
}

TEST(EngineSuiteTest, ThetaAtDmaxReturnsWholeCollection) {
  // Domain of k + 2 forces every pair of rankings to share items, so the
  // theta == dmax edge is exact for all engines (candidate enumeration
  // covers the whole collection) and each must return every id.
  const uint32_t k = 8;
  const RankingStore store = testutil::MakeUniformStore(k, 300, k + 2, 179);
  EngineSuite suite(&store);
  const auto queries = testutil::MakeQueries(store, 1, 180);
  std::vector<RankingId> everything(store.size());
  for (RankingId id = 0; id < store.size(); ++id) everything[id] = id;
  for (const Algorithm algorithm : kRangeAlgorithms) {
    auto engine = suite.MakeEngine(algorithm);
    EXPECT_EQ(engine->Query(0, queries[0], MaxDistance(k), nullptr, nullptr),
              everything)
        << AlgorithmName(algorithm);
  }
}

TEST(EngineSuiteTest, AllAlgorithmsHaveNames) {
  for (int i = 0; i < 13; ++i) {
    EXPECT_STRNE(AlgorithmName(static_cast<Algorithm>(i)), "unknown");
  }
}

TEST(ReportTest, TextTableAlignsColumns) {
  TextTable table({"algorithm", "ms"});
  table.AddRow({"F&V", "12.34"});
  table.AddRow({"Coarse+Drop", "1.20"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("algorithm"), std::string::npos);
  EXPECT_NE(out.find("Coarse+Drop"), std::string::npos);
  EXPECT_NE(out.find("12.34"), std::string::npos);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.23456, 4), "1.2346");
  EXPECT_EQ(FormatMegabytes(1024 * 1024), "1.00");
  EXPECT_EQ(FormatMegabytes(5 * 1024 * 1024 / 2), "2.50");
}

}  // namespace
}  // namespace topk
