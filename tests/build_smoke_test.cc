// Link-coverage canary for the build system: touches at least one symbol
// defined in a .cc file of every src/ module (core, cluster, coarse,
// adapt, invidx, metric, costmodel, data, harness, storage), so a translation
// unit accidentally dropped from src/CMakeLists.txt fails this suite's
// link step instead of silently shipping a hole in libtopk.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/bk_partitioner.h"
#include "cluster/cn_partitioner.h"
#include "coarse/batch_query.h"
#include "coarse/coarse_index.h"
#include "core/bounds.h"
#include "core/footrule.h"
#include "core/kendall.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "costmodel/cost_model.h"
#include "data/dataset_stats.h"
#include "data/generator.h"
#include "data/workload.h"
#include "harness/query_algorithms.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "invidx/plain_inverted_index.h"
#include "metric/knn.h"
#include "metric/linear_scan.h"
#include "serve/fingerprint.h"
#include "serve/frontend.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace topk {
namespace {

TEST(BuildSmokeTest, EverySrcModuleLinks) {
  // data: generator + workload.
  const RankingStore store = Generate(NytLikeOptions(/*n=*/200, /*k=*/10,
                                                     /*seed=*/1));
  ASSERT_EQ(store.size(), 200u);
  WorkloadOptions workload_options;
  workload_options.num_queries = 4;
  const std::vector<PreparedQuery> queries =
      MakeWorkload(store, workload_options);
  ASSERT_EQ(queries.size(), 4u);
  const RawDistance theta_raw = RawThreshold(0.2, store.k());

  // core: distance kernels, bounds, statistics.
  const RankingId a = 0, b = 1;
  const RawDistance d_merge = FootruleDistance(store.sorted(a),
                                               store.sorted(b));
  EXPECT_EQ(d_merge, FootruleDistanceNaive(store.view(a), store.view(b)));
  EXPECT_GE(KendallTauTimesTwo(store.view(a), store.view(b), 1), 0u);
  EXPECT_GT(MinDistanceForOverlap(store.k(), 0), 0u);
  Statistics stats;

  // metric: linear scan (the oracle) + KNN.
  const std::vector<RankingId> truth =
      LinearScanQuery(store, queries[0], theta_raw, &stats);
  const std::vector<Neighbor> knn = LinearScanKnn(store, queries[0], 3);
  EXPECT_EQ(knn.size(), 3u);

  // cluster: both partitioners cover the whole store.
  const Partitioning bk =
      BkPartition(store, RawThreshold(0.3, store.k()), BkPartitionMode::kStrict);
  EXPECT_EQ(bk.total_members(), store.size());
  EXPECT_STREQ(BkPartitionModeName(BkPartitionMode::kStrict), "strict");
  Rng rng(5);
  const Partitioning cn =
      CnPartition(store, RawThreshold(0.3, store.k()), &rng);
  EXPECT_EQ(cn.total_members(), store.size());

  // harness + adapt + invidx + metric trees + coarse: every registered
  // engine answers the oracle query identically.
  EngineSuite suite(&store);
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kBkStrict), "bk_strict");
  for (const Algorithm algorithm :
       {Algorithm::kFV, Algorithm::kFVDrop, Algorithm::kListMerge,
        Algorithm::kLaatPrune, Algorithm::kBlockedPrune,
        Algorithm::kBlockedPruneDrop, Algorithm::kCoarse,
        Algorithm::kCoarseDrop, Algorithm::kAdaptSearch, Algorithm::kBkTree,
        Algorithm::kMTree, Algorithm::kLinearScan}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    auto engine = suite.MakeEngine(algorithm);
    EXPECT_EQ(engine->Query(queries[0], theta_raw), truth);
  }
  auto oracle = suite.MakeOracleEngine(queries, theta_raw);
  EXPECT_EQ(oracle->Query(0, queries[0], theta_raw, nullptr, nullptr), truth);
  const RunResult run =
      RunQueries(oracle.get(), queries, theta_raw);
  EXPECT_EQ(run.num_queries, queries.size());
  EXPECT_FALSE(FormatDouble(run.wall_ms).empty());

  // coarse: batch processing agrees with the per-query engines.
  BatchQueryProcessor batch(&store, &suite.coarse_index());
  const auto batch_results = batch.QueryBatch(queries, theta_raw);
  ASSERT_EQ(batch_results.size(), queries.size());
  EXPECT_EQ(batch_results[0], truth);

  // serve: the frontend answers the oracle query (fingerprint.cc +
  // frontend.cc link coverage).
  QueryFrontend frontend(&store);
  const ServeRequest serve_requests[] = {
      ServeRequest::Range(Algorithm::kFV, queries[0], theta_raw)};
  EXPECT_EQ(frontend.ServeBatch(serve_requests)[0].ids, truth);
  EXPECT_NE(MakeResultCacheKey(ServeKind::kRange, 0, theta_raw, queries[0])
                .hash,
            0u);

  // costmodel (+ data/dataset_stats): measured inputs drive a prediction.
  const CostModelInputs inputs =
      MeasureCostModelInputs(store, /*profile_samples=*/32);
  EXPECT_EQ(inputs.n, store.size());
  const CoarseCostModel model(inputs);
  EXPECT_GT(model.Predict(0.1, 0.3).total_ns(), 0.0);
  EXPECT_EQ(MakeGrid(0.1, 0.5, 0.1).size(), 5u);

  // storage: store + partitioning round-trip through a snapshot.
  const std::string path = ::testing::TempDir() + "/smoke_store.topksnp";
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const auto arena =
      storage::CompressedPostingArena<RankingId>::FromArena(plain.arena());
  const auto augmented = storage::CompressedAugmentedIndex::Build(store);
  const Status written = storage::WriteStoreSnapshot(
      store, arena, augmented.arena(), path, &bk);
  ASSERT_TRUE(written.ok()) << written.ToString();
  Result<storage::StoreSnapshot> loaded = storage::OpenStoreSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().store().size(), store.size());
  EXPECT_EQ(loaded.value().store().k(), store.k());
  Result<Partitioning> parts = loaded.value().ReadPartitioning();
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_EQ(parts.value().partitions.size(), bk.partitions.size());
}

}  // namespace
}  // namespace topk
