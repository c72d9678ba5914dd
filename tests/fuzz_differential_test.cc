// Randomized differential sweep: many random (seed, shape) configurations
// where every engine must agree with brute force bit-for-bit. This is the
// suite's long-tail net — parameters deliberately roam outside the tidy
// defaults (tiny domains, extreme duplication, k values the paper never
// shows, thresholds at awkward raw values).

#include <gtest/gtest.h>

#include "harness/query_algorithms.h"
#include "kernel/id_split.h"
#include "metric/knn.h"
#include "mutate/mutable_store.h"
#include "serve/frontend.h"
#include "storage/compressed_index.h"
#include "test_util.h"

namespace topk {
namespace {

struct FuzzShape {
  uint32_t k;
  uint32_t n;
  uint32_t domain;
  double zipf_s;
  double mean_cluster;
  double exact_dup;
};

FuzzShape RandomShape(Rng* rng) {
  FuzzShape shape;
  shape.k = 2 + static_cast<uint32_t>(rng->Below(14));           // 2..15
  shape.n = 200 + static_cast<uint32_t>(rng->Below(800));        // 200..999
  shape.domain =
      std::max(3 * shape.k,
               shape.k + static_cast<uint32_t>(rng->Below(400)));
  shape.zipf_s = rng->NextDouble() * 1.4;
  shape.mean_cluster = 1.0 + rng->NextDouble() * 9.0;
  shape.exact_dup = rng->NextDouble();
  return shape;
}

RankingStore MakeStore(const FuzzShape& shape, uint64_t seed) {
  GeneratorOptions options;
  options.k = shape.k;
  options.n = shape.n;
  options.domain = shape.domain;
  options.zipf_s = shape.zipf_s;
  options.mean_cluster_size = shape.mean_cluster;
  options.exact_duplicate_probability = shape.exact_dup;
  options.max_perturb_ops = 1 + shape.k / 4;
  options.seed = seed;
  return Generate(options);
}

/// Engines whose range answers equal brute force at every theta, dmax
/// included: the F&V family answers through the kernel RangeSearch, which
/// owns the theta >= dmax rule, and LinearScan validates every row. The
/// other engines keep their documented theta < dmax contract (a ranking
/// disjoint from the query appears in no posting list).
bool ExactAtDmax(Algorithm algorithm) {
  return algorithm == Algorithm::kFV || algorithm == Algorithm::kFVDrop ||
         algorithm == Algorithm::kLinearScan;
}

/// `thetas`, plus dmax for the engines that are exact there.
std::vector<RawDistance> ThetasFor(Algorithm algorithm,
                                   const std::vector<RawDistance>& thetas,
                                   uint32_t k) {
  std::vector<RawDistance> out = thetas;
  if (ExactAtDmax(algorithm)) out.push_back(MaxDistance(k));
  return out;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferentialTest, AllEnginesAgreeOnRandomConfigurations) {
  Rng rng(5000 + static_cast<uint64_t>(GetParam()));
  const FuzzShape shape = RandomShape(&rng);
  const RankingStore store = MakeStore(shape, rng.Next());
  EngineSuite suite(&store);
  const auto queries = testutil::MakeQueries(store, 8, rng.Next());

  // Random thresholds across the whole valid range, biased low (where
  // pruning logic is busiest) but touching the top too.
  std::vector<RawDistance> thetas = {
      0, 1, 2,
      static_cast<RawDistance>(rng.Below(MaxDistance(shape.k))),
      static_cast<RawDistance>(rng.Below(MaxDistance(shape.k))),
      MaxDistance(shape.k) - 1};

  const Algorithm algorithms[] = {
      Algorithm::kFV,           Algorithm::kFVDrop,
      Algorithm::kListMerge,    Algorithm::kLaatPrune,
      Algorithm::kBlockedPrune, Algorithm::kBlockedPruneDrop,
      Algorithm::kCoarse,       Algorithm::kCoarseDrop,
      Algorithm::kAdaptSearch,  Algorithm::kBkTree,
      Algorithm::kMTree,        Algorithm::kLinearScan};
  for (Algorithm algorithm : algorithms) {
    auto engine = suite.MakeEngine(algorithm);
    for (RawDistance theta : ThetasFor(algorithm, thetas, shape.k)) {
      for (const auto& query : queries) {
        ASSERT_EQ(engine->Query(0, query, theta, nullptr, nullptr),
                  testutil::BruteForce(store, query, theta))
            << AlgorithmName(algorithm) << " k=" << shape.k
            << " n=" << shape.n << " domain=" << shape.domain
            << " theta=" << theta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzDifferentialTest,
                         ::testing::Range(0, 12));

// Cached-vs-uncached differential mode: the serving frontend is fuzzed
// over random shapes, thread counts, cache capacities (including tiny
// ones that thrash), and random interleavings of re-issued queries and
// generation bumps. Every response — whether it came from an engine or
// the result cache — must be bit-identical to the cold path (brute force for range, linear-scan for
// k-NN), so the result multisets (and their hashes) cannot diverge. On
// mismatch the assertion prints the failing base seed. Lone-request
// rounds serve one request per batch, the shape that splits its work over
// every executor, on the same store and on a larger one whose requests
// clear the split floor.
class FuzzServeTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzServeTest, CachedMatchesColdOnRandomInterleavings) {
  const uint64_t seed = 13000 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const FuzzShape shape = RandomShape(&rng);
  const RankingStore store = MakeStore(shape, rng.Next());
  const auto queries = testutil::MakeQueries(store, 10, rng.Next());

  QueryFrontendOptions options;
  options.num_threads = 1 + rng.Below(4);
  options.result_cache_capacity =
      rng.Below(3) == 0 ? rng.Below(8) : 1 + rng.Below(4096);
  QueryFrontend frontend(&store, options);

  const Algorithm range_algorithms[] = {
      Algorithm::kFV,     Algorithm::kFVDrop,      Algorithm::kBlockedPruneDrop,
      Algorithm::kCoarse, Algorithm::kAdaptSearch, Algorithm::kBkTree,
      Algorithm::kLinearScan};
  const Algorithm knn_backends[] = {Algorithm::kLinearScan,
                                    Algorithm::kBkTree, Algorithm::kMTree,
                                    Algorithm::kCoarse};
  // dmax only for the engines that are exact there (ExactAtDmax); the
  // others keep their theta < dmax contract.
  const std::vector<RawDistance> thetas = {
      0, 1 + static_cast<RawDistance>(rng.Below(MaxDistance(shape.k) - 1)),
      MaxDistance(shape.k) - 1};

  // Serves `requests` as one batch and checks every answer against the
  // reference scans.
  const auto serve_and_check = [&](QueryFrontend* served_by,
                                   const RankingStore& over,
                                   const std::vector<ServeRequest>& requests,
                                   int round) {
    const auto responses = served_by->ServeBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].kind == ServeKind::kRange) {
        ASSERT_EQ(responses[i].ids,
                  testutil::BruteForce(over, *requests[i].query,
                                       requests[i].theta_raw))
            << "failing seed=" << seed << " round=" << round
            << " request=" << i << " of " << requests.size()
            << " algorithm=" << AlgorithmName(requests[i].algorithm)
            << " theta=" << requests[i].theta_raw << " threads="
            << options.num_threads << " result_cache_capacity="
            << options.result_cache_capacity;
      } else {
        ASSERT_EQ(responses[i].neighbors,
                  LinearScanKnn(over, *requests[i].query, requests[i].j))
            << "failing seed=" << seed << " round=" << round
            << " request=" << i << " of " << requests.size()
            << " backend=" << AlgorithmName(requests[i].algorithm)
            << " j=" << requests[i].j;
      }
    }
  };

  // Rounds 0-5 serve random batches; rounds 6-11 serve lone requests,
  // which may split their work over every executor.
  for (int round = 0; round < 12; ++round) {
    std::vector<ServeRequest> requests;
    const size_t batch_size = round < 6 ? 1 + rng.Below(24) : 1;
    for (size_t r = 0; r < batch_size; ++r) {
      const PreparedQuery& query = queries[rng.Below(queries.size())];
      if (rng.Below(4) == 0) {
        requests.push_back(
            ServeRequest::Knn(knn_backends[rng.Below(4)], query,
                              1 + rng.Below(shape.n + 4)));
      } else {
        const Algorithm algorithm = range_algorithms[rng.Below(7)];
        const auto algorithm_thetas = ThetasFor(algorithm, thetas, shape.k);
        requests.push_back(ServeRequest::Range(
            algorithm, query,
            algorithm_thetas[rng.Below(algorithm_thetas.size())]));
      }
    }
    serve_and_check(&frontend, store, requests, round);
    // Random interleaving of generation bumps with query traffic.
    if (rng.Below(3) == 0) frontend.InvalidateCaches();
  }

  // Lone F&V-family and LinearScan requests over a larger store: its
  // rows clear the frontend's split floor, so every lone LinearScan k-NN
  // fans out, and its narrow item domain makes the posting lists long,
  // so the F&V requests of most shapes (the larger k) fan out too.
  FuzzShape wide = shape;
  wide.n = static_cast<uint32_t>(kSplitMinVolume + rng.Below(2000));
  wide.domain = 3 * shape.k + static_cast<uint32_t>(rng.Below(40));
  const RankingStore wide_store = MakeStore(wide, rng.Next());
  const auto wide_queries = testutil::MakeQueries(wide_store, 4, rng.Next());
  QueryFrontend wide_frontend(&wide_store, options);
  const Algorithm lone_algorithms[] = {Algorithm::kFV, Algorithm::kFVDrop,
                                       Algorithm::kLinearScan};
  for (int round = 0; round < 6; ++round) {
    const PreparedQuery& query = wide_queries[rng.Below(wide_queries.size())];
    const Algorithm algorithm = lone_algorithms[rng.Below(3)];
    std::vector<ServeRequest> lone;
    if (algorithm == Algorithm::kLinearScan && rng.Below(2) == 0) {
      lone.push_back(ServeRequest::Knn(algorithm, query, 1 + rng.Below(120)));
    } else {
      const auto algorithm_thetas = ThetasFor(algorithm, thetas, shape.k);
      lone.push_back(ServeRequest::Range(
          algorithm, query,
          algorithm_thetas[rng.Below(algorithm_thetas.size())]));
    }
    serve_and_check(&wide_frontend, wide_store, lone, round);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzServeTest, ::testing::Range(0, 8));

// The dmax boundary, pinned: a uniform store over a wide domain holds
// rankings that share no item with a query. They sit at exactly dmax and
// appear in no posting list, so a path that validates only the posting
// union answers dmax with a fraction of the store. Every union-validating
// path must equal brute force at dmax and just below it.
TEST(RangeExactnessTest, UnionPathsMatchBruteForceAtDmax) {
  const RankingStore store = testutil::MakeUniformStore(5, 400, 300, 7);
  const auto queries = testutil::MakeQueries(store, 6, 8);
  const RawDistance dmax = MaxDistance(store.k());

  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const auto compressed = storage::CompressedInvertedIndex::FromPlain(plain);
  QueryFrontend frontend(&store);
  MutableStore live(store);

  for (const auto& query : queries) {
    size_t disjoint = 0;
    for (RankingId id = 0; id < store.size(); ++id) {
      if (FootruleDistance(query.sorted_view(), store.sorted(id)) == dmax) {
        ++disjoint;
      }
    }
    ASSERT_GT(disjoint, 0u) << "the store must hold a disjoint ranking";

    for (const RawDistance theta : {dmax - 1, dmax}) {
      const auto expected = testutil::BruteForce(store, query, theta);
      for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                                  DropMode::kPositionRefined}) {
        FilterValidateEngine fv(&store, &plain, {drop});
        storage::CompressedFilterValidateEngine tier(&store, &compressed,
                                                     {drop});
        EXPECT_EQ(fv.Query(query, theta), expected)
            << "FilterValidateEngine drop=" << static_cast<int>(drop)
            << " theta=" << theta;
        EXPECT_EQ(tier.Query(query, theta), expected)
            << "CompressedFilterValidateEngine drop="
            << static_cast<int>(drop) << " theta=" << theta;
      }
      for (const Algorithm algorithm : {Algorithm::kFV, Algorithm::kFVDrop}) {
        const ServeRequest request[] = {
            ServeRequest::Range(algorithm, query, theta)};
        EXPECT_EQ(frontend.ServeBatch(request)[0].ids, expected)
            << "QueryFrontend " << AlgorithmName(algorithm)
            << " theta=" << theta;
      }
      EXPECT_EQ(live.RangeQuery(query, theta), expected)
          << "MutableStore theta=" << theta;
    }
  }
}

}  // namespace
}  // namespace topk
