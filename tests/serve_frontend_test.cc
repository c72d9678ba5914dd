// The online serving layer: inter-query batching, exact result caching,
// generation-based invalidation, and the concurrency contract
// (this suite runs under TSan in CI alongside the parallel harness), and
// lone requests, whose F&V range or LinearScan k-NN work fans out over
// every executor as id windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/deadline.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/id_split.h"
#include "metric/knn.h"
#include "mutate/mutable_store.h"
#include "serve/frontend.h"
#include "serve/live_frontend.h"
#include "serve/lru_cache.h"
#include "test_util.h"

namespace topk {
namespace {

/// Minimal ShardedLruCache key: an item sequence plus its fingerprint.
struct SeqKey {
  std::vector<ItemId> items;
  uint64_t hash;

  friend bool operator==(const SeqKey& a, const SeqKey& b) {
    return a.hash == b.hash && a.items == b.items;
  }
};

SeqKey MakeKey(std::vector<ItemId> items) {
  SeqKey key;
  key.hash = SequenceFingerprint(items);
  key.items = std::move(items);
  return key;
}

TEST(ShardedLruCacheTest, LruEvictionOrder) {
  ShardedLruCache<SeqKey, int> cache(/*capacity=*/2, /*num_shards=*/1);
  EXPECT_EQ(cache.Insert(MakeKey({1}), 0, 10), 0u);
  EXPECT_EQ(cache.Insert(MakeKey({2}), 0, 20), 0u);
  int value = 0;
  EXPECT_TRUE(cache.Lookup(MakeKey({1}), 0, &value));  // {1} now most recent
  EXPECT_EQ(value, 10);
  EXPECT_EQ(cache.Insert(MakeKey({3}), 0, 30), 1u);  // evicts LRU = {2}
  EXPECT_FALSE(cache.Lookup(MakeKey({2}), 0, &value));
  EXPECT_TRUE(cache.Lookup(MakeKey({1}), 0, &value));
  EXPECT_TRUE(cache.Lookup(MakeKey({3}), 0, &value));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCacheTest, CapacityZeroDisables) {
  ShardedLruCache<SeqKey, int> cache(0, 8);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.Insert(MakeKey({1}), 0, 10), 0u);
  int value = 0;
  EXPECT_FALSE(cache.Lookup(MakeKey({1}), 0, &value));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCacheTest, EpochMismatchInvalidatesLazily) {
  ShardedLruCache<SeqKey, int> cache(8, 2);
  cache.Insert(MakeKey({1, 2}), /*epoch=*/0, 7);
  int value = 0;
  EXPECT_TRUE(cache.Lookup(MakeKey({1, 2}), 0, &value));
  EXPECT_FALSE(cache.Lookup(MakeKey({1, 2}), 1, &value));  // stale: erased
  EXPECT_EQ(cache.size(), 0u);
  // Re-inserting under the new generation serves again.
  cache.Insert(MakeKey({1, 2}), 1, 8);
  EXPECT_TRUE(cache.Lookup(MakeKey({1, 2}), 1, &value));
  EXPECT_EQ(value, 8);
}

TEST(ShardedLruCacheTest, InsertReplacesSameKey) {
  ShardedLruCache<SeqKey, int> cache(4, 1);
  cache.Insert(MakeKey({5}), 0, 1);
  cache.Insert(MakeKey({5}), 0, 2);
  int value = 0;
  EXPECT_TRUE(cache.Lookup(MakeKey({5}), 0, &value));
  EXPECT_EQ(value, 2);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------

class ServeFrontendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = testutil::MakeClusteredStore(/*k=*/10, /*n=*/600, /*seed=*/31);
    queries_ = testutil::MakeQueries(store_, 10, /*seed=*/32);
    theta_ = RawThreshold(0.3, store_.k());
  }

  RankingStore store_{10};
  std::vector<PreparedQuery> queries_;
  RawDistance theta_ = 0;
};

TEST_F(ServeFrontendTest, ResponsesAlignWithRequestIdsAcrossThreads) {
  QueryFrontendOptions options;
  options.num_threads = 4;
  QueryFrontend frontend(&store_, options);

  // Duplicate-heavy batch over two algorithms: response i must answer
  // request i exactly, regardless of executor interleaving.
  std::vector<ServeRequest> requests;
  for (int round = 0; round < 3; ++round) {
    for (const PreparedQuery& query : queries_) {
      requests.push_back(ServeRequest::Range(
          round % 2 == 0 ? Algorithm::kCoarse : Algorithm::kFV, query,
          theta_));
    }
  }
  const auto responses = frontend.ServeBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].ids,
              testutil::BruteForce(store_, *requests[i].query,
                                   requests[i].theta_raw))
        << "request " << i;
  }
}

TEST_F(ServeFrontendTest, ReissuedQueriesHitTheResultCache) {
  QueryFrontendOptions options;
  options.num_threads = 1;  // deterministic ticker counts
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    requests.push_back(ServeRequest::Range(Algorithm::kCoarse, query, theta_));
  }
  Statistics cold;
  const auto first = frontend.ServeBatch(requests, &cold);
  EXPECT_EQ(cold.Get(Ticker::kResultCacheHits), 0u);
  EXPECT_EQ(cold.Get(Ticker::kResultCacheMisses), requests.size());

  Statistics warm;
  const auto second = frontend.ServeBatch(requests, &warm);
  EXPECT_EQ(warm.Get(Ticker::kResultCacheHits), requests.size());
  EXPECT_EQ(warm.Get(Ticker::kDistanceCalls), 0u);  // no engine touched
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(second[i].result_cache_hit);
    EXPECT_EQ(second[i].ids, first[i].ids);
  }
}

TEST_F(ServeFrontendTest, CapacityZeroStaysExactWithoutCaching) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  options.result_cache_capacity = 0;
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (int round = 0; round < 2; ++round) {
    for (const PreparedQuery& query : queries_) {
      requests.push_back(
          ServeRequest::Range(Algorithm::kBlockedPruneDrop, query, theta_));
    }
  }
  Statistics stats;
  const auto responses = frontend.ServeBatch(requests, &stats);
  EXPECT_EQ(stats.Get(Ticker::kResultCacheHits), 0u);
  EXPECT_EQ(frontend.result_cache_size(), 0u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].ids,
              testutil::BruteForce(store_, *requests[i].query, theta_));
  }
}

TEST_F(ServeFrontendTest, CapacityOneEvictsAndStaysExact) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  options.result_cache_capacity = 1;
  QueryFrontend frontend(&store_, options);

  const PreparedQuery& a = queries_[0];
  const PreparedQuery& b = queries_[1];
  auto serve = [&](const PreparedQuery& query, Statistics* stats) {
    const ServeRequest request[] = {
        ServeRequest::Range(Algorithm::kFV, query, theta_)};
    return frontend.ServeBatch(request, stats)[0];
  };
  Statistics stats;
  serve(a, &stats);                              // miss, insert a
  EXPECT_TRUE(serve(a, &stats).result_cache_hit);  // hit
  serve(b, &stats);                              // miss, evicts a
  EXPECT_GE(stats.Get(Ticker::kResultCacheEvictions), 1u);
  const auto a_again = serve(a, &stats);  // miss again, still exact
  EXPECT_FALSE(a_again.result_cache_hit);
  EXPECT_EQ(a_again.ids, testutil::BruteForce(store_, a, theta_));
  EXPECT_EQ(stats.Get(Ticker::kResultCacheHits), 1u);
}

TEST_F(ServeFrontendTest, HugeCapacityCachesEverything) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  options.result_cache_capacity = size_t{1} << 20;
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    requests.push_back(ServeRequest::Range(Algorithm::kCoarse, query, theta_));
  }
  frontend.ServeBatch(requests);
  Statistics warm;
  frontend.ServeBatch(requests, &warm);
  EXPECT_EQ(warm.Get(Ticker::kResultCacheHits), requests.size());
  EXPECT_EQ(warm.Get(Ticker::kResultCacheEvictions), 0u);
}

TEST_F(ServeFrontendTest, InvalidationMakesEveryEntryUnservable) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    requests.push_back(ServeRequest::Range(Algorithm::kFV, query, theta_));
  }
  frontend.ServeBatch(requests);
  const uint64_t before = frontend.epoch();
  frontend.InvalidateCaches();
  EXPECT_EQ(frontend.epoch(), before + 1);

  Statistics stats;
  const auto responses = frontend.ServeBatch(requests, &stats);
  EXPECT_EQ(stats.Get(Ticker::kResultCacheHits), 0u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].ids,
              testutil::BruteForce(store_, *requests[i].query, theta_));
  }
  // The new generation repopulates and serves again.
  Statistics warm;
  frontend.ServeBatch(requests, &warm);
  EXPECT_EQ(warm.Get(Ticker::kResultCacheHits), requests.size());
}

TEST_F(ServeFrontendTest, ExceptionPropagatesAndFrontendStaysUsable) {
  QueryFrontendOptions options;
  options.num_threads = 3;
  QueryFrontend frontend(&store_, options);

  // kMinimalFV is workload-bound and unservable; the batch must rethrow
  // after every other request completed.
  std::vector<ServeRequest> requests;
  requests.push_back(ServeRequest::Range(Algorithm::kFV, queries_[0], theta_));
  requests.push_back(
      ServeRequest::Range(Algorithm::kMinimalFV, queries_[1], theta_));
  requests.push_back(ServeRequest::Range(Algorithm::kFV, queries_[2], theta_));
  EXPECT_THROW(frontend.ServeBatch(requests), std::invalid_argument);

  // Unsupported k-NN backend and null query propagate the same way.
  const ServeRequest bad_backend[] = {
      ServeRequest::Knn(Algorithm::kFV, queries_[0], 5)};
  EXPECT_THROW(frontend.ServeBatch(bad_backend), std::invalid_argument);
  ServeRequest null_query = ServeRequest::Range(Algorithm::kFV, queries_[0],
                                                theta_);
  null_query.query = nullptr;
  const ServeRequest null_batch[] = {null_query};
  EXPECT_THROW(frontend.ServeBatch(null_batch), std::invalid_argument);

  // The pool and caches survive: a clean batch still serves exactly.
  const ServeRequest ok[] = {
      ServeRequest::Range(Algorithm::kFV, queries_[3], theta_)};
  const auto responses = frontend.ServeBatch(ok);
  EXPECT_EQ(responses[0].ids,
            testutil::BruteForce(store_, queries_[3], theta_));
}

TEST_F(ServeFrontendTest, KnnBackendsMatchLinearScanAndCache) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  QueryFrontend frontend(&store_, options);

  const Algorithm backends[] = {Algorithm::kLinearScan, Algorithm::kBkTree,
                                Algorithm::kMTree, Algorithm::kCoarse};
  const size_t js[] = {1, 7, store_.size() + 3};
  std::vector<ServeRequest> requests;
  for (const Algorithm backend : backends) {
    for (const size_t j : js) {
      for (size_t q = 0; q < 4; ++q) {
        requests.push_back(ServeRequest::Knn(backend, queries_[q], j));
      }
    }
  }
  const auto responses = frontend.ServeBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].neighbors,
              LinearScanKnn(store_, *requests[i].query, requests[i].j))
        << "request " << i;
  }
  Statistics warm;
  const auto cached = frontend.ServeBatch(requests, &warm);
  EXPECT_EQ(warm.Get(Ticker::kResultCacheHits), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(cached[i].neighbors, responses[i].neighbors);
  }
}

TEST_F(ServeFrontendTest, LinearScanAtDmaxServesTheWholeStore) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  QueryFrontend frontend(&store_, options);

  // Everything is within dmax, including rankings disjoint from the
  // query that no posting list holds.
  const RawDistance dmax = MaxDistance(store_.k());
  const ServeRequest request[] = {
      ServeRequest::Range(Algorithm::kLinearScan, queries_[0], dmax)};
  const auto responses = frontend.ServeBatch(request);
  EXPECT_EQ(responses[0].ids.size(), store_.size());
  EXPECT_EQ(responses[0].ids,
            testutil::BruteForce(store_, queries_[0], dmax));
}

TEST_F(ServeFrontendTest, InvalidationUnderConcurrentServing) {
  QueryFrontendOptions options;
  options.num_threads = 4;
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    requests.push_back(ServeRequest::Range(Algorithm::kCoarse, query, theta_));
    requests.push_back(ServeRequest::Knn(Algorithm::kBkTree, query, 5));
  }
  frontend.Prepare(Algorithm::kCoarse);
  frontend.Prepare(Algorithm::kBkTree);

  // A rebuild-notifier thread bumps generations while batches are in
  // flight; every answer must stay exact and no serve may crash or race
  // (this test is part of the TSan CI job).
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      frontend.InvalidateCaches();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 20; ++round) {
    const auto responses = frontend.ServeBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].kind == ServeKind::kRange) {
        ASSERT_EQ(responses[i].ids,
                  testutil::BruteForce(store_, *requests[i].query, theta_))
            << "round " << round << " request " << i;
      } else {
        ASSERT_EQ(responses[i].neighbors,
                  LinearScanKnn(store_, *requests[i].query, requests[i].j))
            << "round " << round << " request " << i;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  invalidator.join();
}

TEST_F(ServeFrontendTest, ServeWorkloadMatchesSequentialRunner) {
  QueryFrontendOptions options;
  options.num_threads = 3;
  QueryFrontend frontend(&store_, options);
  const RunResult served =
      frontend.ServeWorkload(Algorithm::kCoarse, queries_, theta_);

  EngineSuite suite(&store_);
  auto engine = suite.MakeEngine(Algorithm::kCoarse);
  const RunResult sequential = RunQueries(engine.get(), queries_, theta_);

  EXPECT_EQ(served.num_queries, queries_.size());
  EXPECT_EQ(served.num_threads, 3u);
  EXPECT_EQ(served.result_hash, sequential.result_hash);
  EXPECT_EQ(served.total_results, sequential.total_results);
  EXPECT_EQ(served.stats.Get(Ticker::kResultCacheMisses) +
                served.stats.Get(Ticker::kResultCacheHits),
            queries_.size());
}

TEST_F(ServeFrontendTest, ConcurrentServeBatchCallersSerializeSafely) {
  // Two application threads hammering the same frontend concurrently:
  // serve_mutex_ serializes them (the compile-time contract from
  // core/thread_annotations.h), so every response stays exact and TSan
  // sees no race on the executor slots. Before the coordinator mutex this
  // was documented as caller-must-serialize; now it is load-bearing.
  QueryFrontendOptions options;
  options.num_threads = 3;
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    requests.push_back(ServeRequest::Range(Algorithm::kFV, query, theta_));
  }

  std::atomic<int> failures{0};
  auto caller = [&] {
    for (int round = 0; round < 8; ++round) {
      const auto responses = frontend.ServeBatch(requests);
      for (size_t i = 0; i < requests.size(); ++i) {
        if (responses[i].ids !=
            testutil::BruteForce(store_, *requests[i].query, theta_)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::thread other(caller);
  caller();
  other.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Lone requests: one request fans out over every executor. ----

class LoneRequestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small item domain makes every posting list long (~3750 entries),
    // so the F&V lists of a query hold more than the split floor, and
    // the wide store has more rows than it: lone requests really fan out.
    store_ = testutil::MakeUniformStore(/*k=*/10, /*n=*/6000,
                                        /*domain=*/16, /*seed=*/61);
    queries_ = testutil::MakeQueries(store_, 3, /*seed=*/62);
    wide_ = testutil::MakeUniformStore(
        /*k=*/10, /*n=*/kSplitMinVolume + 1000,
        /*domain=*/60, /*seed=*/63);
    wide_queries_ = testutil::MakeQueries(wide_, 2, /*seed=*/64);
    const RawDistance dmax = MaxDistance(store_.k());
    thetas_ = {RawThreshold(0.1, store_.k()), RawThreshold(0.3, store_.k()),
               RawThreshold(0.6, store_.k()), dmax - 1, dmax};
  }

  RankingStore store_{10};
  std::vector<PreparedQuery> queries_;
  RankingStore wide_{10};
  std::vector<PreparedQuery> wide_queries_;
  std::vector<RawDistance> thetas_;
};

TEST_F(LoneRequestTest, LoneRangeRequestsMatchBruteForceAndTheirBatchedTwin) {
  // A lone kFV / kFVDrop request gives the brute-force answer at every
  // executor count, and the same answer and tickers as when it shares a
  // batch with a second request (whole-request scheduling, no split).
  ASSERT_GT(kSplitParts, 1u);
  const PlainInvertedIndex index = PlainInvertedIndex::Build(store_);
  for (const PreparedQuery& query : queries_) {
    size_t volume = 0;
    for (const ItemId item : query.view().items()) {
      volume += index.list_length(item);
    }
    ASSERT_GE(volume, kSplitMinVolume);
  }
  std::vector<std::vector<std::vector<RankingId>>> truth;
  for (const RawDistance theta : thetas_) {
    truth.emplace_back();
    for (const PreparedQuery& query : queries_) {
      truth.back().push_back(testutil::BruteForce(store_, query, theta));
    }
  }
  for (const size_t threads : {1, 2, 3, 4}) {
    QueryFrontendOptions options;
    options.num_threads = threads;
    options.result_cache_capacity = 0;  // every request runs its engine
    QueryFrontend frontend(&store_, options);
    for (const Algorithm algorithm : {Algorithm::kFV, Algorithm::kFVDrop}) {
      for (size_t t = 0; t < thetas_.size(); ++t) {
        std::vector<ServeRequest> requests;
        for (const PreparedQuery& query : queries_) {
          requests.push_back(
              ServeRequest::Range(algorithm, query, thetas_[t]));
        }
        std::vector<Statistics> lone_stats(requests.size());
        for (size_t q = 0; q < requests.size(); ++q) {
          const auto lone = frontend.ServeBatch(
              std::span(&requests[q], 1), &lone_stats[q]);
          ASSERT_TRUE(lone[0].status.ok());
          EXPECT_EQ(lone[0].ids, truth[t][q])
              << AlgorithmName(algorithm) << " threads=" << threads
              << " theta=" << thetas_[t] << " query=" << q;
        }
        // Request q shares a batch with request q + 1.
        for (size_t q = 0; q < requests.size(); ++q) {
          const size_t next = (q + 1) % requests.size();
          const ServeRequest pair[] = {requests[q], requests[next]};
          Statistics pair_stats;
          const auto served = frontend.ServeBatch(pair, &pair_stats);
          EXPECT_EQ(served[0].ids, truth[t][q]);
          EXPECT_EQ(served[1].ids, truth[t][next]);
          EXPECT_EQ(Merge(lone_stats[q], lone_stats[next]), pair_stats)
              << AlgorithmName(algorithm) << " threads=" << threads
              << " theta=" << thetas_[t] << " query=" << q;
        }
      }
    }
  }
}

TEST_F(LoneRequestTest, LoneLinearScanKnnMatchesTheScalarOracle) {
  ASSERT_GE(wide_.size(), kSplitMinVolume);
  const size_t js[] = {1, 10, 100};
  std::vector<std::vector<Neighbor>> truth;
  for (const PreparedQuery& query : wide_queries_) {
    for (const size_t j : js) truth.push_back(LinearScanKnn(wide_, query, j));
  }
  for (const size_t threads : {1, 2, 3, 4}) {
    QueryFrontendOptions options;
    options.num_threads = threads;
    options.result_cache_capacity = 0;
    QueryFrontend frontend(&wide_, options);
    size_t next_truth = 0;
    for (const PreparedQuery& query : wide_queries_) {
      for (const size_t j : js) {
        const ServeRequest lone[] = {
            ServeRequest::Knn(Algorithm::kLinearScan, query, j)};
        Statistics stats;
        const auto response = frontend.ServeBatch(lone, &stats);
        EXPECT_EQ(response[0].neighbors, truth[next_truth++])
            << "threads=" << threads << " j=" << j;
        EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), wide_.size());
      }
    }
  }
}

TEST_F(LoneRequestTest, LoneRequestsHonourCancelAndDeadline) {
  // Stopped before the batch: the request fails fast. Cancelled by
  // another thread while it runs: it either finished first (exact
  // answer) or stopped (Aborted, empty, not cached) — never a partial
  // answer, and never a cached one.
  QueryFrontendOptions options;
  options.num_threads = 3;
  QueryFrontend frontend(&wide_, options);
  const RawDistance theta = RawThreshold(0.6, wide_.k());
  for (const PreparedQuery& query : wide_queries_) {
    CancelToken tripped;
    tripped.Cancel();
    ServeRequest range = ServeRequest::Range(Algorithm::kFVDrop, query, theta);
    ServeRequest knn = ServeRequest::Knn(Algorithm::kLinearScan, query, 10);
    for (ServeRequest request : {range, knn}) {
      request.cancel = &tripped;
      const ServeRequest batch[] = {request};
      const auto aborted = frontend.ServeBatch(batch);
      EXPECT_EQ(aborted[0].status.code(), Status::Code::kAborted);
      request.cancel = nullptr;
      request.deadline = Deadline::AfterMillis(-1.0);
      const ServeRequest late[] = {request};
      const auto expired = frontend.ServeBatch(late);
      EXPECT_EQ(expired[0].status.code(), Status::Code::kDeadlineExceeded);
      EXPECT_TRUE(expired[0].ids.empty());
      EXPECT_TRUE(expired[0].neighbors.empty());
    }

    for (ServeRequest request : {range, knn}) {
      CancelToken racing;
      request.cancel = &racing;
      const ServeRequest batch[] = {request};
      std::thread canceller([&racing] { racing.Cancel(); });
      const auto response = frontend.ServeBatch(batch);
      canceller.join();
      if (response[0].status.ok()) {
        if (request.kind == ServeKind::kRange) {
          EXPECT_EQ(response[0].ids,
                    testutil::BruteForce(wide_, query, theta));
        } else {
          EXPECT_EQ(response[0].neighbors, LinearScanKnn(wide_, query, 10));
        }
      } else {
        EXPECT_EQ(response[0].status.code(), Status::Code::kAborted);
        EXPECT_TRUE(response[0].ids.empty());
        EXPECT_TRUE(response[0].neighbors.empty());
      }
      // Whatever happened, the next identical request is served exactly.
      request.cancel = nullptr;
      const ServeRequest again[] = {request};
      const auto served = frontend.ServeBatch(again);
      ASSERT_TRUE(served[0].status.ok());
      if (request.kind == ServeKind::kRange) {
        EXPECT_EQ(served[0].ids, testutil::BruteForce(wide_, query, theta));
      } else {
        EXPECT_EQ(served[0].neighbors, LinearScanKnn(wide_, query, 10));
      }
    }
  }
}

// ---- Live mutability: caches must flip atomically with the store. ----

// The constructor registers the mutation listener: every write bumps the
// epoch under the store mutex, so a cached answer never outlives the
// write that changed it.
TEST(LiveFrontendTest, WiredCacheServesFreshAfterEveryMutation) {
  constexpr uint32_t kK = 5;
  const RankingStore source = testutil::MakeClusteredStore(kK, 80, 1101);
  MutableStore store(kK);
  for (RankingId id = 0; id < 60; ++id) {
    store.Insert(source.view(id));
  }
  LiveFrontend frontend(&store, {});

  const PreparedQuery query(
      std::move(Ranking::Create({source.view(60).items().begin(),
                                 source.view(60).items().end()}))
          .ValueOrDie());
  const RawDistance theta_raw = RawThreshold(0.2, kK);
  std::vector<RankingId> before;
  ASSERT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &before).ok());
  std::vector<Neighbor> knn_before;
  ASSERT_TRUE(frontend.ServeKnn(query, 5, nullptr, &knn_before).ok());
  const uint64_t epoch0 = frontend.epoch();

  const RankingId added = store.Insert(source.view(60));
  EXPECT_GT(frontend.epoch(), epoch0);  // listener fired
  std::vector<RankingId> ids;
  ASSERT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &ids).ok());
  EXPECT_EQ(ids, store.RangeQuery(query, theta_raw));
  EXPECT_NE(ids, before);
  std::vector<Neighbor> neighbors;
  ASSERT_TRUE(frontend.ServeKnn(query, 5, nullptr, &neighbors).ok());
  EXPECT_EQ(neighbors, store.KnnQuery(query, 5));
  EXPECT_NE(neighbors, knn_before);

  // Delete and merge invalidate too (the merge via the swap's bump).
  const uint64_t epoch1 = frontend.epoch();
  EXPECT_TRUE(store.Delete(added));
  EXPECT_GT(frontend.epoch(), epoch1);
  ASSERT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &ids).ok());
  EXPECT_EQ(ids, before);
  const uint64_t epoch2 = frontend.epoch();
  EXPECT_TRUE(store.MergeNow());
  EXPECT_GT(frontend.epoch(), epoch2);
  ASSERT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &ids).ok());
  EXPECT_EQ(ids, store.RangeQuery(query, theta_raw));
  // Repeat hit within a quiet generation stays exact (and cached).
  std::vector<RankingId> repeat;
  ASSERT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &repeat).ok());
  EXPECT_EQ(repeat, ids);
}

// QueryFrontend::WatchStore: the batched frontend's epoch follows store
// mutations the same way.
TEST(LiveFrontendTest, WatchStoreBumpsQueryFrontendEpoch) {
  constexpr uint32_t kK = 5;
  const RankingStore source = testutil::MakeClusteredStore(kK, 40, 1111);
  QueryFrontend frontend(&source);
  MutableStore store(source);
  frontend.WatchStore(&store);

  const uint64_t epoch0 = frontend.epoch();
  store.Insert(source.view(0));
  EXPECT_EQ(frontend.epoch(), epoch0 + 1);
  EXPECT_TRUE(store.Delete(0));
  EXPECT_EQ(frontend.epoch(), epoch0 + 2);
  EXPECT_TRUE(store.MergeNow());
  EXPECT_EQ(frontend.epoch(), epoch0 + 3);
  EXPECT_FALSE(store.Delete(0));  // failed mutation: no bump
  EXPECT_EQ(frontend.epoch(), epoch0 + 3);
}

// TSan target: readers serving through the cache race writers mutating
// the store; every served answer must match the store at some point
// inside the call window (checked structurally live, exactly after).
TEST(LiveFrontendTest, ConcurrentServeAndMutateStaysExact) {
  constexpr uint32_t kK = 5;
  const RankingStore source = testutil::MakeClusteredStore(kK, 300, 1121);
  const auto queries = testutil::MakeQueries(source, 4, 1122);
  MutableStoreOptions store_options;
  store_options.merge_threshold = 32;
  MutableStore store(kK, store_options);
  LiveFrontend frontend(&store, {});
  const RawDistance theta_raw = RawThreshold(0.2, kK);

  std::thread writer([&] {
    for (RankingId id = 0; id < 200; ++id) {
      store.Insert(source.view(id));
      if (id % 3 == 2) store.Delete(id - 1);
    }
  });
  // EXPECT, not ASSERT, while the writer runs: returning early would
  // destroy a joinable std::thread.
  std::vector<RankingId> ids;
  std::vector<Neighbor> neighbors;
  for (int round = 0; round < 40; ++round) {
    for (const PreparedQuery& query : queries) {
      EXPECT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &ids).ok());
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      EXPECT_TRUE(frontend.ServeKnn(query, 6, nullptr, &neighbors).ok());
      EXPECT_LE(neighbors.size(), 6u);
    }
  }
  writer.join();
  store.MergeNow();
  for (const PreparedQuery& query : queries) {
    ASSERT_TRUE(frontend.ServeRange(query, theta_raw, nullptr, &ids).ok());
    EXPECT_EQ(ids, store.RangeQuery(query, theta_raw));
    ASSERT_TRUE(frontend.ServeKnn(query, 6, nullptr, &neighbors).ok());
    EXPECT_EQ(neighbors, store.KnnQuery(query, 6));
  }
}

}  // namespace
}  // namespace topk
