// Fault-tolerant serving: deadlines and cancellation through every
// front door (QueryFrontend batches, LiveFrontend, MutableStore),
// admission-control shedding under real overload, the merge circuit
// breaker with MergeNow recovery, snapshot-emission retries, and
// ResilientReader's degraded-read fallback and split reads (including
// concurrent readers, split or not, racing a degrade and a restore).
// Stopped or shed queries must return Status errors with empty results —
// never hang, never cache, never publish a partial answer — while every
// OK answer stays bit-exact. The failpoint-driven cases need
// -DTOPK_FAILPOINTS=ON and skip elsewhere; the suite also runs under the
// TSan CI leg.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/deadline.h"
#include "core/failpoint.h"
#include "core/ranking.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/id_split.h"
#include "kernel/range_search.h"
#include "mutate/mutable_store.h"
#include "serve/frontend.h"
#include "serve/live_frontend.h"
#include "serve/resilient_reader.h"
#include "storage/compressed_arena.h"
#include "storage/compressed_index.h"
#include "storage/snapshot_manager.h"
#include "test_util.h"

namespace topk {
namespace {

using testutil::ScopedFailpoint;

/// Spin until `ready()` or a generous wall-clock cap (never hangs CI).
template <typename F>
bool SpinUntil(const F& ready) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

class ServeRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = testutil::MakeClusteredStore(/*k=*/10, /*n=*/2000, /*seed=*/81);
    queries_ = testutil::MakeQueries(store_, 8, /*seed=*/82);
    theta_ = RawThreshold(0.3, store_.k());
  }

  RankingStore store_{10};
  std::vector<PreparedQuery> queries_;
  RawDistance theta_ = 0;
};

TEST_F(ServeRobustnessTest, ExpiredDeadlineFailsFastOthersServeExactly) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  QueryFrontend frontend(&store_, options);

  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    requests.push_back(ServeRequest::Range(Algorithm::kFV, query, theta_));
  }
  requests[2].deadline = Deadline::AfterMillis(-1.0);
  requests[5].deadline = Deadline::AfterMillis(-1.0);

  Statistics stats;
  const auto responses = frontend.ServeBatch(requests, &stats);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(responses[i].status.code(), Status::Code::kDeadlineExceeded);
      EXPECT_TRUE(responses[i].ids.empty());
    } else {
      ASSERT_TRUE(responses[i].status.ok());
      EXPECT_EQ(responses[i].ids,
                testutil::BruteForce(store_, *requests[i].query, theta_));
    }
  }
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 2u);
}

TEST_F(ServeRobustnessTest, StoppedRequestsAreNeverCached) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  QueryFrontend frontend(&store_, options);

  ServeRequest expired =
      ServeRequest::Range(Algorithm::kFV, queries_[0], theta_);
  expired.deadline = Deadline::AfterMillis(-1.0);
  const auto failed = frontend.ServeBatch({&expired, 1});
  ASSERT_EQ(failed[0].status.code(), Status::Code::kDeadlineExceeded);

  // The identical query re-issued with time to spare computes fresh (no
  // poisoned entry from the stopped run) and only THEN becomes cached.
  const ServeRequest fine =
      ServeRequest::Range(Algorithm::kFV, queries_[0], theta_);
  const auto first = frontend.ServeBatch({&fine, 1});
  ASSERT_TRUE(first[0].status.ok());
  EXPECT_FALSE(first[0].result_cache_hit);
  EXPECT_EQ(first[0].ids,
            testutil::BruteForce(store_, queries_[0], theta_));
  const auto second = frontend.ServeBatch({&fine, 1});
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_TRUE(second[0].result_cache_hit);
  EXPECT_EQ(second[0].ids, first[0].ids);
}

TEST_F(ServeRobustnessTest, CachedAnswersServePastAnExpiredDeadline) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  QueryFrontend frontend(&store_, options);

  // A range and a k-NN answer cached with time to spare...
  const std::vector<ServeRequest> fine = {
      ServeRequest::Range(Algorithm::kFV, queries_[0], theta_),
      ServeRequest::Knn(Algorithm::kLinearScan, queries_[1], 5)};
  const auto cold = frontend.ServeBatch(fine);
  ASSERT_TRUE(cold[0].status.ok());
  ASSERT_TRUE(cold[1].status.ok());
  EXPECT_EQ(cold[0].ids, testutil::BruteForce(store_, queries_[0], theta_));

  // ...are served OK from the cache when sent again past their deadline:
  // the lookup comes before the stop check, and nothing ticks a stop.
  std::vector<ServeRequest> expired = fine;
  for (ServeRequest& request : expired) {
    request.deadline = Deadline::AfterMillis(-1.0);
  }
  Statistics stats;
  const auto warm = frontend.ServeBatch(expired, &stats);
  for (const ServeResponse& response : warm) {
    EXPECT_TRUE(response.status.ok());
    EXPECT_TRUE(response.result_cache_hit);
  }
  EXPECT_EQ(warm[0].ids, cold[0].ids);
  EXPECT_EQ(warm[1].neighbors, cold[1].neighbors);
  EXPECT_EQ(stats.Get(Ticker::kResultCacheHits), 2u);
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 0u);
}

TEST_F(ServeRobustnessTest, LinearScanKnnHonoursDeadlineAndCancel) {
  QueryFrontendOptions options;
  options.num_threads = 1;
  QueryFrontend frontend(&store_, options);
  const size_t j = 7;

  ServeRequest expired =
      ServeRequest::Knn(Algorithm::kLinearScan, queries_[0], j);
  expired.deadline = Deadline::AfterMillis(-1.0);
  CancelToken cancel;
  cancel.Cancel();
  ServeRequest cancelled =
      ServeRequest::Knn(Algorithm::kLinearScan, queries_[0], j);
  cancelled.cancel = &cancel;
  Statistics stats;
  const auto stopped = frontend.ServeBatch(
      std::vector<ServeRequest>{expired, cancelled}, &stats);
  EXPECT_EQ(stopped[0].status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(stopped[1].status.code(), Status::Code::kAborted);
  for (const ServeResponse& response : stopped) {
    EXPECT_TRUE(response.neighbors.empty());
    EXPECT_FALSE(response.result_cache_hit);
  }
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 2u);

  // Neither stop left a cache entry: the unconstrained request misses,
  // is answered exactly, and only then hits.
  const ServeRequest fine =
      ServeRequest::Knn(Algorithm::kLinearScan, queries_[0], j);
  const auto first = frontend.ServeBatch({&fine, 1});
  ASSERT_TRUE(first[0].status.ok());
  EXPECT_FALSE(first[0].result_cache_hit);
  EXPECT_EQ(first[0].neighbors, LinearScanKnn(store_, queries_[0], j));
  const auto second = frontend.ServeBatch({&fine, 1});
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_TRUE(second[0].result_cache_hit);
  EXPECT_EQ(second[0].neighbors, first[0].neighbors);
}

TEST_F(ServeRobustnessTest, CancelledTokenAbortsItsRequests) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  options.result_cache_capacity = 0;  // force real execution
  QueryFrontend frontend(&store_, options);

  CancelToken cancel;
  cancel.Cancel();  // tripped before the batch even starts
  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : queries_) {
    ServeRequest request = ServeRequest::Range(Algorithm::kFV, query, theta_);
    request.cancel = &cancel;
    requests.push_back(request);
  }
  Statistics stats;
  const auto responses = frontend.ServeBatch(requests, &stats);
  for (const ServeResponse& response : responses) {
    EXPECT_EQ(response.status.code(), Status::Code::kAborted);
    EXPECT_TRUE(response.ids.empty());
  }
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), requests.size());
}

TEST_F(ServeRobustnessTest, OverloadShedsWholeBatchesWithRetryAfter) {
  QueryFrontendOptions options;
  options.num_threads = 2;
  options.max_inflight_batches = 1;
  options.result_cache_capacity = 0;  // keep the long batch long
  QueryFrontend frontend(&store_, options);
  frontend.Prepare(Algorithm::kFV);

  // A big cancellable batch occupies the admission slot...
  CancelToken cancel;
  std::vector<ServeRequest> slow;
  for (int round = 0; round < 500; ++round) {
    for (const PreparedQuery& query : queries_) {
      ServeRequest request = ServeRequest::Range(Algorithm::kFV, query,
                                                 theta_);
      request.cancel = &cancel;
      slow.push_back(request);
    }
  }
  std::vector<ServeResponse> slow_responses;
  std::thread runner([&] { slow_responses = frontend.ServeBatch(slow); });
  ASSERT_TRUE(SpinUntil([&] { return frontend.inflight_batches() >= 1; }));

  // ...so a batch arriving now is shed whole: Unavailable + the
  // fixed back-off hint, no engine ever runs for it.
  std::vector<ServeRequest> probe;
  for (const PreparedQuery& query : queries_) {
    probe.push_back(ServeRequest::Range(Algorithm::kFV, query, theta_));
  }
  Statistics stats;
  const auto shed = frontend.ServeBatch(probe, &stats);
  cancel.Cancel();
  runner.join();

  ASSERT_EQ(shed.size(), probe.size());
  for (const ServeResponse& response : shed) {
    EXPECT_EQ(response.status.code(), Status::Code::kUnavailable);
    EXPECT_EQ(response.retry_after_ms, kShedRetryAfterMs);
    EXPECT_TRUE(response.ids.empty());
  }
  EXPECT_EQ(stats.Get(Ticker::kLoadShed), probe.size());
  EXPECT_EQ(frontend.inflight_batches(), 0u);

  // The admitted batch finished every request: exactly (before the
  // cancel landed) or as a clean Abort (after) — never a hang, never a
  // truncated answer presented as OK.
  ASSERT_EQ(slow_responses.size(), slow.size());
  size_t aborted = 0;
  for (size_t i = 0; i < slow_responses.size(); ++i) {
    const ServeResponse& response = slow_responses[i];
    if (response.status.ok()) {
      EXPECT_EQ(response.ids,
                testutil::BruteForce(store_, *slow[i].query, theta_));
    } else {
      EXPECT_EQ(response.status.code(), Status::Code::kAborted);
      EXPECT_TRUE(response.ids.empty());
      ++aborted;
    }
  }
  EXPECT_GT(aborted, 0u);
}

// ---------------------------------------------------------------------------

TEST(LiveFrontendRobustnessTest, DeadlineAndCancelStatusPaths) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 1500, 91);
  MutableStore store(initial);
  LiveFrontend frontend(&store);
  const auto queries = testutil::MakeQueries(initial, 4, 92);
  const RawDistance theta = RawThreshold(0.3, initial.k());

  // Pre-expired deadline: DeadlineExceeded and empty.
  QueryControl expired(Deadline::AfterMillis(-1.0));
  std::vector<RankingId> out{99};
  Statistics stats;
  const Status status =
      frontend.ServeRange(queries[0], theta, &expired, &out, &stats);
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 1u);

  // Cancelled token: Aborted and empty.
  CancelToken token;
  token.Cancel();
  QueryControl cancelled(Deadline::Infinite(), &token);
  const Status aborted =
      frontend.ServeRange(queries[0], theta, &cancelled, &out);
  EXPECT_EQ(aborted.code(), Status::Code::kAborted);
  EXPECT_TRUE(out.empty());

  // Unconstrained Status path answers exactly; the k-NN overload
  // follows the same contract.
  ASSERT_TRUE(frontend.ServeRange(queries[0], theta, nullptr, &out).ok());
  EXPECT_EQ(out, testutil::BruteForce(initial, queries[0], theta));

  std::vector<Neighbor> neighbors;
  QueryControl knn_expired(Deadline::AfterMillis(-1.0));
  EXPECT_EQ(frontend.ServeKnn(queries[1], 5, &knn_expired, &neighbors).code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(neighbors.empty());
  ASSERT_TRUE(frontend.ServeKnn(queries[1], 5, nullptr, &neighbors).ok());
  EXPECT_EQ(neighbors, LinearScanKnn(initial, queries[1], 5));

  // The store's entry poll stops a k-NN over empty segments too, which
  // poll nothing themselves.
  MutableStore empty(initial.k());
  LiveFrontend empty_frontend(&empty);
  QueryControl empty_expired(Deadline::AfterMillis(-1.0));
  EXPECT_EQ(empty_frontend.ServeKnn(queries[1], 5, &empty_expired, &neighbors)
                .code(),
            Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(neighbors.empty());
}

TEST(LiveFrontendRobustnessTest, ConcurrentOverloadShedsNotHangs) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 4000, 101);
  MutableStore store(initial);
  LiveFrontendOptions options;
  options.max_inflight = 1;
  LiveFrontend frontend(&store, options);
  const auto queries = testutil::MakeQueries(initial, 16, 102);
  const RawDistance dmax = MaxDistance(initial.k());

  std::vector<std::vector<RankingId>> expected;
  expected.reserve(queries.size());
  for (const PreparedQuery& query : queries) {
    expected.push_back(testutil::BruteForce(initial, query, dmax));
  }

  // Four threads hammer one admission slot until the run has observed
  // both outcomes (someone served, someone shed); the round cap keeps a
  // broken build from spinning forever. Every OK answer must be exact,
  // every shed must be the documented Unavailable-and-empty shape.
  constexpr size_t kThreads = 4;
  constexpr size_t kMaxRounds = 20'000;
  std::atomic<size_t> served{0};
  std::atomic<size_t> shed{0};
  std::atomic<int> wrong{0};
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      std::vector<RankingId> ids;
      for (size_t round = 0; round < kMaxRounds; ++round) {
        if (served.load() > 0 && shed.load() > 0) break;
        const size_t qi = (t * 31 + round) % queries.size();
        const Status status =
            frontend.ServeRange(queries[qi], dmax, nullptr, &ids);
        if (status.ok()) {
          if (ids != expected[qi]) wrong.fetch_add(1);
          served.fetch_add(1);
        } else if (status.code() == Status::Code::kUnavailable) {
          if (!ids.empty()) wrong.fetch_add(1);
          shed.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(shed.load(), 0u);
  EXPECT_EQ(frontend.inflight(), 0u);
}

// ---------------------------------------------------------------------------

TEST(MergeCircuitBreakerTest, OpensAfterRetriesAndMergeNowRecovers) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  const uint32_t kK = 10;
  const RankingStore initial = testutil::MakeClusteredStore(kK, 300, 121);
  MutableStoreOptions options;
  options.merge_max_attempts = 2;
  options.merge_backoff_initial_ms = 0.01;
  options.merge_backoff_max_ms = 0.02;
  MutableStore store(initial, options);

  // Grow a delta so there is something to merge, mirrored into the
  // brute-force oracle.
  RankingStore combined(kK);
  for (RankingId id = 0; id < initial.size(); ++id) {
    combined.AddUnchecked(initial.view(id).items());
  }
  const RankingStore extra = testutil::MakeClusteredStore(kK, 40, 122);
  for (RankingId id = 0; id < extra.size(); ++id) {
    store.Insert(extra.view(id));
    combined.AddUnchecked(extra.view(id).items());
  }

  const auto queries = testutil::MakeQueries(combined, 4, 123);
  const RawDistance theta = RawThreshold(0.3, kK);

  {
    // Every rebuild attempt fails: the cycle retries, gives up, and the
    // circuit opens — while serving stays exact off sealed + delta.
    ScopedFailpoint fault("mutate.merge.rebuild", FailpointSpec{});
    EXPECT_FALSE(store.MergeNow());
    EXPECT_TRUE(store.merge_circuit_open());
    EXPECT_FALSE(store.last_merge_status().ok());
    EXPECT_GE(store.merge_retries(), 1u);
    for (const PreparedQuery& query : queries) {
      EXPECT_EQ(store.RangeQuery(query, theta),
                testutil::BruteForce(combined, query, theta));
    }
  }

  // Fault cleared: MergeNow is the operator lever — it closes the
  // circuit, merges, and exactness holds over the compacted store.
  EXPECT_TRUE(store.MergeNow());
  EXPECT_FALSE(store.merge_circuit_open());
  EXPECT_TRUE(store.last_merge_status().ok());
  EXPECT_EQ(store.delta_size(), 0u);
  for (const PreparedQuery& query : queries) {
    EXPECT_EQ(store.RangeQuery(query, theta),
              testutil::BruteForce(combined, query, theta));
  }
}

TEST(MergeEmissionTest, EveryFailedAttemptCountsAndTheNextMergeRecovers) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  const uint32_t kK = 10;
  const RankingStore initial = testutil::MakeClusteredStore(kK, 300, 141);
  const std::string dir = testing::TempDir() + "/merge_emission_retries";
  std::filesystem::remove_all(dir);
  MutableStoreOptions options;
  options.snapshot_dir = dir;
  options.merge_max_attempts = 2;
  options.merge_backoff_initial_ms = 0.01;
  options.merge_backoff_max_ms = 0.02;
  MutableStore store(initial, options);

  // Two batches of inserts, one per merge, mirrored into the brute-force
  // oracle.
  RankingStore combined(kK);
  for (RankingId id = 0; id < initial.size(); ++id) {
    combined.AddUnchecked(initial.view(id).items());
  }
  const RankingStore extra = testutil::MakeClusteredStore(kK, 80, 142);
  const auto insert_half = [&](RankingId first) {
    for (RankingId id = first; id < first + extra.size() / 2; ++id) {
      store.Insert(extra.view(id));
      combined.AddUnchecked(extra.view(id).items());
    }
  };
  const auto queries = testutil::MakeQueries(initial, 4, 143);
  const RawDistance theta = RawThreshold(0.3, kK);
  const auto expect_exact = [&] {
    for (const PreparedQuery& query : queries) {
      EXPECT_EQ(store.RangeQuery(query, theta),
                testutil::BruteForce(combined, query, theta));
    }
  };

  insert_half(0);
  {
    // The rebuild succeeds, so the merge installs; both emission attempts
    // fail, and each one counts as a retry.
    ScopedFailpoint fault("mutate.snapshot.emit", FailpointSpec{});
    EXPECT_TRUE(store.MergeNow());
    EXPECT_TRUE(store.last_merge_status().ok());
    EXPECT_FALSE(store.last_snapshot_status().ok());
    EXPECT_EQ(store.merge_retries(), 2u);
    EXPECT_EQ(store.delta_size(), 0u);
    expect_exact();
  }

  // Fault cleared: the next merge writes a snapshot recovery can open.
  insert_half(static_cast<RankingId>(extra.size() / 2));
  EXPECT_TRUE(store.MergeNow());
  EXPECT_TRUE(store.last_snapshot_status().ok())
      << store.last_snapshot_status().ToString();
  EXPECT_EQ(store.merge_retries(), 2u);
  expect_exact();
  storage::SnapshotManager manager(dir);
  Result<storage::OpenedSnapshot> opened = manager.OpenNewestValid();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().snapshot.store().size(), store.live_size());
  std::filesystem::remove_all(dir);
}

TEST(MergeEmissionTest, OverlappingMergesKeepTheNewestImageNewest) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  const uint32_t kK = 10;
  const RankingStore initial = testutil::MakeClusteredStore(kK, 300, 151);
  const RankingStore extra = testutil::MakeClusteredStore(kK, 40, 152);
  const std::string dir = testing::TempDir() + "/merge_emission_overlap";
  std::filesystem::remove_all(dir);
  MutableStoreOptions options;
  options.snapshot_dir = dir;
  // A failed emission attempt sleeps 150-300 ms before its retry: the
  // window in which a second merge could overlap the first one's write.
  options.merge_backoff_initial_ms = 300.0;
  options.merge_backoff_max_ms = 300.0;
  MutableStore store(initial, options);
  for (RankingId id = 0; id < 20; ++id) store.Insert(extra.view(id));

  FailpointSpec one_shot;
  one_shot.max_fires = 1;
  ScopedFailpoint fault("mutate.snapshot.emit", one_shot);
  // The first merge installs 320 rows, fails its first emission attempt
  // and sleeps out the backoff; meanwhile 20 more rows arrive and a
  // second merge starts. Its 340-row image must land as the newest
  // generation, not be overwritten by the first merge's late retry.
  std::thread first([&store] { EXPECT_TRUE(store.MergeNow()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  for (RankingId id = 20; id < 40; ++id) store.Insert(extra.view(id));
  EXPECT_TRUE(store.MergeNow());
  first.join();

  EXPECT_TRUE(store.last_snapshot_status().ok())
      << store.last_snapshot_status().ToString();
  storage::SnapshotManager manager(dir);
  Result<storage::OpenedSnapshot> opened = manager.OpenNewestValid();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().snapshot.store().size(), store.live_size());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------

/// One range read through the reader's Status API with no deadline and no
/// cancel, which must succeed.
std::vector<RankingId> ReadOk(ResilientReader* reader,
                              const PreparedQuery& query, RawDistance theta,
                              Statistics* stats = nullptr) {
  std::vector<RankingId> out;
  const Status status = reader->RangeQuery(query, theta, nullptr, &out, stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

class ResilientReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = testutil::MakeClusteredStore(/*k=*/10, /*n=*/800, /*seed=*/131);
    queries_ = testutil::MakeQueries(store_, 6, /*seed=*/132);
    dir_ = testing::TempDir() + "/resilient_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void WriteSnapshot() {
    storage::SnapshotManager manager(dir_);
    const PlainInvertedIndex plain = PlainInvertedIndex::Build(store_);
    const auto arena =
        storage::CompressedPostingArena<RankingId>::FromArena(plain.arena());
    ASSERT_TRUE(manager.WriteSnapshot(store_, arena).ok());
  }

  std::vector<RawDistance> Thetas() const {
    const RawDistance dmax = MaxDistance(store_.k());
    return {dmax / 4, dmax / 2, dmax};
  }

  RankingStore store_{10};
  std::vector<PreparedQuery> queries_;
  std::string dir_;
};

TEST_F(ResilientReaderTest, RamOnlyWhenNoSnapshotExists) {
  ResilientReader reader(&store_, {dir_, 3});
  EXPECT_EQ(reader.OpenSnapshotTier().code(), Status::Code::kNotFound);
  EXPECT_FALSE(reader.snapshot_open());
  EXPECT_FALSE(reader.degraded());
  for (const RawDistance theta : Thetas()) {
    for (const PreparedQuery& query : queries_) {
      EXPECT_EQ(ReadOk(&reader, query, theta),
                testutil::BruteForce(store_, query, theta));
    }
  }
}

TEST_F(ResilientReaderTest, SnapshotTierAnswersBitExactly) {
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  EXPECT_TRUE(reader.snapshot_open());
  EXPECT_EQ(reader.snapshot_generation(), 1u);
  Statistics stats;
  for (const RawDistance theta : Thetas()) {
    for (const PreparedQuery& query : queries_) {
      EXPECT_EQ(ReadOk(&reader, query, theta, &stats),
                testutil::BruteForce(store_, query, theta))
          << "theta=" << theta;
    }
  }
  EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 0u);
  EXPECT_FALSE(reader.degraded());
}

TEST_F(ResilientReaderTest, SnapshotFaultDegradesStickilyThenRestores) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  const RawDistance theta = RawThreshold(0.3, store_.k());

  {
    FailpointSpec one_shot;
    one_shot.max_fires = 1;
    ScopedFailpoint fault("serve.snapshot.query", one_shot);
    // The faulting read degrades to RAM and STILL answers exactly — the
    // user sees a correct result, the operator sees the ticker.
    Statistics stats;
    EXPECT_EQ(ReadOk(&reader, queries_[0], theta, &stats),
              testutil::BruteForce(store_, queries_[0], theta));
    EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 1u);
    EXPECT_TRUE(reader.degraded());
    EXPECT_FALSE(reader.snapshot_open());
  }

  // Sticky: the failpoint no longer fires, but the reader does not
  // re-trust the failed tier on its own.
  Statistics stats;
  EXPECT_EQ(ReadOk(&reader, queries_[1], theta, &stats),
            testutil::BruteForce(store_, queries_[1], theta));
  EXPECT_EQ(stats.Get(Ticker::kDegradedReads), 1u);
  EXPECT_TRUE(reader.degraded());

  // The operator lever re-runs recovery and re-arms the fast tier.
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  EXPECT_FALSE(reader.degraded());
  EXPECT_TRUE(reader.snapshot_open());
  Statistics healthy;
  for (const RawDistance t : Thetas()) {
    EXPECT_EQ(ReadOk(&reader, queries_[2], t, &healthy),
              testutil::BruteForce(store_, queries_[2], t));
  }
  EXPECT_EQ(healthy.Get(Ticker::kDegradedReads), 0u);
}

/// Runs `readers` threads, each cycling over the pair indices
/// [0, pairs) from a different offset — so the threads interleave
/// different thetas (drop, no drop, full domain) at once — for `rounds`
/// passes, or until `stop` when `rounds` is 0. `read(t, pair)` serves
/// one pair on thread t.
template <typename Read>
void RunReaders(size_t readers, size_t pairs, size_t rounds,
                const std::atomic<bool>& stop, const Read& read) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; rounds == 0 || round < rounds; ++round) {
        for (size_t i = 0; i < pairs; ++i) {
          if (rounds == 0 && stop.load()) return;
          read(t, (i + t * 7) % pairs);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// A store whose snapshot-tier reads all split, built like the frontend
/// lone-request suite's wide store: 12 items over k = 10 make every
/// posting list hold ~34k entries, above kSplitMinVolume on its own, so
/// however many lists Lemma 2 drops, a read below dmax clears the floor.
RankingStore MakeSplitStore() {
  return testutil::MakeUniformStore(/*k=*/10, /*n=*/kSplitMinVolume + 8192,
                                    /*domain=*/12, /*seed=*/141);
}

class ConcurrentReaderTest : public ResilientReaderTest {
 protected:
  void SetUp() override {
    ResilientReaderTest::SetUp();
    // Every size-4 ranking over a 7-item universe (840): each overlap
    // configuration exists, so a list dropped unsoundly loses a result.
    store_ = RankingStore(4);
    std::vector<ItemId> items(4);
    for (uint32_t code = 0; code < 7 * 7 * 7 * 7; ++code) {
      for (uint32_t p = 0, rest = code; p < 4; ++p, rest /= 7) {
        items[p] = rest % 7;
      }
      if (Ranking::Create(items).ok()) store_.AddUnchecked(items);
    }
    queries_.clear();
    for (RankingId id = 0; id < store_.size(); id += 70) {
      queries_.emplace_back(store_.Materialize(id));
    }
    const RawDistance dmax = MaxDistance(store_.k());
    thetas_ = {dmax / 4, dmax / 2, dmax};
    // Both sides of Lemma 2's soundness guard for every overlap w: the
    // refined (k - w lists) drop is taken at L(k, w) + 1 and refused at
    // L(k, w) + 2 (the conservative k - w + 1 applies there whenever
    // that theta still has minimum overlap w).
    for (uint32_t w = 1; w <= store_.k(); ++w) {
      thetas_.push_back(MinDistanceForOverlap(store_.k(), w) + 1);
      thetas_.push_back(MinDistanceForOverlap(store_.k(), w) + 2);
    }
    for (const PreparedQuery& query : queries_) {
      for (const RawDistance theta : thetas_) {
        expected_.push_back(testutil::BruteForce(store_, query, theta));
      }
    }
  }

  /// Swaps in the split store (see MakeSplitStore): every read below
  /// dmax clears the split floor, so the snapshot tier fans it out.
  void UseSplitStore() {
    store_ = MakeSplitStore();
    queries_ = testutil::MakeQueries(store_, 3, /*seed=*/142);
    const uint32_t k = store_.k();
    const RawDistance dmax = MaxDistance(k);
    thetas_ = {RawThreshold(0.1, k), RawThreshold(0.3, k),
               RawThreshold(0.6, k), dmax - 1, dmax};
    expected_.clear();
    for (const PreparedQuery& query : queries_) {
      // One distance pass per query serves every theta.
      std::vector<RawDistance> distances(store_.size());
      for (RankingId id = 0; id < store_.size(); ++id) {
        distances[id] = FootruleDistance(query.sorted_view(), store_.sorted(id));
      }
      for (const RawDistance theta : thetas_) {
        expected_.emplace_back();
        for (RankingId id = 0; id < store_.size(); ++id) {
          if (distances[id] <= theta) expected_.back().push_back(id);
        }
      }
    }
  }

  /// Serves (query, theta) pair `pair` and reports whether it was exact.
  bool ReadExact(ResilientReader* reader, size_t pair,
                 Statistics* stats) const {
    const PreparedQuery& query = queries_[pair / thetas_.size()];
    const RawDistance theta = thetas_[pair % thetas_.size()];
    std::vector<RankingId> out;
    const Status status =
        reader->RangeQuery(query, theta, nullptr, &out, stats);
    return status.ok() && out == expected_[pair];
  }

  /// Four readers race a one-shot "serve.snapshot.query" fault (the
  /// sticky degrade) and the operator's restore: every read is exact, and
  /// no read that starts after the restore returned is degraded.
  void ExpectReadersSurviveDegradeAndRestore();

  std::vector<RawDistance> thetas_;
  std::vector<std::vector<RankingId>> expected_;  // query-major
};

TEST_F(ConcurrentReaderTest, ConcurrentReadersMatchBruteForce) {
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());

  constexpr size_t kReaders = 4;
  std::vector<Statistics> stats(kReaders);
  std::atomic<size_t> mismatches{0};
  const std::atomic<bool> never_stop{false};
  RunReaders(kReaders, expected_.size(), /*rounds=*/2, never_stop,
             [&](size_t t, size_t pair) {
               if (!ReadExact(&reader, pair, &stats[t])) ++mismatches;
             });
  EXPECT_EQ(mismatches.load(), 0u);

  Statistics total;
  for (const Statistics& s : stats) total.MergeFrom(s);
  EXPECT_EQ(total.Get(Ticker::kDegradedReads), 0u);
  EXPECT_FALSE(reader.degraded());

  // The snapshot tier drops lists (F&V+Drop): at dmax / 4 every query
  // has w >= 2, so SelectLists skips some.
  Statistics quarter;
  for (const PreparedQuery& query : queries_) {
    ReadOk(&reader, query, MaxDistance(store_.k()) / 4, &quarter);
  }
  EXPECT_GT(quarter.Get(Ticker::kListsDropped), 0u);
}

void ConcurrentReaderTest::ExpectReadersSurviveDegradeAndRestore() {
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());

  const char* site = "serve.snapshot.query";
  std::atomic<size_t> reads{0};
  std::atomic<size_t> degraded_reads{0};
  // Set once OpenSnapshotTier has returned: a read that starts after
  // it pins the restored view and must not be a degraded read.
  std::atomic<bool> restored{false};
  std::atomic<size_t> degraded_after_restore{0};
  std::atomic<size_t> reads_after_restore{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<bool> stop{false};

  // The fault and the operator's restore, both while the readers run.
  std::thread operator_actions([&] {
    auto wait_reads = [&](const std::atomic<size_t>& counter, size_t n) {
      const size_t target = counter.load() + n;
      return SpinUntil([&] { return counter.load() >= target; });
    };
    EXPECT_TRUE(wait_reads(reads, 20));
    {
      FailpointSpec one_shot;
      one_shot.max_fires = 1;
      ScopedFailpoint fault(site, one_shot);
      EXPECT_TRUE(SpinUntil([&] { return reader.degraded(); }));
      EXPECT_EQ(FailpointRegistry::Instance().fires(site), 1u);
    }
    // Sticky: the one-shot fault is spent and disarmed, yet later reads
    // keep falling back (each ticking kDegradedReads) until the restore.
    EXPECT_TRUE(wait_reads(degraded_reads, 20));
    EXPECT_TRUE(reader.degraded());
    EXPECT_FALSE(reader.snapshot_open());

    EXPECT_TRUE(reader.OpenSnapshotTier().ok());
    restored.store(true);
    EXPECT_FALSE(reader.degraded());
    EXPECT_TRUE(reader.snapshot_open());
    EXPECT_EQ(reader.snapshot_generation(), 1u);
    EXPECT_TRUE(wait_reads(reads_after_restore, 20));
    stop.store(true);
  });

  RunReaders(/*readers=*/4, expected_.size(), /*rounds=*/0, stop,
             [&](size_t, size_t pair) {
               const bool after_restore = restored.load();
               Statistics stats;
               if (!ReadExact(&reader, pair, &stats)) ++mismatches;
               const uint64_t degraded = stats.Get(Ticker::kDegradedReads);
               EXPECT_LE(degraded, 1u);
               degraded_reads += degraded;
               ++reads;
               if (after_restore) {
                 degraded_after_restore += degraded;
                 ++reads_after_restore;
               }
             });
  operator_actions.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(degraded_after_restore.load(), 0u);
}

TEST_F(ConcurrentReaderTest, ConcurrentReadersSurviveDegradeAndRestore) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  ExpectReadersSurviveDegradeAndRestore();
}

TEST_F(ConcurrentReaderTest, ConcurrentSplitReadersMatchBruteForce) {
  // Four readers whose every read below dmax splits over the reader's one
  // pool at once: their parts share the workers, each read borrows its
  // own worker scratch.
  UseSplitStore();
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  std::atomic<size_t> mismatches{0};
  const std::atomic<bool> never_stop{false};
  RunReaders(/*readers=*/4, expected_.size(), /*rounds=*/1, never_stop,
             [&](size_t, size_t pair) {
               Statistics stats;
               if (!ReadExact(&reader, pair, &stats)) ++mismatches;
             });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_FALSE(reader.degraded());
}

TEST_F(ConcurrentReaderTest, ConcurrentSplitReadersSurviveDegradeAndRestore) {
  // The degrade lands while split reads are in flight: their parts finish
  // on the mapping the caller pinned, and later reads serve from RAM
  // until the restore.
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  UseSplitStore();
  ExpectReadersSurviveDegradeAndRestore();
}

TEST_F(ResilientReaderTest, ExpiredDeadlineStopsEitherTier) {
  WriteSnapshot();
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  QueryControl expired(Deadline::AfterMillis(-1.0));
  std::vector<RankingId> out{7};
  Statistics stats;
  const Status status = reader.RangeQuery(
      queries_[0], RawThreshold(0.3, store_.k()), &expired, &out, &stats);
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(stats.Get(Ticker::kDeadlineExceeded), 1u);
}

/// Single-reader checks of the split on the split store.
class SplitReaderTest : public ConcurrentReaderTest {
 protected:
  void SetUp() override {
    ConcurrentReaderTest::SetUp();
    UseSplitStore();
    WriteSnapshot();
  }
};

TEST_F(SplitReaderTest, SplitReadsMatchBruteForceRamTierAndSerialTickers) {
  // Precondition: every read below dmax clears the split floor.
  storage::SnapshotManager manager(dir_);
  Result<storage::OpenedSnapshot> opened = manager.OpenNewestValid();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const storage::StoreSnapshot& snapshot = opened.value().snapshot;
  const storage::CompressedInvertedIndex& index = snapshot.index();
  const uint32_t k = store_.k();
  for (const PreparedQuery& query : queries_) {
    for (const RawDistance theta : thetas_) {
      if (!UnionCoversRange(k, theta)) continue;
      size_t volume = 0;
      for (const uint32_t position : SelectLists(
               query.view(), theta, DropMode::kPositionRefined,
               [&](ItemId item) { return index.list_length(item); })) {
        volume += index.list_length(query.view()[position]);
      }
      ASSERT_GE(volume, kSplitMinVolume) << "theta=" << theta;
    }
  }

  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  ResilientReader ram_only(&store_, {"", 3});
  RangeScratch scratch;
  uint64_t split_blocks = 0;
  uint64_t serial_blocks = 0;
  for (size_t pair = 0; pair < expected_.size(); ++pair) {
    const PreparedQuery& query = queries_[pair / thetas_.size()];
    const RawDistance theta = thetas_[pair % thetas_.size()];
    SCOPED_TRACE("pair " + std::to_string(pair) + " theta " +
                 std::to_string(theta));
    Statistics stats;
    const std::vector<RankingId> got = ReadOk(&reader, query, theta, &stats);
    EXPECT_EQ(got, expected_[pair]);
    EXPECT_EQ(ReadOk(&ram_only, query, theta), expected_[pair]);

    // The summed tickers of the parts are the serial query's; only
    // straddling blocks add to kBlocksDecoded.
    std::vector<RankingId> serial;
    Statistics serial_stats;
    ASSERT_TRUE(RangeSearch(snapshot.store(), &index, query.view(), theta,
                            DropMode::kPositionRefined, &scratch, &serial,
                            &serial_stats));
    EXPECT_EQ(serial, expected_[pair]);
    EXPECT_TRUE(testutil::TickersEqualExcept(stats, serial_stats,
                                             Ticker::kBlocksDecoded));
    const uint64_t blocks = stats.Get(Ticker::kBlocksDecoded);
    EXPECT_GE(blocks, serial_stats.Get(Ticker::kBlocksDecoded));
    const uint64_t lists =
        UnionCoversRange(k, theta)
            ? testutil::SelectedBlockTier(index, query.view(), theta,
                                          DropMode::kPositionRefined)
                  .lists
            : 0;
    EXPECT_LE(blocks, serial_stats.Get(Ticker::kBlocksDecoded) +
                          (kSplitParts - 1) * lists);
    split_blocks += blocks;
    serial_blocks += serial_stats.Get(Ticker::kBlocksDecoded);
  }
  // The reads really split (when the host gives the reader workers): 32
  // windows over ~34k-entry lists cut through blocks.
  if (reader.split_workers() > 0) {
    EXPECT_GT(split_blocks, serial_blocks);
  } else {
    EXPECT_EQ(split_blocks, serial_blocks);
  }
}

TEST_F(SplitReaderTest, StoppedSplitReadsReturnNothing) {
  ResilientReader reader(&store_, {dir_, 3});
  ASSERT_TRUE(reader.OpenSnapshotTier().ok());
  const RawDistance theta = RawThreshold(0.6, store_.k());
  const size_t pair = 2;  // query 0 at 0.6 dmax
  ASSERT_EQ(thetas_[pair], theta);

  // Stopped before the read: expired, or cancelled.
  {
    QueryControl expired(Deadline::AfterMillis(0));
    std::vector<RankingId> out{7};
    Statistics stats;
    EXPECT_EQ(reader.RangeQuery(queries_[0], theta, &expired, &out, &stats)
                  .code(),
              Status::Code::kDeadlineExceeded);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 1u);
    CancelToken token;
    token.Cancel();
    QueryControl cancelled(Deadline::Infinite(), &token);
    out = {7};
    EXPECT_EQ(reader.RangeQuery(queries_[0], theta, &cancelled, &out, &stats)
                  .code(),
              Status::Code::kAborted);
    EXPECT_TRUE(out.empty());
  }

  // Deadlines that land anywhere in the read, mid-split included: a read
  // is either whole and exact, or stopped and empty.
  size_t stops = 0;
  for (const double ms : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2,
                          1000.0}) {
    QueryControl control(Deadline::AfterMillis(ms));
    std::vector<RankingId> out{7};
    const Status status =
        reader.RangeQuery(queries_[0], theta, &control, &out);
    if (status.ok()) {
      EXPECT_EQ(out, expected_[pair]) << "deadline " << ms << " ms";
    } else {
      EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
      EXPECT_TRUE(out.empty()) << "deadline " << ms << " ms";
      ++stops;
    }
  }
  EXPECT_GE(stops, 1u);

  // A cancel racing the reads: each one whole, or aborted and empty.
  CancelToken token;
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    SpinUntil([&] { return started.load(); });
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    token.Cancel();
  });
  size_t aborted = 0;
  // At least one read starts after the cancel, so at least one aborts.
  for (int read = 0; read < 50 || !token.cancelled(); ++read) {
    QueryControl control(Deadline::Infinite(), &token);
    std::vector<RankingId> out{7};
    started.store(true);
    const Status status =
        reader.RangeQuery(queries_[0], theta, &control, &out);
    if (status.ok()) {
      EXPECT_EQ(out, expected_[pair]);
    } else {
      EXPECT_EQ(status.code(), Status::Code::kAborted);
      EXPECT_TRUE(out.empty());
      ++aborted;
    }
  }
  canceller.join();
  EXPECT_GE(aborted, 1u);
}

}  // namespace
}  // namespace topk
