// Differential suite for the live write path (mutate/MutableStore): a
// store mutated incrementally — inserts, deletes, foreground and
// background merges, arbitrary interleavings — must answer range and
// k-NN queries bit-identically to a store rebuilt from scratch out of
// the alive rows in global-id order. The oracle is a shadow map of alive
// (global id -> items) replayed into a fresh RankingStore and checked
// with the canonical reference scans (testutil::BruteForce,
// LinearScanKnn).
//
// The concurrent cases run under the TSan CI leg: writers, a merging
// worker, and readers race freely; exactness is re-established from
// per-thread insert logs after the join.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/deadline.h"
#include "core/failpoint.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"
#include "metric/knn.h"
#include "mutate/mutable_store.h"
#include "test_util.h"

namespace topk {
namespace {

using ShadowMap = std::map<RankingId, std::vector<ItemId>>;

struct Rebuilt {
  RankingStore store;
  std::vector<RankingId> globals;  // row -> global id, ascending
};

// The differential oracle: the alive rows replayed in ascending global-id
// order into a fresh store.
Rebuilt RebuildFromShadow(uint32_t k, const ShadowMap& alive) {
  Rebuilt r{RankingStore(k), {}};
  r.store.Reserve(alive.size());
  r.globals.reserve(alive.size());
  for (const auto& [id, items] : alive) {
    r.store.AddUnchecked(items);
    r.globals.push_back(id);
  }
  return r;
}

std::vector<RankingId> ExpectedRange(const Rebuilt& r,
                                     const PreparedQuery& query,
                                     RawDistance theta_raw) {
  std::vector<RankingId> locals = testutil::BruteForce(r.store, query,
                                                       theta_raw);
  for (RankingId& id : locals) id = r.globals[id];
  return locals;
}

std::vector<Neighbor> ExpectedKnn(const Rebuilt& r,
                                  const PreparedQuery& query, size_t j) {
  // The local -> global map is strictly increasing, so (distance, local)
  // order IS (distance, global) order.
  std::vector<Neighbor> expected = LinearScanKnn(r.store, query, j);
  for (Neighbor& n : expected) n.id = r.globals[n.id];
  return expected;
}

// Checks the store against the rebuilt oracle on a mixed query set.
void ExpectBitExact(MutableStore& store, const ShadowMap& alive, uint32_t k,
                    const std::vector<PreparedQuery>& queries,
                    const char* where) {
  const Rebuilt r = RebuildFromShadow(k, alive);
  ASSERT_EQ(store.live_size(), alive.size()) << where;
  // Thetas span tight, loose, and the >= dmax edge where disjoint
  // rankings qualify and the posting union stops being a superset.
  const RawDistance thetas[] = {RawThreshold(0.05, k), RawThreshold(0.3, k),
                                MaxDistance(k)};
  const size_t js[] = {1, 7, alive.size() + 3};
  for (const PreparedQuery& query : queries) {
    for (const RawDistance theta_raw : thetas) {
      EXPECT_EQ(store.RangeQuery(query, theta_raw),
                ExpectedRange(r, query, theta_raw))
          << where << " theta_raw=" << theta_raw;
    }
    for (const size_t j : js) {
      EXPECT_EQ(testutil::KnnOk(&store, query, j), ExpectedKnn(r, query, j))
          << where << " j=" << j;
    }
  }
}

// Range-only differential over the thetas the live Drop must stay exact
// at: exact match, the band where Lemma 2's top-w refinement is sound,
// the wider band where SelectLists falls back to the conservative rule,
// and the dmax sweep that bypasses the posting union.
void ExpectRangeExactUnderDrop(MutableStore& store, const ShadowMap& alive,
                               uint32_t k,
                               const std::vector<PreparedQuery>& queries,
                               const char* where) {
  const Rebuilt r = RebuildFromShadow(k, alive);
  ASSERT_EQ(store.live_size(), alive.size()) << where;
  std::vector<RawDistance> thetas;
  for (const double theta : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    thetas.push_back(RawThreshold(theta, k));
  }
  thetas.push_back(MaxDistance(k));
  for (const PreparedQuery& query : queries) {
    for (const RawDistance theta_raw : thetas) {
      EXPECT_EQ(store.RangeQuery(query, theta_raw),
                ExpectedRange(r, query, theta_raw))
          << where << " theta_raw=" << theta_raw;
    }
  }
}

// Lists the live range path dropped over `queries` at theta = 0.1.
uint64_t ListsDroppedAtTenPercent(MutableStore& store, uint32_t k,
                                  const std::vector<PreparedQuery>& queries) {
  Statistics stats;
  for (const PreparedQuery& query : queries) {
    store.RangeQuery(query, RawThreshold(0.1, k), &stats);
  }
  return stats.Get(Ticker::kListsDropped);
}

// The first `n` source rows as a main-segment seed, mirrored into `alive`.
RankingStore SeedRows(const RankingStore& source, RankingId n,
                      ShadowMap* alive) {
  RankingStore seed(source.k());
  for (RankingId id = 0; id < n; ++id) {
    const auto items = source.view(id).items();
    seed.AddUnchecked(items);
    (*alive)[id] = {items.begin(), items.end()};
  }
  return seed;
}

// Inserts source rows [first, last) into `store`, mirrored into `alive`.
void InsertRows(MutableStore& store, const RankingStore& source,
                RankingId first, RankingId last, ShadowMap* alive) {
  for (RankingId id = first; id < last; ++id) {
    const auto items = source.view(id).items();
    const RankingId global =
        store.Insert(RankingView(items.data(), source.k()));
    (*alive)[global] = {items.begin(), items.end()};
  }
}

// Deletes every alive id below `end` that is `residue` mod `stride`.
void DeleteEvery(MutableStore& store, RankingId end, RankingId stride,
                 RankingId residue, ShadowMap* alive) {
  for (RankingId id = residue; id < end; id += stride) {
    if (alive->erase(id) != 0) {
      EXPECT_TRUE(store.Delete(id));
    }
  }
}

TEST(MutableStoreTest, EmptyStoreBasics) {
  MutableStore store(5);
  EXPECT_EQ(store.k(), 5u);
  EXPECT_EQ(store.live_size(), 0u);
  EXPECT_FALSE(store.Contains(0));
  EXPECT_FALSE(store.Delete(0));
  EXPECT_FALSE(store.MergeNow());  // nothing to merge
  const auto queries = testutil::MakeQueries(
      testutil::MakeUniformStore(5, 10, 40, 1001), 3, 1002);
  EXPECT_TRUE(store.RangeQuery(queries[0], MaxDistance(5)).empty());
  EXPECT_TRUE(testutil::KnnOk(&store, queries[0], 4).empty());
}

TEST(MutableStoreTest, InterleavedMutationsMatchRebuildBitExact) {
  constexpr uint32_t kK = 7;
  const RankingStore source = testutil::MakeClusteredStore(kK, 700, 1011);
  const auto queries = testutil::MakeQueries(source, 8, 1012);

  // Seeded main segment: rows 0..199 pre-exist as an immutable build.
  RankingStore seed(kK);
  ShadowMap alive;
  for (RankingId id = 0; id < 200; ++id) {
    const auto items = source.view(id).items();
    seed.AddUnchecked(items);
    alive[id] = {items.begin(), items.end()};
  }
  MutableStore store(seed);
  ASSERT_EQ(store.live_size(), 200u);
  ASSERT_EQ(store.total_inserted(), 200u);

  Rng rng(1013);
  size_t next_source = 200;
  std::vector<RankingId> alive_ids;
  for (int step = 0; step < 8; ++step) {
    // ~60 mutations per step: inserts, deletes of random alive ids, and
    // a foreground merge every other step.
    for (int op = 0; op < 60; ++op) {
      const uint64_t dice = rng.Below(10);
      if (dice < 6 && next_source < source.size()) {
        const auto items = source.view(
            static_cast<RankingId>(next_source++)).items();
        const RankingId id = store.Insert(RankingView(items.data(), kK));
        EXPECT_EQ(id, static_cast<RankingId>(store.total_inserted() - 1));
        alive[id] = {items.begin(), items.end()};
      } else if (!alive.empty()) {
        alive_ids.clear();
        for (const auto& [id, items] : alive) alive_ids.push_back(id);
        const RankingId victim =
            alive_ids[rng.Below(alive_ids.size())];
        EXPECT_TRUE(store.Delete(victim));
        EXPECT_FALSE(store.Delete(victim));  // double delete: no-op
        alive.erase(victim);
      }
    }
    if (step % 2 == 1) store.MergeNow();
    ExpectBitExact(store, alive, kK, queries, "interleaved");
  }
  // Drain: delete everything, merge, and the store must answer empty.
  for (const auto& [id, items] : alive) EXPECT_TRUE(store.Delete(id));
  alive.clear();
  EXPECT_TRUE(store.MergeNow());
  EXPECT_EQ(store.tombstone_count(), 0u);  // all compacted
  ExpectBitExact(store, alive, kK, queries, "drained");
}

TEST(MutableStoreTest, DeleteThenReinsertSameIdRangeGetsFreshIds) {
  constexpr uint32_t kK = 6;
  const RankingStore source = testutil::MakeUniformStore(kK, 120, 300, 1021);
  const auto queries = testutil::MakeQueries(source, 6, 1022);

  MutableStore store(kK);
  ShadowMap alive;
  for (RankingId id = 0; id < 120; ++id) {
    const auto items = source.view(id).items();
    EXPECT_EQ(store.Insert(RankingView(items.data(), kK)), id);
    alive[id] = {items.begin(), items.end()};
  }
  // Delete the id range [40, 80), merge it away, then reinsert the SAME
  // content. Ids are never reused: the rows come back as 120..159.
  for (RankingId id = 40; id < 80; ++id) {
    EXPECT_TRUE(store.Delete(id));
    alive.erase(id);
  }
  EXPECT_TRUE(store.MergeNow());
  for (RankingId id = 40; id < 80; ++id) {
    EXPECT_FALSE(store.Contains(id));
    EXPECT_FALSE(store.Delete(id));  // merged away: still dead, no revive
  }
  for (RankingId old_id = 40; old_id < 80; ++old_id) {
    const auto items = source.view(old_id).items();
    const RankingId fresh = store.Insert(RankingView(items.data(), kK));
    EXPECT_EQ(fresh, old_id + 80);
    EXPECT_TRUE(store.Contains(fresh));
    alive[fresh] = {items.begin(), items.end()};
  }
  ExpectBitExact(store, alive, kK, queries, "reinsert-pre-merge");
  EXPECT_TRUE(store.MergeNow());
  ExpectBitExact(store, alive, kK, queries, "reinsert-post-merge");
}

TEST(MutableStoreTest, DmaxThetaIncludesDisjointRankings) {
  // Two rankings with no items in common sit at exactly dmax = k(k+1);
  // a dmax-threshold query through either must return both — the filter
  // path alone would miss the disjoint one.
  constexpr uint32_t kK = 3;
  MutableStore store(kK);
  const std::vector<ItemId> a{0, 1, 2};
  const std::vector<ItemId> b{10, 11, 12};
  store.Insert(RankingView(a.data(), kK));
  store.Insert(RankingView(b.data(), kK));
  const PreparedQuery query(std::move(Ranking::Create({0, 1, 2})).ValueOrDie());
  EXPECT_EQ(store.RangeQuery(query, MaxDistance(kK)),
            (std::vector<RankingId>{0, 1}));
  EXPECT_EQ(store.RangeQuery(query, MaxDistance(kK) - 1),
            (std::vector<RankingId>{0}));
  EXPECT_TRUE(store.Delete(1));
  EXPECT_EQ(store.RangeQuery(query, MaxDistance(kK)),
            (std::vector<RankingId>{0}));
}

TEST(MutableStoreTest, LiveControlAnswersEqualTheUnconstrainedOverloads) {
  // A control that never fires (infinite, or a deadline far in the
  // future, whose polls read the clock every kStride) must not change an
  // answer: the Status overloads return OK and the same ids/neighbours
  // as the nullptr-control path, over a merged main segment, a live
  // delta and tombstones, up to the theta = dmax sweep.
  constexpr uint32_t kK = 8;
  const RankingStore source = testutil::MakeClusteredStore(kK, 1500, 1021);
  const auto queries = testutil::MakeQueries(source, 6, 1022);
  RankingStore seed(kK);
  ShadowMap alive;
  for (RankingId id = 0; id < 1000; ++id) {
    const auto items = source.view(id).items();
    seed.AddUnchecked(items);
    alive[id] = {items.begin(), items.end()};
  }
  MutableStore store(seed);
  for (RankingId id = 1000; id < source.size(); ++id) {
    const auto items = source.view(id).items();
    const RankingId global = store.Insert(RankingView(items.data(), kK));
    alive[global] = {items.begin(), items.end()};
    if (id == 1250) store.MergeNow();
  }
  for (RankingId id = 0; id < 1500; id += 7) {
    EXPECT_TRUE(store.Delete(id));
    alive.erase(id);
  }
  ExpectBitExact(store, alive, kK, queries, "before controls");

  const RawDistance thetas[] = {RawThreshold(0.1, kK), RawThreshold(0.4, kK),
                                MaxDistance(kK)};
  Statistics stats;
  for (const PreparedQuery& query : queries) {
    for (const Deadline deadline :
         {Deadline::Infinite(), Deadline::AfterMillis(600'000.0)}) {
      for (const RawDistance theta : thetas) {
        QueryControl control(deadline);
        std::vector<RankingId> ids{99};
        const Status status =
            store.RangeQuery(query, theta, &control, &ids, &stats);
        ASSERT_TRUE(status.ok()) << status.ToString();
        EXPECT_EQ(ids, store.RangeQuery(query, theta)) << "theta=" << theta;
      }
      for (const size_t j : {size_t{1}, size_t{10}, alive.size() + 3}) {
        QueryControl control(deadline);
        std::vector<Neighbor> neighbors;
        const Status status =
            store.KnnQuery(query, j, &control, &neighbors, &stats);
        ASSERT_TRUE(status.ok()) << status.ToString();
        EXPECT_EQ(neighbors, testutil::KnnOk(&store, query, j)) << "j=" << j;
      }
    }
  }
  EXPECT_EQ(stats.Get(Ticker::kDeadlineExceeded), 0u);
}

TEST(MutableStoreTest, RangeDropsListsOnEverySegmentAndStaysExact) {
  // Every live segment runs F&V+Drop (kServingDrop). After inserts,
  // deletes and a merge, tombstones sit in both the main segment and the
  // delta, and the answers must still equal brute force over the alive
  // rows at every theta.
  constexpr uint32_t kK = 10;
  const RankingStore source = testutil::MakeClusteredStore(kK, 900, 1081);
  const auto queries = testutil::MakeQueries(source, 8, 1082);
  ShadowMap alive;
  MutableStore store(SeedRows(source, 400, &alive));
  InsertRows(store, source, 400, 600, &alive);
  DeleteEvery(store, 600, 9, 2, &alive);
  EXPECT_TRUE(store.MergeNow());
  InsertRows(store, source, 600, 900, &alive);
  DeleteEvery(store, 900, 11, 4, &alive);  // main and delta rows alike
  ASSERT_EQ(store.delta_size(), 300u);
  ASSERT_GT(store.tombstone_count(), 0u);
  ExpectRangeExactUnderDrop(store, alive, kK, queries, "main+delta");
  EXPECT_GT(ListsDroppedAtTenPercent(store, kK, queries), 0u);

  EXPECT_TRUE(store.MergeNow());
  ExpectRangeExactUnderDrop(store, alive, kK, queries, "merged");
}

TEST(MutableStoreTest, RangeDropIsExactAtEveryThresholdOverACompleteUniverse) {
  // Every size-3 ranking over a 6-item universe, split over the main
  // segment and the delta with tombstones in both, queried by every 7th
  // ranking at every raw threshold up to dmax. This is where Lemma 2's
  // top-w refinement turns unsound inside a w-bracket, so a live segment
  // that dropped one list too many would miss a result here.
  constexpr uint32_t kK = 3;
  RankingStore universe(kK);
  for (ItemId a = 0; a < 6; ++a) {
    for (ItemId b = 0; b < 6; ++b) {
      for (ItemId c = 0; c < 6; ++c) {
        if (a != b && b != c && a != c) {
          universe.AddUnchecked(std::vector<ItemId>{a, b, c});
        }
      }
    }
  }
  ASSERT_EQ(universe.size(), 120u);
  ShadowMap alive;
  MutableStore store(SeedRows(universe, 60, &alive));
  InsertRows(store, universe, 60, 120, &alive);
  DeleteEvery(store, 120, 5, 1, &alive);
  const Rebuilt r = RebuildFromShadow(kK, alive);
  for (RankingId qid = 0; qid < universe.size(); qid += 7) {
    const PreparedQuery query(universe.Materialize(qid));
    for (RawDistance theta = 0; theta <= MaxDistance(kK); ++theta) {
      EXPECT_EQ(store.RangeQuery(query, theta), ExpectedRange(r, query, theta))
          << "qid=" << qid << " theta=" << theta;
    }
  }
}

TEST(MutableStoreTest, RangeDropStaysExactWithALeftoverSealedSegment) {
  // A merge whose every rebuild attempt fails leaves its sealed segment
  // serving beside main and a fresh delta, so all three segments run the
  // drop with tombstones in each.
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  constexpr uint32_t kK = 10;
  const RankingStore source = testutil::MakeClusteredStore(kK, 900, 1091);
  const auto queries = testutil::MakeQueries(source, 8, 1092);
  ShadowMap alive;
  MutableStoreOptions options;
  options.merge_max_attempts = 2;
  options.merge_backoff_initial_ms = 0.01;
  options.merge_backoff_max_ms = 0.02;
  MutableStore store(SeedRows(source, 300, &alive), options);
  InsertRows(store, source, 300, 600, &alive);
  {
    testutil::ScopedFailpoint fault("mutate.merge.rebuild", FailpointSpec{});
    EXPECT_FALSE(store.MergeNow());
    ASSERT_TRUE(store.merge_circuit_open());
  }
  InsertRows(store, source, 600, 900, &alive);
  DeleteEvery(store, 900, 7, 3, &alive);  // main, sealed and delta rows
  ASSERT_EQ(store.delta_size(), 300u);
  ExpectRangeExactUnderDrop(store, alive, kK, queries, "main+sealed+delta");
  EXPECT_GT(ListsDroppedAtTenPercent(store, kK, queries), 0u);

  EXPECT_TRUE(store.MergeNow());  // fault cleared: the lever recovers
  ExpectRangeExactUnderDrop(store, alive, kK, queries, "recovered");
}

TEST(MutableStoreTest, GenerationBumpsOnEveryMutation) {
  constexpr uint32_t kK = 4;
  const RankingStore source = testutil::MakeUniformStore(kK, 8, 32, 1031);
  MutableStore store(kK);
  uint64_t listener_fires = 0;
  store.AddMutationListener([&listener_fires] { ++listener_fires; });

  const uint64_t g0 = store.generation();
  EXPECT_GE(g0, 1u);  // generation 0 is reserved, never published

  const auto items = source.view(0).items();
  store.Insert(RankingView(items.data(), kK));
  const uint64_t g1 = store.generation();
  EXPECT_GT(g1, g0);
  EXPECT_EQ(listener_fires, 1u);

  EXPECT_TRUE(store.Delete(0));
  const uint64_t g2 = store.generation();
  EXPECT_GT(g2, g1);
  EXPECT_EQ(listener_fires, 2u);

  EXPECT_FALSE(store.Delete(0));  // failed mutation: no bump
  EXPECT_EQ(store.generation(), g2);
  EXPECT_EQ(listener_fires, 2u);

  EXPECT_TRUE(store.MergeNow());  // swap bumps
  const uint64_t g3 = store.generation();
  EXPECT_GT(g3, g2);
  EXPECT_EQ(listener_fires, 3u);

  EXPECT_FALSE(store.MergeNow());  // nothing to merge: no bump
  EXPECT_EQ(store.generation(), g3);
  EXPECT_EQ(listener_fires, 3u);
}

TEST(MutableStoreTest, BackgroundWorkerMergesAndStaysExact) {
  constexpr uint32_t kK = 6;
  const RankingStore source = testutil::MakeClusteredStore(kK, 900, 1041);
  const auto queries = testutil::MakeQueries(source, 5, 1042);

  MutableStoreOptions options;
  options.merge_threshold = 64;  // the worker seals whenever delta >= 64
  MutableStore store(kK, options);
  ShadowMap alive;
  for (RankingId id = 0; id < source.size(); ++id) {
    const auto items = source.view(id).items();
    EXPECT_EQ(store.Insert(RankingView(items.data(), kK)), id);
    alive[id] = {items.begin(), items.end()};
    if (id % 7 == 3) {  // deletes racing the background merges
      EXPECT_TRUE(store.Delete(id - 2));
      alive.erase(id - 2);
    }
    if (id % 250 == 249) {
      // Mid-stream differential: exact no matter where the worker is.
      ExpectBitExact(store, alive, kK, queries, "mid-stream");
    }
  }
  // Quiesce: MergeNow waits out any in-flight merge, then folds the rest.
  store.MergeNow();
  EXPECT_LT(store.delta_size(), 64u);
  ExpectBitExact(store, alive, kK, queries, "after-worker");
}

// TSan leg target: writers, background merge worker, and readers race on
// one store. Readers check structural sanity live; exactness is checked
// against the per-writer insert logs after the join.
TEST(MutableStoreTest, ConcurrentWritersAndReadersUnderMerges) {
  constexpr uint32_t kK = 5;
  constexpr size_t kPerWriter = 300;
  const RankingStore source =
      testutil::MakeClusteredStore(kK, 2 * kPerWriter, 1071);
  const auto queries = testutil::MakeQueries(source, 4, 1072);

  MutableStoreOptions options;
  options.merge_threshold = 32;
  MutableStore store(kK, options);

  // Each writer inserts its half of the source and deletes every 5th of
  // its own rows; logs record what it left alive.
  std::vector<ShadowMap> writer_alive(2);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const auto items =
            source.view(static_cast<RankingId>(w * kPerWriter + i)).items();
        const RankingId id = store.Insert(RankingView(items.data(), kK));
        if (i % 5 == 4) {
          EXPECT_TRUE(store.Delete(id));
        } else {
          writer_alive[w][id] = {items.begin(), items.end()};
        }
      }
    });
  }
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      const RawDistance theta_raw = RawThreshold(0.2, kK);
      while (!stop_readers.load(std::memory_order_acquire)) {
        for (const PreparedQuery& query : queries) {
          const std::vector<RankingId> ids =
              store.RangeQuery(query, theta_raw);
          EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
          const std::vector<Neighbor> nn = testutil::KnnOk(&store, query, 9);
          EXPECT_LE(nn.size(), 9u);
          for (size_t i = 1; i < nn.size(); ++i) {
            EXPECT_LE(nn[i - 1].distance, nn[i].distance);
          }
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ShadowMap alive;
  for (const ShadowMap& log : writer_alive) alive.insert(log.begin(),
                                                         log.end());
  ExpectBitExact(store, alive, kK, queries, "post-join");
  store.MergeNow();
  ExpectBitExact(store, alive, kK, queries, "post-join-merged");
}

}  // namespace
}  // namespace topk
