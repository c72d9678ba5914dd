// Differential suite for the vectorized validate kernel (kernel v2).
//
// The SIMD path of FootruleValidator is pinned bit-identical — accept /
// reject decisions, output order, distances, and the kDistanceCalls
// ticker — to the forced-scalar path and to the independent scalar merge
// kernel (core/footrule.h), across k values spanning partial, exact, and
// multi-register lane occupancy, batch remainders of every size modulo
// the lane width, every theta from 0 to dmax, and candidates whose items
// lie outside the bound rank table. In a TOPK_SIMD=OFF build both paths
// are the same scalar code and the suite still pins the validator to the
// merge kernel, so it runs (and must pass) in every CI leg. ValidateAll
// is pinned to ValidateSpan over the iota id span, and its QueryControl
// polls to ValidateSpan's stop contract. ValidateSpan's row prefetch is
// driven over every span length around its lookahead, in both loops.
//
// The epoch seam tests exercise the 2^32-bind wrap path in BindQuery
// (clear + restart past the reserved epoch 0) and the epoch-safety of
// EnsureItemCapacity's zero fill, which aliases "epoch 0, rank 0" and is
// only sound because epoch 0 is never current.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/deadline.h"
#include "core/footrule.h"
#include "kernel/footrule_batch.h"
#include "kernel/simd.h"
#include "test_util.h"

namespace topk {
namespace {

std::vector<RankingId> AllIds(const RankingStore& store) {
  std::vector<RankingId> all(store.size());
  for (RankingId id = 0; id < store.size(); ++id) all[id] = id;
  return all;
}

/// Runs ValidateSpan twice — auto (SIMD when compiled) and forced-scalar —
/// and checks both against each other and against the brute-force scan.
void ExpectSpanMatchesScalar(const RankingStore& store,
                             const PreparedQuery& query,
                             std::span<const RankingId> candidates,
                             RawDistance theta_raw) {
  FootruleValidator simd;
  FootruleValidator scalar;
  scalar.set_use_simd(false);
  const size_t domain = static_cast<size_t>(store.max_item()) + 1;

  std::vector<RankingId> got_simd;
  std::vector<RankingId> got_scalar;
  Statistics stats_simd;
  Statistics stats_scalar;
  simd.BindQuery(query.view(), domain);
  simd.ValidateSpan(store, candidates, theta_raw, &got_simd, &stats_simd);
  scalar.BindQuery(query.view(), domain);
  scalar.ValidateSpan(store, candidates, theta_raw, &got_scalar,
                      &stats_scalar);

  ASSERT_EQ(got_simd, got_scalar) << "theta_raw=" << theta_raw;
  EXPECT_EQ(stats_simd.Get(Ticker::kDistanceCalls), candidates.size());
  EXPECT_EQ(stats_scalar.Get(Ticker::kDistanceCalls), candidates.size());
  // Decisions must also agree with the independent merge kernel.
  for (const RankingId id : candidates) {
    const bool want = FootruleDistance(query.sorted_view(),
                                       store.sorted(id)) <= theta_raw;
    const bool got = std::find(got_simd.begin(), got_simd.end(), id) !=
                     got_simd.end();
    ASSERT_EQ(got, want) << "id=" << id << " theta_raw=" << theta_raw;
  }
}

TEST(KernelSimdTest, MatchesScalarAcrossKAndTheta) {
  for (const uint32_t k : {1u, 5u, 25u, 100u}) {
    const RankingStore store =
        testutil::MakeUniformStore(k, 300, 8 * k, 1000 + k);
    const auto queries = testutil::MakeQueries(store, 8, 2000 + k);
    const auto all = AllIds(store);
    for (const PreparedQuery& query : queries) {
      for (const double theta : {0.0, 0.05, 0.3, 0.7, 1.0}) {
        ExpectSpanMatchesScalar(store, query, all, RawThreshold(theta, k));
      }
    }
  }
}

TEST(KernelSimdTest, BatchRemaindersOfEverySizeModuloLaneWidth) {
  // Span sizes around every multiple of the lane width force each
  // combination of full vector batches plus a scalar remainder tail.
  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 4 * 8 + 7, 51);
  const auto queries = testutil::MakeQueries(store, 4, 52);
  const auto all = AllIds(store);
  const RawDistance theta_raw = RawThreshold(0.4, k);
  for (const PreparedQuery& query : queries) {
    for (size_t size = 0; size <= store.size(); ++size) {
      ExpectSpanMatchesScalar(
          store, query, std::span<const RankingId>(all).subspan(0, size),
          theta_raw);
    }
  }
}

TEST(KernelSimdTest, DecisionsAgreeAtEveryThetaForEveryRemainder) {
  // Every theta in [0, dmax], not only its ends: at theta >= Sq a row
  // sharing no item with the query passes the candidate-side running sum
  // until its last position, so only the query-side slack of the early
  // exit rejects it early. The store mixes clustered rows with exact and
  // reversed copies of the first query and rows disjoint from every
  // query, and span sizes run over every remainder modulo the lane width.
  for (const uint32_t k : {3u, 10u}) {
    RankingStore store = testutil::MakeClusteredStore(k, 3 * 8, 300 + k);
    const auto queries = testutil::MakeQueries(store, 3, 400 + k);
    std::vector<ItemId> reversed(queries[0].view().items().begin(),
                                 queries[0].view().items().end());
    std::reverse(reversed.begin(), reversed.end());
    std::vector<ItemId> disjoint(k);
    for (uint32_t p = 0; p < k; ++p) disjoint[p] = 100000 + p;
    for (int copy = 0; copy < 5; ++copy) {
      store.AddUnchecked(disjoint);
      store.AddUnchecked(queries[0].view().items());
      store.AddUnchecked(reversed);
    }
    const auto all = AllIds(store);
    for (const PreparedQuery& query : queries) {
      for (RawDistance theta = 0; theta <= MaxDistance(k); ++theta) {
        for (size_t size = 0; size <= 2 * 8; ++size) {
          ExpectSpanMatchesScalar(
              store, query,
              std::span<const RankingId>(all).subspan(all.size() - size),
              theta);
        }
        ExpectSpanMatchesScalar(store, query, all, theta);
      }
    }
  }
}

TEST(KernelSimdTest, RowPrefetchStaysInsideSpanAndStore) {
  // ValidateSpan prefetches the row kRowPrefetchDistance candidates ahead
  // in both loops. Every span length from 0 through the lookahead plus two
  // lane batches puts that lookahead past the span's end at some point,
  // and each span ends in the store's last row, so an address formed from
  // candidates[i + D] past the end (or past flat_items()) is reachable. The
  // span lives in an exactly sized heap block: under ASan an out-of-span
  // read of an id faults.
  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 97, 53);
  const auto queries = testutil::MakeQueries(store, 4, 54);
  const size_t max_len = kRowPrefetchDistance + 2 * kSimdLanes;
  ASSERT_LT(max_len, store.size());
  const RankingId last = static_cast<RankingId>(store.size() - 1);
  // Scattered distinct ids (a stride coprime to `last`), never `last`.
  std::vector<RankingId> pool;
  for (size_t j = 0; j < max_len; ++j) {
    pool.push_back(static_cast<RankingId>((j * 37 + 11) % last));
  }
  for (const PreparedQuery& query : queries) {
    for (const double theta : {0.0, 0.3, 0.6}) {
      const RawDistance theta_raw = RawThreshold(theta, k);
      for (size_t len = 0; len <= max_len; ++len) {
        std::vector<RankingId> span(len);
        if (len > 0) {
          std::copy(pool.begin(), pool.begin() + (len - 1), span.begin());
          span.back() = last;
        }
        std::vector<RankingId> want;
        for (const RankingId id : span) {
          if (FootruleDistance(query.sorted_view(), store.sorted(id)) <=
              theta_raw) {
            want.push_back(id);
          }
        }
        for (const bool use_simd : {true, false}) {
          FootruleValidator validator;
          validator.set_use_simd(use_simd);
          validator.BindQuery(query.view());
          std::vector<RankingId> got;
          validator.ValidateSpan(store, span, theta_raw, &got, nullptr);
          ASSERT_EQ(got, want) << "len=" << len << " simd=" << use_simd
                               << " theta_raw=" << theta_raw;
        }
      }
    }
  }
}

TEST(KernelSimdTest, ValidateAllMatchesScalarAndBruteForce) {
  const uint32_t k = 25;
  const RankingStore store = testutil::MakeClusteredStore(k, 500, 53);
  const auto queries = testutil::MakeQueries(store, 10, 54);
  for (const PreparedQuery& query : queries) {
    for (const double theta : {0.0, 0.3, 1.0}) {
      const RawDistance theta_raw = RawThreshold(theta, k);
      FootruleValidator simd;
      FootruleValidator scalar;
      scalar.set_use_simd(false);
      std::vector<RankingId> got_simd;
      std::vector<RankingId> got_scalar;
      simd.BindQuery(query.view());
      simd.ValidateAll(store, theta_raw, &got_simd, nullptr);
      scalar.BindQuery(query.view());
      scalar.ValidateAll(store, theta_raw, &got_scalar, nullptr);
      ASSERT_EQ(got_simd, got_scalar);
      ASSERT_EQ(got_simd, testutil::BruteForce(store, query, theta_raw));
    }
  }
}

TEST(KernelSimdTest, ValidateAllWithoutControlEqualsValidateSpanOverIota) {
  // The full-domain paths validate the whole store through ValidateAll
  // instead of ValidateSpan over an id vector: same ids in the same order
  // and the same kDistanceCalls, on both the vector and the scalar path.
  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 8 * 37 + 5, 58);
  const auto queries = testutil::MakeQueries(store, 6, 59);
  const auto all = AllIds(store);
  for (const bool use_simd : {true, false}) {
    FootruleValidator validator;
    validator.set_use_simd(use_simd);
    for (const PreparedQuery& query : queries) {
      for (const double theta : {0.0, 0.2, 0.5, 1.0}) {
        const RawDistance theta_raw = RawThreshold(theta, k);
        std::vector<RankingId> via_all;
        std::vector<RankingId> via_span;
        Statistics stats_all;
        Statistics stats_span;
        validator.BindQuery(query.view());
        validator.ValidateAll(store, theta_raw, &via_all, &stats_all);
        validator.ValidateSpan(store, all, theta_raw, &via_span, &stats_span);
        ASSERT_EQ(via_all, via_span) << "simd=" << use_simd;
        EXPECT_EQ(stats_all.Get(Ticker::kDistanceCalls),
                  stats_span.Get(Ticker::kDistanceCalls));
        EXPECT_EQ(stats_all.Get(Ticker::kDistanceCalls), store.size());
      }
    }
  }
}

TEST(KernelSimdTest, ValidateAllStopsOnAnExpiredControl) {
  // An expired control stops ValidateAll at its first poll (the first
  // poll always reads the clock), leaving `out` truncated — here before
  // any accepted id, although the full answer is non-empty. The ticker is
  // charged up front, exactly as ValidateSpan charges it.
  const uint32_t k = 10;
  const RankingStore store = testutil::MakeClusteredStore(k, 300, 60);
  const PreparedQuery query(store.Materialize(11));
  const RawDistance theta_raw = RawThreshold(0.5, k);
  ASSERT_FALSE(testutil::BruteForce(store, query, theta_raw).empty());
  for (const bool use_simd : {true, false}) {
    FootruleValidator validator;
    validator.set_use_simd(use_simd);
    validator.BindQuery(query.view());
    QueryControl expired(Deadline::AfterMillis(-1.0));
    std::vector<RankingId> out;
    Statistics stats;
    validator.ValidateAll(store, theta_raw, &out, &stats, &expired);
    EXPECT_TRUE(expired.stopped());
    EXPECT_TRUE(out.empty()) << "simd=" << use_simd;
    EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), store.size());

    CancelToken token;
    token.Cancel();
    QueryControl cancelled(Deadline::Infinite(), &token);
    validator.ValidateAll(store, theta_raw, &out, nullptr, &cancelled);
    EXPECT_TRUE(out.empty()) << "simd=" << use_simd;
  }
}

TEST(KernelSimdTest, CandidateItemsOutsideTheRankTableAreAbsent) {
  // Candidate items far beyond the *bound* table: the scalar paths take
  // the bounds branch, and the vector paths rely on ValidateSpan growing
  // the lane table to the store's item domain before dispatch (the
  // gathers run unmasked — EnsureItemCapacity is the safety mechanism),
  // after which the grown slots read the absent sentinel. Every distance
  // must come out exactly dmax.
  const uint32_t k = 8;
  RankingStore store(k);
  std::vector<ItemId> items;
  for (uint32_t row = 0; row < 20; ++row) {
    items.clear();
    for (uint32_t p = 0; p < k; ++p) {
      items.push_back(1000000u + row * k + p);
    }
    store.AddUnchecked(items);
  }
  items.clear();
  for (uint32_t p = 0; p < k; ++p) items.push_back(p);
  const PreparedQuery query(Ranking::Create(items).ValueOrDie());

  FootruleValidator validator;
  validator.BindQuery(query.view(), static_cast<size_t>(k));
  for (RankingId id = 0; id < store.size(); ++id) {
    ASSERT_EQ(validator.Distance(store.view(id)), MaxDistance(k));
  }
  ExpectSpanMatchesScalar(store, query, AllIds(store), MaxDistance(k));
  ExpectSpanMatchesScalar(store, query, AllIds(store), MaxDistance(k) - 1);
}

TEST(KernelSimdTest, ExactDuplicatesAcceptedAtThetaZero) {
  const uint32_t k = 5;
  const RankingStore store = testutil::MakeUniformStore(k, 64, 6 * k, 55);
  // Query = a stored ranking: its own id must survive theta = 0 on both
  // paths (distance 0, duplicate-free by construction).
  const PreparedQuery query(store.Materialize(17));
  ExpectSpanMatchesScalar(store, query, AllIds(store), 0);
}

TEST(KernelSimdTest, EpochWrapClearsStaleRanks) {
  const uint32_t k = 6;
  const RankingStore store = testutil::MakeUniformStore(k, 120, 30, 56);
  const auto queries = testutil::MakeQueries(store, 6, 57);
  const RawDistance theta_raw = RawThreshold(0.5, k);

  FootruleValidator validator;
  // Publish a first query normally (slots stamped with a live epoch)...
  validator.BindQuery(queries[0].view());
  ASSERT_EQ(validator.Distance(store.view(3)),
            FootruleDistance(queries[0].sorted_view(), store.sorted(3)));
  // ...then park the counter so the next bind wraps: BindQuery must clear
  // the table and restart past the reserved epoch 0, or the first bind's
  // stale slots would alias the restarted epoch.
  validator.set_epoch_for_testing(UINT32_MAX);
  validator.BindQuery(queries[1].view());
  EXPECT_EQ(validator.epoch_for_testing(), 1u);
  for (RankingId id = 0; id < store.size(); ++id) {
    ASSERT_EQ(validator.Distance(store.view(id)),
              FootruleDistance(queries[1].sorted_view(), store.sorted(id)));
  }
  // The full span path (vector batches included) agrees after the wrap.
  std::vector<RankingId> got;
  validator.ValidateSpan(store, AllIds(store), theta_raw, &got, nullptr);
  EXPECT_EQ(got, testutil::BruteForce(store, queries[1], theta_raw));
}

TEST(KernelSimdTest, CapacityGrowthAfterWrapStaysEpochSafe) {
  // EnsureItemCapacity fills new slots with 0 = (epoch 0, rank 0). Epoch 0
  // is reserved, so the grown slots must read as absent under any bound
  // query — including right after a wrap parked the epoch back at 1.
  const uint32_t k = 4;
  RankingStore store(k);
  ASSERT_TRUE(store.Add(std::vector<ItemId>{0, 1, 2, 3}).ok());
  ASSERT_TRUE(store.Add(std::vector<ItemId>{100, 101, 102, 103}).ok());

  const PreparedQuery small(
      Ranking::Create(std::vector<ItemId>{0, 1, 2, 3}).ValueOrDie());
  FootruleValidator validator;
  validator.set_epoch_for_testing(UINT32_MAX);
  validator.BindQuery(small.view());  // wraps; table covers items < 4
  validator.EnsureItemCapacity(200);  // grow while a query is bound
  // Items 100..103 land in freshly zero-filled slots: absent, not rank 0.
  EXPECT_EQ(validator.Distance(store.view(1)), MaxDistance(k));
  EXPECT_EQ(validator.Distance(store.view(0)), 0u);
  std::vector<RankingId> got;
  validator.ValidateSpan(store, AllIds(store), MaxDistance(k) - 1, &got,
                         nullptr);
  EXPECT_EQ(got, std::vector<RankingId>{0});
}

TEST(KernelSimdTest, BackendNameMatchesCompiledLanes) {
  if (FootruleValidator::SimdCompiled()) {
    EXPECT_STRNE(FootruleValidator::SimdBackendName(), "scalar");
    EXPECT_GT(kSimdLanes, 1u);
  } else {
    EXPECT_STREQ(FootruleValidator::SimdBackendName(), "scalar");
    EXPECT_EQ(kSimdLanes, 1u);
  }
}

}  // namespace
}  // namespace topk
