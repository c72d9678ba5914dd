// Shared helpers for the test suite: small deterministic datasets and the
// brute-force equivalence harness every algorithm is checked against.

#ifndef TOPK_TESTS_TEST_UTIL_H_
#define TOPK_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "core/footrule.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"
#include "data/generator.h"
#include "data/workload.h"
#include "invidx/drop_policy.h"
#include "kernel/filter_phase.h"
#include "storage/compressed_index.h"
#include "storage/posting_codec.h"

namespace topk {
namespace testutil {

/// Uniform-random duplicate-free rankings (no cluster structure).
inline RankingStore MakeUniformStore(uint32_t k, size_t n, uint32_t domain,
                                     uint64_t seed) {
  Rng rng(seed);
  RankingStore store(k);
  std::vector<ItemId> items;
  for (size_t i = 0; i < n; ++i) {
    items.clear();
    while (items.size() < k) {
      const auto item = static_cast<ItemId>(rng.Below(domain));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    store.AddUnchecked(items);
  }
  return store;
}

/// Clustered store exercising the near-duplicate structure the coarse
/// index exploits.
inline RankingStore MakeClusteredStore(uint32_t k, size_t n, uint64_t seed) {
  GeneratorOptions options;
  options.n = static_cast<uint32_t>(n);
  options.k = k;
  options.domain = std::max<uint32_t>(4 * k, static_cast<uint32_t>(n));
  options.zipf_s = 0.8;
  options.mean_cluster_size = 5.0;
  options.seed = seed;
  return Generate(options);
}

/// Ground truth by definition (direct Footrule scan, no index involved).
inline std::vector<RankingId> BruteForce(const RankingStore& store,
                                         const PreparedQuery& query,
                                         RawDistance theta_raw) {
  std::vector<RankingId> results;
  for (RankingId id = 0; id < store.size(); ++id) {
    if (FootruleDistance(query.sorted_view(), store.sorted(id)) <=
        theta_raw) {
      results.push_back(id);
    }
  }
  return results;
}

/// Mixed workload: half perturbed copies of stored rankings, half fresh.
inline std::vector<PreparedQuery> MakeQueries(const RankingStore& store,
                                              size_t count, uint64_t seed) {
  WorkloadOptions options;
  options.num_queries = count;
  options.perturbed_fraction = 0.5;
  options.seed = seed;
  return MakeWorkload(store, options);
}

/// Whether `a` and `b` agree on every ticker except `skip`.
inline bool TickersEqualExcept(const Statistics& a, const Statistics& b,
                               Ticker skip) {
  for (int t = 0; t < kNumTickers; ++t) {
    const auto ticker = static_cast<Ticker>(t);
    if (ticker != skip && a.Get(ticker) != b.Get(ticker)) return false;
  }
  return true;
}

/// The block-tier lists SelectLists keeps over `index`, and their blocks:
/// `blocks` is what a serial union of those lists decodes
/// (kBlocksDecoded; the inline tier decodes none), `lists` how many lists
/// a split may decode one straddling block of once more per window
/// boundary.
struct SelectedBlocks {
  uint64_t blocks = 0;
  uint64_t lists = 0;
};
inline SelectedBlocks SelectedBlockTier(
    const storage::CompressedInvertedIndex& index, RankingView query,
    RawDistance theta_raw, DropMode drop) {
  SelectedBlocks selected;
  for (const uint32_t position : SelectLists(
           query, theta_raw, drop,
           [&index](ItemId item) { return index.list_length(item); })) {
    const size_t length = index.list_length(query[position]);
    if (length == 0 || index.arena().is_inline(query[position])) continue;
    selected.blocks +=
        (length + storage::kBlockEntries - 1) / storage::kBlockEntries;
    ++selected.lists;
  }
  return selected;
}

/// The blocks a serial RangeSearch over `index` decodes: the selected
/// lists' blocks below dmax, none from dmax on.
inline uint64_t RangeSearchBlocks(
    const storage::CompressedInvertedIndex& index, uint32_t k,
    RankingView query, RawDistance theta_raw, DropMode drop) {
  return UnionCoversRange(k, theta_raw)
             ? SelectedBlockTier(index, query, theta_raw, drop).blocks
             : 0;
}

}  // namespace testutil
}  // namespace topk

#endif  // TOPK_TESTS_TEST_UTIL_H_
