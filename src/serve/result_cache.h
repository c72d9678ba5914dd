// Exact result cache for the serving layer: memoizes complete answers
// (range result lists and k-NN neighbor lists) keyed by the canonical
// query sequence + (kind, algorithm, theta or j), and the serve step
// QueryFrontend runs per request. Result caching is a static-store
// policy: LiveFrontend's store changes on every write, so it has none.
//
// A hit returns the previously computed answer verbatim — exact because
// (a) the key compares the full item sequence, so only a byte-identical
// query under identical parameters can hit, (b) every engine in the
// registry is exact, so the memoized answer equals what any cold run
// would produce, and (c) entries are epoch-stamped: a generation bump
// (store/partitioning rebuild) makes every older entry unservable.
//
// The serve step (Serve below) is the only place that looks up or
// inserts an answer (scripts/check_invariants.py `result-cache-callers`),
// so the rules "a hit serves even past the deadline" and "a stopped
// answer is discarded and never cached" are written once.
//
// Hit/miss/eviction counts are reported through the standard Statistics
// tickers (kResultCache*), so they aggregate into RunResult like every
// other counter.
//
// Thread safety: internally synchronized — all state lives in the
// ShardedLruCache, whose per-shard mutexes carry the compile-checked
// annotations (see serve/lru_cache.h); this wrapper adds no state of
// its own beyond the cache, so it needs no lock and no annotations.
// The Statistics object passed per call is caller-owned (thread-local
// in the frontend's executors).

#ifndef TOPK_SERVE_RESULT_CACHE_H_
#define TOPK_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/deadline.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"
#include "metric/knn.h"
#include "serve/fingerprint.h"
#include "serve/lru_cache.h"

namespace topk {

/// Lock shards of each answer kind's store (clamped to the capacity).
inline constexpr size_t kResultCacheShards = 8;

class ResultCache {
 public:
  /// `capacity` is the entry budget *per answer kind*: the range and
  /// k-NN stores are independent, each holding up to `capacity` entries
  /// (a stream of one kind gets the full budget; a mixed stream can hold
  /// up to 2x). 0 disables both.
  explicit ResultCache(size_t capacity)
      : range_(capacity, kResultCacheShards),
        knn_(capacity, kResultCacheShards) {}

  bool enabled() const { return range_.enabled(); }

  /// Answers one query into `*out` (cleared first): RankingId answers are
  /// range results, Neighbor answers k-NN lists; `param` is theta_raw or
  /// j. In order:
  ///   1. a hit under `epoch` is served (`*hit` set), even for a caller
  ///      past its deadline;
  ///   2. a stopped `control` (may be null) answers its StopStatus;
  ///   3. `run(out)` computes the answer and returns a Status;
  ///   4. a non-OK run, or a stop observed after it, clears `*out` and is
  ///      never cached (a run that maps its own stop has ticked already);
  ///   5. the answer is inserted under `epoch`.
  /// The key is built only when the cache is enabled. Lookups tick
  /// kResultCacheHits/Misses, inserts kResultCacheEvictions.
  template <typename Answer, typename Run>
  Status Serve(uint32_t algorithm, uint64_t param, const PreparedQuery& query,
               uint64_t epoch, QueryControl* control,
               std::vector<Answer>* out, bool* hit, Statistics* stats,
               Run&& run) {
    constexpr bool kRange = std::is_same_v<Answer, RankingId>;
    auto& cache = StoreFor(out);
    out->clear();
    const bool cacheable = enabled();
    ResultCacheKey key{};
    if (cacheable) {
      key = MakeResultCacheKey(kRange ? ServeKind::kRange : ServeKind::kKnn,
                               algorithm, param, query);
      const bool found = cache.Lookup(key, epoch, out);
      AddTicker(stats, found ? Ticker::kResultCacheHits
                             : Ticker::kResultCacheMisses);
      if (found) {
        *hit = true;
        return Status::OK();
      }
    }
    if (control != nullptr && control->ShouldStop()) {
      return StopStatus(*control, stats);
    }
    Status status = run(out);
    if (status.ok() && control != nullptr && control->ShouldStop()) {
      status = StopStatus(*control, stats);
    }
    if (!status.ok()) {
      out->clear();
      return status;
    }
    if (cacheable) {
      AddTicker(stats, Ticker::kResultCacheEvictions,
                cache.Insert(std::move(key), epoch, *out));
    }
    return status;
  }

  size_t size() const { return range_.size() + knn_.size(); }

 private:
  using RangeStore = ShardedLruCache<ResultCacheKey, std::vector<RankingId>>;
  using KnnStore = ShardedLruCache<ResultCacheKey, std::vector<Neighbor>>;

  /// The answer kind's store, picked by the output type.
  RangeStore& StoreFor(std::vector<RankingId>*) { return range_; }
  KnnStore& StoreFor(std::vector<Neighbor>*) { return knn_; }

  RangeStore range_;
  KnnStore knn_;
};

}  // namespace topk

#endif  // TOPK_SERVE_RESULT_CACHE_H_
