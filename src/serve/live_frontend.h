// LiveFrontend: exact result caching over the live write path.
//
// QueryFrontend binds an immutable RankingStore snapshot at Prepare
// time, so it cannot sit on a store that mutates. LiveFrontend is the
// serving adapter for mutate/MutableStore: the same epoch-stamped exact
// ResultCache, but every answer is computed by the store itself (which
// is always current) and every mutation invalidates the cache through
// the store's mutation listener.
//
// Both public calls run one private body, Serve, which takes an
// admission ticket, reads the epoch and hands the store query to the
// result cache's serve step (ResultCache::Serve, the one QueryFrontend
// runs too).
//
// Exactness under concurrency: Serve reads the epoch BEFORE the cache
// lookup and the step inserts the computed answer under that same
// epoch. A mutation that lands after the read bumps the epoch under the
// store mutex — before the store could have answered the query — so a
// stale answer is inserted under an epoch that is already dead and can
// never be served. The served answer therefore always equals the store's
// answer at some point inside the call (linearizable), and an identical
// re-issued query after any mutation recomputes.
//
// Thread safety: no mutex of its own — the cache is internally
// synchronized, the epoch is atomic, and the store serializes its own
// queries. Calls may race mutations arbitrarily (TSan-checked).

#ifndef TOPK_SERVE_LIVE_FRONTEND_H_
#define TOPK_SERVE_LIVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/deadline.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"
#include "metric/knn.h"
#include "mutate/mutable_store.h"
#include "serve/admission.h"
#include "serve/result_cache.h"

namespace topk {

struct LiveFrontendOptions {
  /// Entry budget per answer kind; 0 disables caching.
  size_t result_cache_capacity = 64 * 1024;
  /// Admission control: queries served concurrently before new arrivals
  /// are shed with Status::Unavailable (a cache hit is still attempted
  /// first — it costs less than building the rejection). 0 = unlimited.
  size_t max_inflight = 0;
};

class LiveFrontend {
 public:
  /// The cache-key algorithm slot for live-store answers. The store is
  /// engine-agnostic (one exact kernel), so a sentinel outside the
  /// Algorithm enum keeps live entries disjoint from any QueryFrontend
  /// sharing a key scheme.
  static constexpr uint32_t kLiveAlgorithm = 0xFFFFFFFFu;

  /// `store` must outlive the frontend, and the frontend must outlive
  /// the store's last mutation: the constructor registers a mutation
  /// listener (a raw back-pointer) so every Insert/Delete/merge swap
  /// bumps the epoch. Destroy store-then-frontend.
  explicit LiveFrontend(MutableStore* store, LiveFrontendOptions options = {});

  MutableStore& store() { return *store_; }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  size_t result_cache_size() const { return result_cache_.size(); }
  /// Queries currently inside a Serve* call (the admission gauge
  /// max_inflight sheds on; an operator load signal).
  size_t inflight() const { return admission_.inflight(); }

  /// Deadline/cancel/admission-aware range serving. On OK `*out` holds
  /// the exact answer (ascending global ids), from cache when the
  /// identical query+theta was served in the current epoch (a hit serves
  /// even past the deadline or the admission limit). On Unavailable (shed;
  /// retry after kShedRetryAfterMs), DeadlineExceeded, or Aborted it is
  /// empty, and nothing non-OK is ever cached. `control` may be null (no
  /// deadline).
  Status ServeRange(const PreparedQuery& query, RawDistance theta_raw,
                    QueryControl* control, std::vector<RankingId>* out,
                    Statistics* stats = nullptr);

  /// Deadline/cancel/admission-aware k-NN serving ((distance, id)
  /// ascending, min(j, live) entries on OK); same contract.
  Status ServeKnn(const PreparedQuery& query, size_t j, QueryControl* control,
                  std::vector<Neighbor>* out, Statistics* stats = nullptr);

  /// Generation bump: every cached entry becomes unservable. Thread-safe;
  /// this is what the store's mutation listener calls.
  void InvalidateCaches() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  /// The one serve body: a range query for RankingId answers (`param` is
  /// theta_raw), a k-NN query for Neighbor answers (`param` is j).
  template <typename Answer>
  Status Serve(uint64_t param, const PreparedQuery& query,
               QueryControl* control, std::vector<Answer>* out,
               Statistics* stats);

  MutableStore* store_;
  ResultCache result_cache_;
  std::atomic<uint64_t> epoch_{0};
  /// Queries currently inside a Serve* call, limited to max_inflight.
  AdmissionGate admission_;
};

}  // namespace topk

#endif  // TOPK_SERVE_LIVE_FRONTEND_H_
