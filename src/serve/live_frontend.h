// LiveFrontend: admission-controlled serving over the live write path.
//
// QueryFrontend binds an immutable RankingStore snapshot at Prepare
// time, so it cannot sit on a store that mutates. LiveFrontend is the
// serving adapter for mutate/MutableStore: each call takes an admission
// ticket and, when admitted, runs the store's own query, which is always
// current and exact. It keeps no result cache: every write would
// invalidate it, so result caching stays QueryFrontend's static-store
// policy.
//
// Statuses: a shed caller gets Unavailable (ShedStatus) before the store
// runs. Every stop status (DeadlineExceeded, Aborted) is the store's
// own, from its QueryControl polling — once on entry, before the store
// mutex, then inside the kernels.
//
// Thread safety: no mutex of its own — the admission gauge is atomic
// and the store serializes its own queries. Calls may race mutations
// arbitrarily (TSan-checked).

#ifndef TOPK_SERVE_LIVE_FRONTEND_H_
#define TOPK_SERVE_LIVE_FRONTEND_H_

#include <cstdint>
#include <vector>

#include "core/deadline.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"
#include "metric/knn.h"
#include "mutate/mutable_store.h"
#include "serve/admission.h"

namespace topk {

struct LiveFrontendOptions {
  /// Admission control: queries served concurrently before new arrivals
  /// are shed with Status::Unavailable. 0 = unlimited.
  size_t max_inflight = 0;
};

class LiveFrontend {
 public:
  /// `store` must outlive the frontend.
  explicit LiveFrontend(MutableStore* store, LiveFrontendOptions options = {})
      : store_(store), admission_(options.max_inflight) {}

  /// Queries currently inside a Serve* call (the admission gauge
  /// max_inflight sheds on; an operator load signal).
  size_t inflight() const { return admission_.inflight(); }

  /// Deadline/cancel/admission-aware range serving. On OK `*out` holds
  /// the exact answer (ascending global ids). On Unavailable (shed;
  /// retry after kShedRetryAfterMs), DeadlineExceeded, or Aborted it is
  /// empty. `control` may be null (no deadline).
  Status ServeRange(const PreparedQuery& query, RawDistance theta_raw,
                    QueryControl* control, std::vector<RankingId>* out,
                    Statistics* stats = nullptr);

  /// Deadline/cancel/admission-aware k-NN serving ((distance, id)
  /// ascending, min(j, live) entries on OK); same contract.
  Status ServeKnn(const PreparedQuery& query, size_t j, QueryControl* control,
                  std::vector<Neighbor>* out, Statistics* stats = nullptr);

 private:
  /// The one serve body: a range query for RankingId answers (`param` is
  /// theta_raw), a k-NN query for Neighbor answers (`param` is j).
  template <typename Answer>
  Status Serve(uint64_t param, const PreparedQuery& query,
               QueryControl* control, std::vector<Answer>* out,
               Statistics* stats);

  MutableStore* store_;
  /// Queries currently inside a Serve* call, limited to max_inflight.
  AdmissionGate admission_;
};

}  // namespace topk

#endif  // TOPK_SERVE_LIVE_FRONTEND_H_
