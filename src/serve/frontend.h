// Online serving frontend: inter-query batched execution with exact
// result caching, and intra-query parallelism for a lone request.
//
// Production query streams are dominated by many small, often repeated
// queries. QueryFrontend serves them, and a lone request, over one store
// and one set of indexes:
//
//   batching      a batch of range/k-NN requests is scheduled across a
//                 reusable ThreadPool as *whole queries* (work sharing:
//                 whichever executor is free grabs the next request; the
//                 calling thread participates). Responses land at the
//                 index of their request, so ordering per request id is
//                 deterministic regardless of execution interleaving.
//   lone request  a batch of exactly one request would leave every other
//                 executor idle, so a kFV / kFVDrop range request or a
//                 kLinearScan k-NN request splits its own work into
//                 kSplitParts id windows through PoolSplit
//                 (kernel/id_split.h, the policy ResilientReader shares),
//                 work-shared over every executor through the same
//                 ThreadPool::ParallelFor join, each part on its
//                 executor's existing scratch. Ascending window answers
//                 concatenate, k-NN heaps merge by (distance, id), and
//                 the summed tickers equal the serial ones. Below
//                 kSplitMinVolume posting entries (or store rows) the
//                 request stays serial on the caller; Coarse, the metric
//                 trees and the theta >= dmax sweep always do.
//   prepare       the suite builds its indexes on the coordinator; the
//                 BK-tree behind kBkTree and the coarse indexes' global
//                 BK-tree split each large build level's distance pass
//                 over the same pool (PoolRunner). The indexes equal the
//                 serial build.
//   result cache  an exact sharded LRU keyed by the canonical query
//                 sequence + (kind, algorithm, theta or j): an identical
//                 re-issued query is answered without touching any engine.
//                 Every request runs the cache's serve step
//                 (ResultCache::Serve): lookup, stop check, engine, stop
//                 check, insert. Caching is this frontend's policy: it
//                 serves an immutable store, so an answer stays valid
//                 until InvalidateCaches (LiveFrontend has no cache).
//   admission     a batch past max_inflight_batches is shed whole before
//                 it queues on the coordinator mutex (AdmissionGate).
//   generations   InvalidateCaches() bumps an epoch; entries from older
//                 generations can never be served again (lazy erase).
//                 The hook covers the *caches*; the frontend's indexes
//                 and engines bind the store contents at Prepare time,
//                 so a store/partitioning rebuild must construct a new
//                 QueryFrontend (bumping the old one's epoch only
//                 guarantees its caches cannot leak into the new
//                 generation while it is being drained).
//
// A range request that misses the result cache runs its engine; the F&V
// family reaches the kernel RangeSearch through FilterValidateEngine, so
// the frontend adds no second filter/validate path of its own, and it
// passes the request's QueryControl down to it and to the coarse index
// (QueryEngine::coarse()), so a deadline or cancel stops either engine
// mid-query. The serve differential suites
// (serve_frontend_test, FuzzServeTest in fuzz_differential_test) compare
// served answers with brute force, lone requests included.
//
// Concurrency contract (compiler-enforced where the analysis can see
// it): the coordinator methods (Prepare/ServeBatch) run one-at-a-time
// under serve_mutex_ — concurrent callers serialize instead of racing —
// and the per-executor table is TOPK_GUARDED_BY that mutex.
// InvalidateCaches() may be called from any thread at any time. A
// request observes the generation current when its batch started:
// requests racing an invalidation linearize before it. The lock
// hierarchy (serve_mutex_ above the cache shard mutexes, never the
// reverse) is recorded in DESIGN.md "Locking order & epoch contracts".
//
// Engine thread safety: each executor owns a private QueryEngine per
// algorithm (per-engine scratch), all sharing the suite's immutable
// indexes; the coarse engine carries a per-executor CoarseScratch. A lone
// request's part running on ParallelFor slot e uses only executor e's
// scratch and counters, and a slot runs one part at a time. Exceptions
// thrown while serving a request are captured and the first one is
// rethrown on the caller after the batch joins (remaining requests still
// complete, so the frontend stays usable).

#ifndef TOPK_SERVE_FRONTEND_H_
#define TOPK_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/deadline.h"
#include "core/mutex.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "core/types.h"
#include "harness/query_algorithms.h"
#include "harness/thread_pool.h"
#include "kernel/footrule_batch.h"
#include "kernel/id_split.h"
#include "metric/knn.h"
#include "serve/admission.h"
#include "serve/fingerprint.h"
#include "serve/result_cache.h"

namespace topk {

/// One query in a serving batch. `query` must outlive the ServeBatch call
/// (requests reference workload-owned PreparedQuery objects; copying the
/// prepared views per request would dominate small-query serving).
struct ServeRequest {
  ServeKind kind = ServeKind::kRange;
  Algorithm algorithm = Algorithm::kFV;
  const PreparedQuery* query = nullptr;
  RawDistance theta_raw = 0;  // range requests
  size_t j = 0;               // k-NN requests
  /// Per-request deadline; infinite by default. An expired request is
  /// answered with Status::DeadlineExceeded and an empty result (a
  /// result-cache hit still serves — it beats the deadline by
  /// construction); a request that expires mid-execution discards its
  /// partial answer and is never cached.
  Deadline deadline = Deadline::Infinite();
  /// Optional cooperative cancellation; must outlive the batch. A
  /// tripped token answers with Status::Aborted under the same
  /// discard-partials rule as the deadline.
  const CancelToken* cancel = nullptr;

  static ServeRequest Range(Algorithm algorithm, const PreparedQuery& query,
                            RawDistance theta_raw) {
    return ServeRequest{ServeKind::kRange, algorithm, &query, theta_raw, 0};
  }
  static ServeRequest Knn(Algorithm algorithm, const PreparedQuery& query,
                          size_t j) {
    return ServeRequest{ServeKind::kKnn, algorithm, &query, 0, j};
  }
  // A temporary would leave a dangling pointer in the request; make the
  // lifetime rule a compile error instead of a comment.
  static ServeRequest Range(Algorithm, const PreparedQuery&&,
                            RawDistance) = delete;
  static ServeRequest Knn(Algorithm, const PreparedQuery&&, size_t) = delete;
};

struct ServeResponse {
  std::vector<RankingId> ids;       // range answer, ascending ids
  std::vector<Neighbor> neighbors;  // k-NN answer, (distance, id) ascending
  bool result_cache_hit = false;
  /// OK for a served answer; DeadlineExceeded / Aborted / Unavailable
  /// for a request that was stopped or shed (ids/neighbors empty then).
  Status status = Status::OK();
  /// Client back-off hint (kShedRetryAfterMs), set only with
  /// Status::Unavailable.
  double retry_after_ms = 0.0;
};

struct QueryFrontendOptions {
  /// Executors serving requests, including the calling thread (the pool
  /// spawns num_threads - 1 workers). Must be >= 1.
  size_t num_threads = 1;
  /// Result-cache entry budget per answer kind (range and k-NN entries
  /// are kept in independent stores of this size); 0 disables the cache.
  size_t result_cache_capacity = 64 * 1024;
  /// Admission control: batches admitted concurrently (counting the one
  /// holding the serve mutex *and* the ones queued behind it). When a
  /// caller would push the count past this, the whole batch is shed —
  /// every response carries Status::Unavailable + retry_after_ms and no
  /// engine runs — instead of queueing unboundedly. 0 disables shedding.
  size_t max_inflight_batches = 0;
  /// Forwarded to the shared EngineSuite.
  EngineSuiteConfig suite_config;
};

class QueryFrontend {
 public:
  explicit QueryFrontend(const RankingStore* store,
                         QueryFrontendOptions options = {});

  size_t num_threads() const { return num_threads_; }
  const RankingStore& store() const { return *store_; }
  EngineSuite& suite() { return suite_; }
  uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  size_t result_cache_size() const { return result_cache_.size(); }
  /// Batches currently admitted — running plus queued on the serve mutex
  /// (the gauge max_inflight_batches sheds on; an operator load signal).
  size_t inflight_batches() const { return admission_.inflight(); }

  /// Builds the shared indexes and the per-executor engines behind
  /// `algorithm` (range and/or k-NN use). Idempotent; ServeBatch prepares
  /// implicitly, so calling this is only needed to keep index construction
  /// out of a timed window. kMinimalFV is rejected at serve time (the
  /// oracle is workload-bound and has no place in an online frontend).
  void Prepare(Algorithm algorithm) TOPK_EXCLUDES(serve_mutex_);

  /// Serves `requests` across the pool; response i answers request i.
  /// Per-request tickers (including cache hit/miss/eviction counts) are
  /// merged into `stats` when non-null, phase splits into `phases`. If any
  /// request threw (e.g. kMinimalFV or an unsupported k-NN backend), the
  /// first exception is rethrown after every other request completed.
  std::vector<ServeResponse> ServeBatch(std::span<const ServeRequest> requests,
                                        Statistics* stats = nullptr,
                                        PhaseTimes* phases = nullptr)
      TOPK_EXCLUDES(serve_mutex_);

  /// Generation bump: every currently cached entry becomes unservable.
  /// Thread-safe. This invalidates the *caches* only — the indexes and
  /// engines still bind the store contents from Prepare time, so a
  /// store/partitioning rebuild requires a new QueryFrontend (call this
  /// on the old instance so its entries cannot outlive the handover).
  void InvalidateCaches() {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  struct Executor {
    std::map<Algorithm, std::unique_ptr<QueryEngine>> engines;
    // Per-batch accounting, merged after the join.
    Statistics stats;
    PhaseTimes phases;
    // LinearScan k-NN scratch: the batched validator's query rank table.
    FootruleValidator validator;
  };

  /// Engines + k-NN index handles for `algorithm`; Prepare's body, for
  /// callers already inside the coordinator section.
  void PrepareLocked(Algorithm algorithm) TOPK_REQUIRES(serve_mutex_);
  /// Serves one request on `executor` through the result cache's serve
  /// step. `lone_workers` is every executor slot when the request is its
  /// batch's only one (empty otherwise): the idle slots its F&V range
  /// engine or LinearScan k-NN sweep may split over.
  void ServeOne(Executor* executor, const ServeRequest& request,
                uint64_t epoch, std::span<Executor> lone_workers,
                ServeResponse* response);
  /// The executor's engine for `algorithm`; throws for one never prepared.
  static QueryEngine& EngineFor(Executor* executor, Algorithm algorithm);
  /// Runs the range engine behind `request.algorithm` into `*ids`. The
  /// F&V family polls `control` (a stopped query leaves `*ids` empty and
  /// the serve step maps the stop to a Status) and splits over
  /// `lone_workers`.
  void Run(Executor* executor, const ServeRequest& request,
           QueryControl* control, std::span<Executor> lone_workers,
           std::vector<RankingId>* ids);
  /// k-NN dispatch into `*neighbors`. kLinearScan sweeps the store through
  /// the executor's batched validator, split over `lone_workers`, and
  /// polls `control`; a stopped sweep leaves `*neighbors` empty and the
  /// serve step maps the stop to a Status.
  void Run(Executor* executor, const ServeRequest& request,
           QueryControl* control, std::span<Executor> lone_workers,
           std::vector<Neighbor>* neighbors);
  const RankingStore* store_;
  size_t num_threads_;
  ThreadPool pool_;
  /// Serializes the coordinator methods; held across a whole batch.
  /// Ordered above every cache shard mutex and the pool's queue mutex
  /// (both are leaves acquired under it, never the reverse).
  Mutex serve_mutex_;
  EngineSuite suite_;
  /// Executor slots. Guarded accesses are the coordinator's (reset,
  /// engine setup, post-join merge); during the fan-out each drain task
  /// works through a pointer to its private slot, which is the
  /// one-writer-per-slot discipline the TSan leg checks.
  std::vector<Executor> executors_ TOPK_GUARDED_BY(serve_mutex_);
  ResultCache result_cache_;
  // Index handles are written only inside the coordinator section and
  // read by executor tasks after the fan-out publishes them (the pool's
  // future handshake is the happens-before edge), so they are plain
  // pointers rather than guarded members: a guarded read from a worker
  // would need the coordinator lock the workers must not take.
  const BkTree* bk_tree_ = nullptr;  // k-NN backends, built by Prepare
  const MTree* m_tree_ = nullptr;
  std::atomic<uint64_t> epoch_{0};
  /// Batches inside ServeBatch (includes callers queued on serve_mutex_),
  /// limited to max_inflight_batches.
  AdmissionGate admission_;
};

}  // namespace topk

#endif  // TOPK_SERVE_FRONTEND_H_
