// Online serving frontend: inter-query batched execution with exact
// result/candidate caching.
//
// The harness so far parallelizes *within* one query (ParallelRunner fans
// a query across shards); production query streams are instead dominated
// by many small, often repeated queries. QueryFrontend closes that gap:
//
//   batching      a batch of range/k-NN requests is scheduled across a
//                 reusable ThreadPool as *whole queries* (work sharing:
//                 whichever executor is free grabs the next request; the
//                 calling thread participates). Responses land at the
//                 index of their request, so ordering per request id is
//                 deterministic regardless of execution interleaving.
//   result cache  an exact sharded LRU keyed by the canonical query
//                 sequence + (kind, algorithm, theta or j): an identical
//                 re-issued query is answered without touching any engine.
//   candidate     near-duplicate queries that permute an item set reuse
//   cache         the memoized plain-F&V posting union and skip the
//                 filter phase, paying only validation (exact for
//                 theta_raw < dmax; see serve/candidate_cache.h).
//   generations   InvalidateCaches() bumps an epoch; entries from older
//                 generations can never be served again (lazy erase).
//                 The hook covers the *caches*; the frontend's indexes
//                 and engines bind the store contents at Prepare time,
//                 so a store/partitioning rebuild must construct a new
//                 QueryFrontend (bumping the old one's epoch only
//                 guarantees its caches cannot leak into the new
//                 generation while it is being drained).
//
// Exactness: every served answer is bit-identical to a cold run of the
// requested engine — enforced by the serve differential suites
// (serve_frontend_test, FuzzServeTest in fuzz_differential_test).
//
// Concurrency contract (compiler-enforced where the analysis can see
// it): the coordinator methods (Prepare/ServeBatch/ServeWorkload) run
// one-at-a-time under serve_mutex_ — concurrent callers serialize
// instead of racing — and the per-executor table is TOPK_GUARDED_BY that
// mutex. InvalidateCaches() may be called from any thread at any time.
// A request observes the generation current when its batch started:
// requests racing an invalidation linearize before it. The lock
// hierarchy (serve_mutex_ above the cache shard mutexes, never the
// reverse) is recorded in DESIGN.md "Locking order & epoch contracts".
//
// Engine thread safety: each executor owns a private QueryEngine per
// algorithm (per-engine scratch), all sharing the suite's immutable
// indexes; the coarse index takes a per-executor CoarseScratch. Exceptions
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
#include "harness/runner.h"
#include "harness/thread_pool.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "metric/knn.h"
#include "serve/candidate_cache.h"
#include "serve/fingerprint.h"
#include "serve/result_cache.h"

namespace topk {

class MutableStore;

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
  bool candidate_cache_hit = false;
  /// OK for a served answer; DeadlineExceeded / Aborted / Unavailable
  /// for a request that was stopped or shed (ids/neighbors empty then).
  Status status = Status::OK();
  /// Client back-off hint, set only with Status::Unavailable.
  double retry_after_ms = 0.0;
};

struct QueryFrontendOptions {
  /// Executors serving requests, including the calling thread (the pool
  /// spawns num_threads - 1 workers). Must be >= 1.
  size_t num_threads = 1;
  /// Entry budgets; 0 disables the respective cache. The result budget
  /// applies per answer kind (range and k-NN entries are kept in
  /// independent stores of this size).
  size_t result_cache_capacity = 64 * 1024;
  size_t candidate_cache_capacity = 16 * 1024;
  /// Lock shards per cache (clamped to capacity).
  size_t cache_shards = 8;
  /// Admission control: batches admitted concurrently (counting the one
  /// holding the serve mutex *and* the ones queued behind it). When a
  /// caller would push the count past this, the whole batch is shed —
  /// every response carries Status::Unavailable + retry_after_ms and no
  /// engine runs — instead of queueing unboundedly. 0 disables shedding.
  size_t max_inflight_batches = 0;
  /// Back-off hint stamped on shed responses.
  double shed_retry_after_ms = 50.0;
  /// Forwarded to the shared EngineSuite.
  EngineSuiteConfig suite_config;
};

/// Whether the frontend routes `algorithm` through the candidate cache.
/// The memoized posting union equals F&V's own validation set and
/// undercuts LinearScan's full scan, so skipping their filter is a pure
/// win; every pruning engine (drop/blocked/coarse/adapt) validates fewer
/// candidates than the full union, so reusing it would cost more distance
/// calls than the skipped filter saves — those algorithms rely on the
/// result cache alone.
bool CandidateCacheApplies(Algorithm algorithm);

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
  size_t candidate_cache_size() const { return candidate_cache_.size(); }
  /// Batches currently admitted — running plus queued on the serve mutex
  /// (the gauge max_inflight_batches sheds on; an operator load signal).
  size_t inflight_batches() const {
    return inflight_batches_.load(std::memory_order_acquire);
  }

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

  /// Harness-style measurement loop: serves the whole workload as one
  /// batch of range requests and aggregates the usual RunResult (cache
  /// tickers included in .stats; per-request latencies feed the tail
  /// percentiles).
  RunResult ServeWorkload(Algorithm algorithm,
                          std::span<const PreparedQuery> queries,
                          RawDistance theta_raw) TOPK_EXCLUDES(serve_mutex_);

  /// Generation bump: every currently cached entry becomes unservable.
  /// Thread-safe. This invalidates the *caches* only — the indexes and
  /// engines still bind the store contents from Prepare time, so a
  /// store/partitioning rebuild requires a new QueryFrontend (call this
  /// on the old instance so its entries cannot outlive the handover).
  void InvalidateCaches() {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Subscribes this frontend's cache invalidation to every mutation of
  /// `store` (insert, delete, merge swap): the registered listener calls
  /// InvalidateCaches() under the store's mutex, so the epoch bump is
  /// atomic with the write — a cached answer can never be served across
  /// a mutation it predates. The frontend must outlive the store (the
  /// store holds a raw back-pointer through the listener); the caveat
  /// above still applies — this keeps the *caches* honest, while the
  /// engines keep binding their Prepare-time snapshot.
  void WatchStore(MutableStore* store) TOPK_EXCLUDES(serve_mutex_);

 private:
  struct Executor {
    std::map<Algorithm, std::unique_ptr<QueryEngine>> engines;
    // Per-batch accounting, merged after the join.
    Statistics stats;
    PhaseTimes phases;
    // Kernel scratch: posting-union dedup + the batched validator's
    // query rank table.
    FilterScratch filter;
    FootruleValidator validator;
  };

  std::vector<ServeResponse> ServeBatchLocked(
      std::span<const ServeRequest> requests, Statistics* stats,
      PhaseTimes* phases, std::vector<double>* latencies)
      TOPK_REQUIRES(serve_mutex_);
  /// Engines + k-NN index handles for `algorithm` (no candidate-path
  /// index; ServeBatch binds that only when a range request needs it).
  void PrepareEngines(Algorithm algorithm) TOPK_REQUIRES(serve_mutex_);
  /// Prepare's body, for callers already inside the coordinator section.
  void PrepareLocked(Algorithm algorithm) TOPK_REQUIRES(serve_mutex_);
  /// Shed path: stamps every response Unavailable with the retry hint,
  /// ticking kLoadShed per request; no engine, cache, or pool touched.
  std::vector<ServeResponse> ShedBatch(std::span<const ServeRequest> requests,
                                       Statistics* stats) const;
  void ServeOne(Executor* executor, const ServeRequest& request,
                uint64_t epoch, ServeResponse* response);
  std::vector<RankingId> ServeRange(Executor* executor,
                                    const ServeRequest& request,
                                    uint64_t epoch, ServeResponse* response,
                                    QueryControl* control);
  std::vector<RankingId> RunEngine(Executor* executor,
                                   const ServeRequest& request);
  /// k-NN dispatch. kLinearScan sweeps the store through the executor's
  /// batched validator and polls `control`; a stopped sweep returns
  /// empty and the caller maps the stop to a Status.
  std::vector<Neighbor> ServeKnn(Executor* executor,
                                 const ServeRequest& request,
                                 QueryControl* control);
  /// The deduplicated, ascending union of the query items' posting lists
  /// (the kernel FilterPhase plus a sort for the canonical cache form).
  std::vector<RankingId> PostingUnion(Executor* executor,
                                      const PreparedQuery& query);
  /// Validates `candidates` (ascending) against theta through the
  /// executor's batched validator, ticking the same counters a plain
  /// validate phase would.
  std::vector<RankingId> ValidateCandidates(
      Executor* executor, std::span<const RankingId> candidates,
      const PreparedQuery& query, RawDistance theta_raw,
      QueryControl* control = nullptr) const;

  const RankingStore* store_;
  QueryFrontendOptions options_;
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
  CandidateCache candidate_cache_;
  // Index handles are written only inside the coordinator section and
  // read by executor tasks after the fan-out publishes them (the pool's
  // future handshake is the happens-before edge), so they are plain
  // pointers rather than guarded members: a guarded read from a worker
  // would need the coordinator lock the workers must not take.
  const PlainInvertedIndex* plain_index_ = nullptr;  // set on first prepare
  const BkTree* bk_tree_ = nullptr;                  // k-NN backends,
  const MTree* m_tree_ = nullptr;                    // built by Prepare
  const CoarseIndex* coarse_index_ = nullptr;
  std::atomic<uint64_t> epoch_{0};
  /// Batches admitted and not yet finished (includes callers queued on
  /// serve_mutex_) — the admission-control gauge ServeBatch sheds on.
  std::atomic<size_t> inflight_batches_{0};
};

}  // namespace topk

#endif  // TOPK_SERVE_FRONTEND_H_
