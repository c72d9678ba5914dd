#include "serve/frontend.h"

#include <algorithm>
#include <exception>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/mutex.h"
#include "mutate/mutable_store.h"

namespace topk {

namespace {

/// Stopped control -> caller-facing status + the deadline ticker (the
/// counter covers cancellations too: both mean "stopped by request").
Status StopStatus(const QueryControl& control, Statistics* stats) {
  AddTicker(stats, Ticker::kDeadlineExceeded);
  if (control.cancelled()) return Status::Aborted("request cancelled");
  return Status::DeadlineExceeded("request deadline exceeded");
}

}  // namespace

bool CandidateCacheApplies(Algorithm algorithm) {
  return algorithm == Algorithm::kFV || algorithm == Algorithm::kLinearScan;
}

QueryFrontend::QueryFrontend(const RankingStore* store,
                             QueryFrontendOptions options)
    : store_(store),
      options_(options),
      num_threads_(std::max<size_t>(options.num_threads, 1)),
      pool_(num_threads_ - 1),
      suite_(store, options.suite_config),
      executors_(num_threads_),
      result_cache_(options.result_cache_capacity, options.cache_shards),
      candidate_cache_(options.candidate_cache_capacity,
                       options.cache_shards) {}

void QueryFrontend::PrepareEngines(Algorithm algorithm) {
  if (algorithm == Algorithm::kMinimalFV) return;  // rejected at serve time
  if (!executors_[0].engines.contains(algorithm)) {
    // The first MakeEngine builds the shared indexes; the remaining
    // engines are thin per-executor adapters over them. All of this is
    // serial — the suite's lazy index construction is not thread-safe,
    // which is exactly why engines are made here and not inside ServeOne.
    for (Executor& executor : executors_) {
      executor.engines[algorithm] = suite_.MakeEngine(algorithm);
    }
  }
  switch (algorithm) {  // k-NN backends need the raw index handles
    case Algorithm::kBkTree:
      bk_tree_ = &suite_.bk_tree();
      break;
    case Algorithm::kMTree:
      m_tree_ = &suite_.m_tree();
      break;
    case Algorithm::kCoarse:
      coarse_index_ = &suite_.coarse_index();
      break;
    default:
      break;
  }
}

void QueryFrontend::Prepare(Algorithm algorithm) {
  MutexLock lock(&serve_mutex_);
  PrepareLocked(algorithm);
}

void QueryFrontend::WatchStore(MutableStore* store) {
  // The listener body is an atomic epoch bump only — cheap, lock-free,
  // and legal under the store mutex (no lock ordered above the store is
  // taken; the hierarchy in DESIGN.md stays intact).
  store->AddMutationListener([this] { InvalidateCaches(); });
}

void QueryFrontend::PrepareLocked(Algorithm algorithm) {
  PrepareEngines(algorithm);
  // An explicit Prepare means "keep every build out of my timed window",
  // so also bind the candidate-path index when this algorithm can use it.
  // The batch path instead binds it only for *range* requests — a pure
  // k-NN stream never touches the posting union and skips the build.
  if (candidate_cache_.enabled() && CandidateCacheApplies(algorithm) &&
      plain_index_ == nullptr) {
    plain_index_ = &suite_.plain_index();
  }
}

std::vector<ServeResponse> QueryFrontend::ShedBatch(
    std::span<const ServeRequest> requests, Statistics* stats) const {
  std::vector<ServeResponse> responses(requests.size());
  for (ServeResponse& response : responses) {
    response.status =
        Status::Unavailable("frontend at capacity; retry after back-off");
    response.retry_after_ms = options_.shed_retry_after_ms;
  }
  AddTicker(stats, Ticker::kLoadShed, requests.size());
  return responses;
}

std::vector<ServeResponse> QueryFrontend::ServeBatch(
    std::span<const ServeRequest> requests, Statistics* stats,
    PhaseTimes* phases) {
  // Admission BEFORE the coordinator mutex: with the limit reached the
  // caller is told to back off immediately instead of queueing on the
  // lock for an unbounded wait (that queue is invisible to clients and
  // grows without bound under overload — shedding keeps the tail finite).
  struct InflightGuard {
    std::atomic<size_t>* gauge;
    ~InflightGuard() { gauge->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&inflight_batches_};
  const size_t inflight =
      inflight_batches_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.max_inflight_batches > 0 &&
      inflight >= options_.max_inflight_batches) {
    return ShedBatch(requests, stats);
  }
  MutexLock lock(&serve_mutex_);
  return ServeBatchLocked(requests, stats, phases, nullptr);
}

std::vector<ServeResponse> QueryFrontend::ServeBatchLocked(
    std::span<const ServeRequest> requests, Statistics* stats,
    PhaseTimes* phases, std::vector<double>* latencies) {
  for (const ServeRequest& request : requests) {
    PrepareEngines(request.algorithm);
    if (request.kind == ServeKind::kRange && candidate_cache_.enabled() &&
        CandidateCacheApplies(request.algorithm) && plain_index_ == nullptr) {
      plain_index_ = &suite_.plain_index();
    }
  }

  std::vector<ServeResponse> responses(requests.size());
  if (latencies != nullptr) latencies->assign(requests.size(), 0.0);
  for (Executor& executor : executors_) {
    executor.stats.Reset();
    executor.phases = PhaseTimes{};
  }
  // Requests in this batch observe the generation current at batch start;
  // an InvalidateCaches racing the batch linearizes after these requests.
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);

  // Work sharing as in ThreadPool::ParallelFor, but with an explicit
  // executor id so every in-flight request has private engines/scratch.
  std::atomic<size_t> next{0};
  Mutex error_mutex;
  std::exception_ptr error;
  // The drain tasks reach their slot through this pointer, not through
  // the guarded executors_ member: the per-slot discipline (task e owns
  // slot e for the whole fan-out) is what makes that sound, and the
  // coordinator only touches the slots again after the join below.
  Executor* const executor_slots = executors_.data();
  auto drain = [&, executor_slots](size_t e) {
    Executor& executor = executor_slots[e];
    for (size_t i; (i = next.fetch_add(1)) < requests.size();) {
      Stopwatch watch;
      try {
        ServeOne(&executor, requests[i], epoch, &responses[i]);
      } catch (...) {
        // First exception wins; the batch still drains so the frontend
        // (and its pool) stays usable after the rethrow below.
        MutexLock error_lock(&error_mutex);
        if (!error) error = std::current_exception();
      }
      if (latencies != nullptr) (*latencies)[i] = watch.ElapsedMillis();
    }
  };
  const size_t helpers =
      requests.empty() ? 0 : std::min(num_threads_ - 1, requests.size() - 1);
  std::vector<std::future<void>> pending;
  pending.reserve(helpers);
  for (size_t e = 0; e < helpers; ++e) {
    pending.push_back(pool_.Submit([&drain, e] { drain(e + 1); }));
  }
  drain(0);
  for (std::future<void>& f : pending) f.get();

  // Per-executor accounting merges only after the join (the future
  // handshake is the happens-before edge), mirroring ParallelRunner.
  for (const Executor& executor : executors_) {
    if (stats != nullptr) stats->MergeFrom(executor.stats);
    if (phases != nullptr) phases->MergeFrom(executor.phases);
  }
  if (error) std::rethrow_exception(error);
  return responses;
}

void QueryFrontend::ServeOne(Executor* executor, const ServeRequest& request,
                             uint64_t epoch, ServeResponse* response) {
  if (request.query == nullptr) {
    throw std::invalid_argument("ServeRequest.query must not be null");
  }
  if (request.query->k() != store_->k()) {
    throw std::invalid_argument("query size does not match the store's k");
  }
  QueryControl control(request.deadline, request.cancel);
  // A request already past its deadline (it sat behind slower batch
  // peers) fails fast — except through the result cache below, whose
  // lookup is cheaper than building the rejection.
  const bool cacheable = result_cache_.enabled();
  if (!cacheable && control.ShouldStop()) {
    response->status = StopStatus(control, &executor->stats);
    return;
  }
  if (cacheable) {
    const ResultCacheKey key =
        request.kind == ServeKind::kRange
            ? MakeResultCacheKey(ServeKind::kRange,
                                 static_cast<uint32_t>(request.algorithm),
                                 request.theta_raw, *request.query)
            : MakeResultCacheKey(ServeKind::kKnn,
                                 static_cast<uint32_t>(request.algorithm),
                                 request.j, *request.query);
    const bool hit =
        request.kind == ServeKind::kRange
            ? result_cache_.LookupRange(key, epoch, &response->ids,
                                        &executor->stats)
            : result_cache_.LookupKnn(key, epoch, &response->neighbors,
                                      &executor->stats);
    if (hit) {
      response->result_cache_hit = true;
      return;
    }
    if (control.ShouldStop()) {
      response->status = StopStatus(control, &executor->stats);
      return;
    }
    if (request.kind == ServeKind::kRange) {
      response->ids = ServeRange(executor, request, epoch, response, &control);
    } else {
      response->neighbors = ServeKnn(executor, request, &control);
    }
    // A stopped request discards its partial answer and is NEVER
    // cached: a truncated result under an OK-looking cache entry would
    // poison every later identical query.
    if (control.ShouldStop()) {
      response->ids.clear();
      response->neighbors.clear();
      response->candidate_cache_hit = false;
      response->status = StopStatus(control, &executor->stats);
      return;
    }
    if (request.kind == ServeKind::kRange) {
      result_cache_.InsertRange(key, epoch, response->ids, &executor->stats);
    } else {
      result_cache_.InsertKnn(key, epoch, response->neighbors,
                              &executor->stats);
    }
    return;
  }
  if (request.kind == ServeKind::kRange) {
    response->ids = ServeRange(executor, request, epoch, response, &control);
  } else {
    response->neighbors = ServeKnn(executor, request, &control);
  }
  if (control.ShouldStop()) {
    response->ids.clear();
    response->neighbors.clear();
    response->candidate_cache_hit = false;
    response->status = StopStatus(control, &executor->stats);
  }
}

std::vector<RankingId> QueryFrontend::ServeRange(Executor* executor,
                                                 const ServeRequest& request,
                                                 uint64_t epoch,
                                                 ServeResponse* response,
                                                 QueryControl* control) {
  const PreparedQuery& query = *request.query;
  // The candidate union is only a provable superset below dmax (a
  // disjoint ranking sits at exactly dmax and appears in no posting
  // list), and only a *profitable* one for union-validating engines (see
  // CandidateCacheApplies); otherwise the engine path answers directly.
  const bool candidates_applicable =
      candidate_cache_.enabled() && CandidateCacheApplies(request.algorithm) &&
      request.theta_raw < MaxDistance(store_->k());
  if (!candidates_applicable) return RunEngine(executor, request);

  const CandidateCacheKey key = MakeCandidateCacheKey(query);
  CandidateList memoized;
  if (candidate_cache_.Lookup(key, epoch, &memoized, &executor->stats)) {
    // Filter phase skipped entirely: only re-validate the memoized
    // superset against this query's exact distances.
    response->candidate_cache_hit = true;
    Stopwatch watch;
    std::vector<RankingId> results = ValidateCandidates(
        executor, *memoized, query, request.theta_raw, control);
    executor->phases.validate_ms += watch.ElapsedMillis();
    return results;
  }
  // Miss: for the union-validating algorithms the filter output IS the
  // posting union, so compute it once, validate it directly (this is
  // exactly plain F&V — exact below dmax), and memoize it. Running the
  // engine and recomputing the union would filter twice. Both phases are
  // the same kernel calls FilterValidateEngine makes (FilterPhase + the
  // batched validator); the FuzzServe differential keeps them
  // bit-identical to the engines.
  Stopwatch watch;
  std::vector<RankingId> candidates = PostingUnion(executor, query);
  executor->phases.filter_ms += watch.ElapsedMillis();
  watch.Restart();
  std::vector<RankingId> results = ValidateCandidates(
      executor, candidates, query, request.theta_raw, control);
  executor->phases.validate_ms += watch.ElapsedMillis();
  // The memoized union is still exact when the query stopped mid-
  // validation (the filter phase completed to produce it), so inserting
  // it is safe — only the *answer* is withheld by the caller.
  candidate_cache_.Insert(key, epoch, std::move(candidates),
                          &executor->stats);
  return results;
}

std::vector<RankingId> QueryFrontend::RunEngine(Executor* executor,
                                                const ServeRequest& request) {
  const auto it = executor->engines.find(request.algorithm);
  if (it == executor->engines.end()) {
    throw std::invalid_argument(
        std::string("algorithm not servable through the frontend: ") +
        AlgorithmName(request.algorithm));
  }
  return it->second->Query(0, *request.query, request.theta_raw,
                           &executor->stats, &executor->phases);
}

std::vector<Neighbor> QueryFrontend::ServeKnn(Executor* executor,
                                              const ServeRequest& request,
                                              QueryControl* control) {
  Statistics* stats = &executor->stats;
  switch (request.algorithm) {
    case Algorithm::kLinearScan:
      return LinearScanKnnBatched(*store_, *request.query, request.j,
                                  &executor->validator, stats, control);
    case Algorithm::kBkTree:
      return BkTreeKnn(*bk_tree_, *request.query, request.j, stats);
    case Algorithm::kMTree:
      return MTreeKnn(*m_tree_, *request.query, request.j, stats);
    case Algorithm::kCoarse:
      return coarse_index_->Knn(*request.query, request.j, stats);
    default:
      throw std::invalid_argument(
          std::string("k-NN backend not servable through the frontend: ") +
          AlgorithmName(request.algorithm));
  }
}

std::vector<RankingId> QueryFrontend::PostingUnion(
    Executor* executor, const PreparedQuery& query) {
  // DropMode::kNone accesses every list, so the union depends only on the
  // item set (the candidate-cache key); theta is irrelevant to it.
  FilterPhase(*plain_index_, query.view(), /*theta_raw=*/0, DropMode::kNone,
              store_->size(), &executor->filter, &executor->stats);
  std::vector<RankingId>& out = executor->filter.candidates;
  std::sort(out.begin(), out.end());
  return out;  // copies out of the reusable scratch
}

std::vector<RankingId> QueryFrontend::ValidateCandidates(
    Executor* executor, std::span<const RankingId> candidates,
    const PreparedQuery& query, RawDistance theta_raw,
    QueryControl* control) const {
  Statistics* stats = &executor->stats;
  std::vector<RankingId> results;
  AddTicker(stats, Ticker::kCandidates, candidates.size());
  executor->validator.BindQuery(query.view(),
                                static_cast<size_t>(store_->max_item()) + 1);
  executor->validator.ValidateSpan(*store_, candidates, theta_raw, &results,
                                   stats, control);
  AddTicker(stats, Ticker::kResults, results.size());
  return results;
}

RunResult QueryFrontend::ServeWorkload(Algorithm algorithm,
                                       std::span<const PreparedQuery> queries,
                                       RawDistance theta_raw) {
  // Workloads count toward the admission gauge (they hold the
  // coordinator for a long time) but are never shed themselves — the
  // measurement loop is operator-driven, not client traffic.
  struct InflightGuard {
    std::atomic<size_t>* gauge;
    ~InflightGuard() { gauge->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&inflight_batches_};
  inflight_batches_.fetch_add(1, std::memory_order_acq_rel);
  MutexLock lock(&serve_mutex_);
  PrepareLocked(algorithm);
  std::vector<ServeRequest> requests;
  requests.reserve(queries.size());
  for (const PreparedQuery& query : queries) {
    requests.push_back(ServeRequest::Range(algorithm, query, theta_raw));
  }

  RunResult result;
  result.num_queries = queries.size();
  result.num_threads = num_threads_;
  std::vector<double> latencies;
  Stopwatch total;
  const std::vector<ServeResponse> responses =
      ServeBatchLocked(requests, &result.stats, &result.phases, &latencies);
  result.wall_ms = total.ElapsedMillis();
  for (const ServeResponse& response : responses) {
    result.total_results += response.ids.size();
    for (const RankingId id : response.ids) {
      result.result_hash += MixId64(id);
    }
  }
  FinalizeLatencyStats(&latencies, &result);
  return result;
}

}  // namespace topk
