#include "serve/frontend.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/mutex.h"
#include "mutate/mutable_store.h"

namespace topk {

QueryFrontend::QueryFrontend(const RankingStore* store,
                             QueryFrontendOptions options)
    : store_(store),
      options_(options),
      num_threads_(std::max<size_t>(options.num_threads, 1)),
      pool_(num_threads_ - 1),
      suite_(store, options.suite_config),
      executors_(num_threads_),
      result_cache_(options.result_cache_capacity, options.cache_shards) {}

void QueryFrontend::PrepareLocked(Algorithm algorithm) {
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
    PrepareLocked(request.algorithm);
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

  // Whole requests are work-shared across the pool; ParallelFor's slot
  // is the executor id, so every in-flight request has private
  // engines/scratch. The tasks reach their slot through this pointer, not
  // through the guarded executors_ member: the per-slot discipline (slot
  // e runs one request at a time) is what makes that sound, and the
  // coordinator only touches the slots again after the join below.
  Executor* const executor_slots = executors_.data();
  // A lone request leaves every other executor idle, so it may lend all
  // of their slots to an id split of its own; a larger batch keeps them
  // busy with whole requests instead.
  const std::span<Executor> lone_workers =
      requests.size() == 1 && num_threads_ > 1
          ? std::span<Executor>(executor_slots, num_threads_)
          : std::span<Executor>();
  std::exception_ptr error;
  try {
    pool_.ParallelFor(requests.size(), [&](size_t slot, size_t i) {
      Stopwatch watch;
      ServeOne(&executor_slots[slot], requests[i], epoch, lone_workers,
               &responses[i]);
      if (latencies != nullptr) (*latencies)[i] = watch.ElapsedMillis();
    });
  } catch (...) {
    // ParallelFor drained every other request before rethrowing the first
    // exception, so the frontend (and its pool) stays usable after the
    // rethrow below.
    error = std::current_exception();
  }

  // Per-executor accounting merges only after the join (the future
  // handshake is the happens-before edge).
  for (const Executor& executor : executors_) {
    if (stats != nullptr) stats->MergeFrom(executor.stats);
    if (phases != nullptr) phases->MergeFrom(executor.phases);
  }
  if (error) std::rethrow_exception(error);
  return responses;
}

void QueryFrontend::ServeOne(Executor* executor, const ServeRequest& request,
                             uint64_t epoch, std::span<Executor> lone_workers,
                             ServeResponse* response) {
  if (request.query == nullptr) {
    throw std::invalid_argument("ServeRequest.query must not be null");
  }
  if (request.query->k() != store_->k()) {
    throw std::invalid_argument("query size does not match the store's k");
  }
  QueryControl control(request.deadline, request.cancel);
  // A request already past its deadline (it sat behind slower batch
  // peers) fails fast — except through the result cache, whose lookup is
  // cheaper than building the rejection.
  const bool cacheable = result_cache_.enabled();
  ResultCacheKey key{};
  if (cacheable) {
    key = MakeResultCacheKey(request.kind,
                             static_cast<uint32_t>(request.algorithm),
                             request.kind == ServeKind::kRange
                                 ? request.theta_raw
                                 : request.j,
                             *request.query);
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
  }
  if (control.ShouldStop()) {
    response->status = StopStatus(control, &executor->stats);
    return;
  }
  if (request.kind == ServeKind::kRange) {
    response->ids = ServeRange(executor, request, &control, lone_workers);
  } else {
    response->neighbors = ServeKnn(executor, request, &control, lone_workers);
  }
  // A stopped request discards its partial answer and is NEVER cached: a
  // truncated result under an OK-looking cache entry would poison every
  // later identical query.
  if (control.ShouldStop()) {
    response->ids.clear();
    response->neighbors.clear();
    response->status = StopStatus(control, &executor->stats);
    return;
  }
  if (!cacheable) return;
  if (request.kind == ServeKind::kRange) {
    result_cache_.InsertRange(key, epoch, response->ids, &executor->stats);
  } else {
    result_cache_.InsertKnn(key, epoch, response->neighbors,
                            &executor->stats);
  }
}

QueryEngine& QueryFrontend::EngineFor(Executor* executor,
                                      Algorithm algorithm) {
  const auto it = executor->engines.find(algorithm);
  if (it == executor->engines.end()) {
    throw std::invalid_argument(
        std::string("algorithm not servable through the frontend: ") +
        AlgorithmName(algorithm));
  }
  return *it->second;
}

std::vector<RankingId> QueryFrontend::ServeRange(
    Executor* executor, const ServeRequest& request, QueryControl* control,
    std::span<Executor> lone_workers) {
  QueryEngine& engine = EngineFor(executor, request.algorithm);
  FilterValidateEngine* const fv = engine.filter_validate();
  if (fv == nullptr) {
    return engine.Query(0, *request.query, request.theta_raw,
                        &executor->stats, &executor->phases);
  }
  std::vector<SplitWorker<RangeScratch>> workers;
  workers.reserve(lone_workers.size());
  for (Executor& worker : lone_workers) {
    workers.push_back(
        {EngineFor(&worker, request.algorithm).filter_validate()->scratch(),
         &worker.stats});
  }
  const RangeSplit split = PoolSplit<RangeScratch>(&pool_, workers);
  std::vector<RankingId> ids;
  fv->Query(*request.query, request.theta_raw, &ids, &executor->stats,
            control, workers.empty() ? nullptr : &split);
  return ids;
}

std::vector<Neighbor> QueryFrontend::ServeKnn(
    Executor* executor, const ServeRequest& request, QueryControl* control,
    std::span<Executor> lone_workers) {
  Statistics* stats = &executor->stats;
  switch (request.algorithm) {
    case Algorithm::kLinearScan: {
      std::vector<SplitWorker<FootruleValidator>> workers;
      workers.reserve(lone_workers.size());
      for (Executor& worker : lone_workers) {
        workers.push_back({&worker.validator, &worker.stats});
      }
      const KnnSplit split = PoolSplit<FootruleValidator>(&pool_, workers);
      return LinearScanKnnBatched(*store_, *request.query, request.j,
                                  &executor->validator, stats, control,
                                  workers.empty() ? nullptr : &split);
    }
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
