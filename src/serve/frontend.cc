#include "serve/frontend.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/mutex.h"

namespace topk {

QueryFrontend::QueryFrontend(const RankingStore* store,
                             QueryFrontendOptions options)
    : store_(store),
      num_threads_(std::max<size_t>(options.num_threads, 1)),
      pool_(num_threads_ - 1),
      suite_(store, options.suite_config, PoolRunner(&pool_)),
      executors_(num_threads_),
      result_cache_(options.result_cache_capacity),
      admission_(options.max_inflight_batches) {}

void QueryFrontend::PrepareLocked(Algorithm algorithm) {
  if (algorithm == Algorithm::kMinimalFV) return;  // rejected at serve time
  if (!executors_[0].engines.contains(algorithm)) {
    // The first MakeEngine builds the shared indexes; the remaining
    // engines are thin per-executor adapters over them. The suite's lazy
    // index construction is not thread-safe, which is exactly why engines
    // are made here and not inside ServeOne; a BK-tree or coarse build
    // splits its own work over the pool, which the coordinator owns here.
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
    default:
      break;
  }
}

void QueryFrontend::Prepare(Algorithm algorithm) {
  MutexLock lock(&serve_mutex_);
  PrepareLocked(algorithm);
}

std::vector<ServeResponse> QueryFrontend::ServeBatch(
    std::span<const ServeRequest> requests, Statistics* stats,
    PhaseTimes* phases) {
  // Admission BEFORE the coordinator mutex: with the limit reached the
  // caller is told to back off immediately instead of queueing on the
  // lock for an unbounded wait (that queue is invisible to clients and
  // grows without bound under overload — shedding keeps the tail finite).
  // A shed batch touches no engine, cache or pool.
  const AdmissionGate::Ticket ticket(&admission_);
  if (!ticket.admitted()) {
    std::vector<ServeResponse> shed(requests.size());
    for (ServeResponse& response : shed) {
      response.status = ShedStatus(stats);
      response.retry_after_ms = kShedRetryAfterMs;
    }
    return shed;
  }
  MutexLock lock(&serve_mutex_);
  for (const ServeRequest& request : requests) {
    PrepareLocked(request.algorithm);
  }

  std::vector<ServeResponse> responses(requests.size());
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
      ServeOne(&executor_slots[slot], requests[i], epoch, lone_workers,
               &responses[i]);
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
  // peers) fails fast, except through the result cache.
  const auto run = [&](auto* answer) {
    Run(executor, request, &control, lone_workers, answer);
    return Status::OK();
  };
  const auto algorithm = static_cast<uint32_t>(request.algorithm);
  response->status =
      request.kind == ServeKind::kRange
          ? result_cache_.Serve(algorithm, request.theta_raw, *request.query,
                                epoch, &control, &response->ids,
                                &response->result_cache_hit, &executor->stats,
                                run)
          : result_cache_.Serve(algorithm, request.j, *request.query, epoch,
                                &control, &response->neighbors,
                                &response->result_cache_hit, &executor->stats,
                                run);
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

void QueryFrontend::Run(Executor* executor, const ServeRequest& request,
                        QueryControl* control,
                        std::span<Executor> lone_workers,
                        std::vector<RankingId>* ids) {
  QueryEngine& engine = EngineFor(executor, request.algorithm);
  if (CoarseEngine* const coarse = engine.coarse()) {
    *ids = coarse->index().Query(*request.query, request.theta_raw,
                                 coarse->scratch(), &executor->stats,
                                 &executor->phases, control);
    return;
  }
  FilterValidateEngine* const fv = engine.filter_validate();
  if (fv == nullptr) {
    *ids = engine.Query(0, *request.query, request.theta_raw,
                        &executor->stats, &executor->phases);
    return;
  }
  std::vector<SplitWorker<RangeScratch>> workers;
  workers.reserve(lone_workers.size());
  for (Executor& worker : lone_workers) {
    workers.push_back(
        {EngineFor(&worker, request.algorithm).filter_validate()->scratch(),
         &worker.stats});
  }
  const RangeSplit split = PoolSplit<RangeScratch>(&pool_, workers);
  fv->Query(*request.query, request.theta_raw, ids, &executor->stats,
            control, workers.empty() ? nullptr : &split);
}

void QueryFrontend::Run(Executor* executor, const ServeRequest& request,
                        QueryControl* control,
                        std::span<Executor> lone_workers,
                        std::vector<Neighbor>* neighbors) {
  Statistics* stats = &executor->stats;
  switch (request.algorithm) {
    case Algorithm::kLinearScan: {
      std::vector<SplitWorker<FootruleValidator>> workers;
      workers.reserve(lone_workers.size());
      for (Executor& worker : lone_workers) {
        workers.push_back({&worker.validator, &worker.stats});
      }
      const KnnSplit split = PoolSplit<FootruleValidator>(&pool_, workers);
      *neighbors = LinearScanKnnBatched(*store_, *request.query, request.j,
                                        &executor->validator, stats, control,
                                        workers.empty() ? nullptr : &split);
      return;
    }
    case Algorithm::kBkTree:
      *neighbors = BkTreeKnn(*bk_tree_, *request.query, request.j, stats);
      return;
    case Algorithm::kMTree:
      *neighbors = MTreeKnn(*m_tree_, *request.query, request.j, stats);
      return;
    case Algorithm::kCoarse: {
      CoarseEngine* const coarse =
          EngineFor(executor, Algorithm::kCoarse).coarse();
      *neighbors = coarse->index().Knn(*request.query, request.j,
                                       coarse->scratch(), stats, control);
      return;
    }
    default:
      throw std::invalid_argument(
          std::string("k-NN backend not servable through the frontend: ") +
          AlgorithmName(request.algorithm));
  }
}

}  // namespace topk
