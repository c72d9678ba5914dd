#include "serve/live_frontend.h"

#include <utility>

#include "core/types.h"

namespace topk {

namespace {

/// RAII admission slot: the gauge counts every query inside a Serve*
/// call, shed or served, so the decrement must be unconditional.
struct InflightGuard {
  std::atomic<size_t>* gauge;
  ~InflightGuard() { gauge->fetch_sub(1, std::memory_order_acq_rel); }
};

}  // namespace

LiveFrontend::LiveFrontend(MutableStore* store, LiveFrontendOptions options)
    : store_(store),
      options_(options),
      result_cache_(options.result_cache_capacity, options.cache_shards) {
  store_->AddMutationListener([this] { InvalidateCaches(); });
}

Status LiveFrontend::ServeRange(const PreparedQuery& query,
                                RawDistance theta_raw, QueryControl* control,
                                std::vector<RankingId>* out,
                                Statistics* stats) {
  out->clear();
  InflightGuard guard{&inflight_};
  const size_t inflight = inflight_.fetch_add(1, std::memory_order_acq_rel);
  // Epoch read FIRST: a mutation racing this call bumps after our read,
  // so the insert below lands under an already-dead epoch (see header).
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  const bool cacheable = result_cache_.enabled();
  ResultCacheKey key{};
  if (cacheable) {
    key = MakeResultCacheKey(ServeKind::kRange, kLiveAlgorithm, theta_raw,
                             query);
    if (result_cache_.LookupRange(key, epoch, out, stats)) {
      return Status::OK();
    }
  }
  // Shed AFTER the cache attempt: a hit costs less than the rejection
  // it would replace, and it never touches the (overloaded) store.
  if (options_.max_inflight > 0 && inflight >= options_.max_inflight) {
    AddTicker(stats, Ticker::kLoadShed);
    return Status::Unavailable("live frontend at capacity; retry after back-off");
  }
  Status status = store_->RangeQuery(query, theta_raw, control, out, stats);
  if (!status.ok()) {
    out->clear();
    return status;  // never cache a non-answer
  }
  if (cacheable) result_cache_.InsertRange(key, epoch, *out, stats);
  return Status::OK();
}

Status LiveFrontend::ServeKnn(const PreparedQuery& query, size_t j,
                              QueryControl* control, std::vector<Neighbor>* out,
                              Statistics* stats) {
  out->clear();
  InflightGuard guard{&inflight_};
  const size_t inflight = inflight_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  const bool cacheable = result_cache_.enabled();
  ResultCacheKey key{};
  if (cacheable) {
    key = MakeResultCacheKey(ServeKind::kKnn, kLiveAlgorithm, j, query);
    if (result_cache_.LookupKnn(key, epoch, out, stats)) {
      return Status::OK();
    }
  }
  if (options_.max_inflight > 0 && inflight >= options_.max_inflight) {
    AddTicker(stats, Ticker::kLoadShed);
    return Status::Unavailable("live frontend at capacity; retry after back-off");
  }
  Status status = store_->KnnQuery(query, j, control, out, stats);
  if (!status.ok()) {
    out->clear();
    return status;
  }
  if (cacheable) result_cache_.InsertKnn(key, epoch, *out, stats);
  return Status::OK();
}

}  // namespace topk
