#include "serve/live_frontend.h"

#include <type_traits>

#include "core/types.h"

namespace topk {

LiveFrontend::LiveFrontend(MutableStore* store, LiveFrontendOptions options)
    : store_(store),
      result_cache_(options.result_cache_capacity),
      admission_(options.max_inflight) {
  store_->AddMutationListener([this] { InvalidateCaches(); });
}

template <typename Answer>
Status LiveFrontend::Serve(uint64_t param, const PreparedQuery& query,
                           QueryControl* control, std::vector<Answer>* out,
                           Statistics* stats) {
  const AdmissionGate::Ticket ticket(&admission_);
  // Epoch read FIRST: a mutation racing this call bumps after our read,
  // so the step's insert lands under an already-dead epoch (see header).
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  return result_cache_.Serve(
      kLiveAlgorithm, param, query, epoch, ticket.admitted(), control, out,
      /*hit=*/nullptr, stats, [&](std::vector<Answer>* answer) {
        if constexpr (std::is_same_v<Answer, RankingId>) {
          return store_->RangeQuery(query, static_cast<RawDistance>(param),
                                    control, answer, stats);
        } else {
          return store_->KnnQuery(query, param, control, answer, stats);
        }
      });
}

Status LiveFrontend::ServeRange(const PreparedQuery& query,
                                RawDistance theta_raw, QueryControl* control,
                                std::vector<RankingId>* out,
                                Statistics* stats) {
  return Serve(theta_raw, query, control, out, stats);
}

Status LiveFrontend::ServeKnn(const PreparedQuery& query, size_t j,
                              QueryControl* control, std::vector<Neighbor>* out,
                              Statistics* stats) {
  return Serve(j, query, control, out, stats);
}

}  // namespace topk
