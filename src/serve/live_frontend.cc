#include "serve/live_frontend.h"

#include <type_traits>

#include "core/types.h"

namespace topk {

template <typename Answer>
Status LiveFrontend::Serve(uint64_t param, const PreparedQuery& query,
                           QueryControl* control, std::vector<Answer>* out,
                           Statistics* stats) {
  const AdmissionGate::Ticket ticket(&admission_);
  if (!ticket.admitted()) {
    out->clear();
    return ShedStatus(stats);
  }
  if constexpr (std::is_same_v<Answer, RankingId>) {
    return store_->RangeQuery(query, static_cast<RawDistance>(param), control,
                              out, stats);
  } else {
    return store_->KnnQuery(query, param, control, out, stats);
  }
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
