#include "invidx/filter_validate.h"

namespace topk {

FilterValidateEngine::FilterValidateEngine(const RankingStore* store,
                                           const PlainInvertedIndex* index,
                                           FilterValidateOptions options)
    : store_(store), index_(index), options_(options) {
  scratch_.filter.visited.EnsureCapacity(store->size());
  scratch_.validator.EnsureItemCapacity(
      store->empty() ? 0 : static_cast<size_t>(store->max_item()) + 1);
}

std::vector<RankingId> FilterValidateEngine::Query(const PreparedQuery& query,
                                                   RawDistance theta_raw,
                                                   Statistics* stats) {
  TOPK_DCHECK(query.k() == store_->k());
  std::vector<RankingId> results;
  RangeSearch(*store_, index_, query.view(), theta_raw, options_.drop,
              &scratch_, &results, stats);
  return results;
}

}  // namespace topk
