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
  std::vector<RankingId> results;
  Query(query, theta_raw, &results, stats, nullptr);
  return results;
}

bool FilterValidateEngine::Query(const PreparedQuery& query,
                                 RawDistance theta_raw,
                                 std::vector<RankingId>* out,
                                 Statistics* stats, QueryControl* control,
                                 const RangeSplit* split) {
  TOPK_DCHECK(query.k() == store_->k());
  return RangeSearch(*store_, index_, query.view(), theta_raw, options_.drop,
                     &scratch_, out, stats, control, KeepAllRows{}, split);
}

}  // namespace topk
