// Filter & Validate (F&V) query processing over an inverted index
// (Section 4), optionally with posting-list dropping (F&V+Drop,
// Section 6.1).
//
// The engine is a thin binding of the kernel RangeSearch
// (kernel/range_search.h) to one store, one index and one drop mode:
// FilterPhase merges the query items' posting lists into a deduplicated
// candidate set, the batched FootruleValidator computes exact distances
// for the whole candidate span, and at theta >= dmax the full id domain
// is validated instead (the union misses rankings disjoint from the
// query). The engine owns the per-query scratch, so one instance serves
// any number of sequential queries without allocation churn.
//
// One class template over the index type: FilterValidateEngine binds the
// plain CSR index, storage::CompressedFilterValidateEngine
// (storage/compressed_index.h) the compressed one. The only moving part
// between them is where the posting bytes come from; answers and every
// ticker but kBlocksDecoded are bit-identical.

#ifndef TOPK_INVIDX_FILTER_VALIDATE_H_
#define TOPK_INVIDX_FILTER_VALIDATE_H_

#include <vector>

#include "core/deadline.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/range_search.h"

namespace topk {

struct FilterValidateOptions {
  DropMode drop = DropMode::kNone;
};

template <typename Index>
class BasicFilterValidateEngine {
 public:
  /// `store` and `index` must outlive the engine.
  BasicFilterValidateEngine(const RankingStore* store, const Index* index,
                            FilterValidateOptions options = {})
      : store_(store), index_(index), options_(options) {
    scratch_.filter.visited.EnsureCapacity(store->size());
    scratch_.validator.EnsureItemCapacity(
        store->empty() ? 0 : static_cast<size_t>(store->max_item()) + 1);
  }

  /// All rankings within raw distance `theta_raw` of the query, in
  /// ascending id order.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr) {
    std::vector<RankingId> results;
    Query(query, theta_raw, &results, stats, nullptr);
    return results;
  }

  /// Appends the same answer to `*out` and returns true, or returns false
  /// with `*out` unchanged when `control` stopped the query. `split`
  /// (optional) runs the union and validate as id-window parts on its
  /// workers (kernel/range_search.h); the answer and the summed tickers
  /// are the serial ones.
  bool Query(const PreparedQuery& query, RawDistance theta_raw,
             std::vector<RankingId>* out, Statistics* stats,
             QueryControl* control, const RangeSplit* split = nullptr) {
    TOPK_DCHECK(query.k() == store_->k());
    return RangeSearch(*store_, index_, query.view(), theta_raw,
                       options_.drop, &scratch_, out, stats, control,
                       KeepAllRows{}, split);
  }

  /// This engine's scratch, lent as a split's worker slot while the
  /// engine itself is idle.
  RangeScratch* scratch() { return &scratch_; }

 private:
  const RankingStore* store_;
  const Index* index_;
  FilterValidateOptions options_;
  RangeScratch scratch_;
};

using FilterValidateEngine = BasicFilterValidateEngine<PlainInvertedIndex>;

}  // namespace topk

#endif  // TOPK_INVIDX_FILTER_VALIDATE_H_
