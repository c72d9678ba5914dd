// Filter & Validate (F&V) query processing over the plain inverted index
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

class FilterValidateEngine {
 public:
  /// `store` and `index` must outlive the engine.
  FilterValidateEngine(const RankingStore* store,
                       const PlainInvertedIndex* index,
                       FilterValidateOptions options = {});

  /// All rankings within raw distance `theta_raw` of the query, in
  /// ascending id order.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr);

  /// Appends the same answer to `*out` and returns true, or returns false
  /// with `*out` unchanged when `control` stopped the query. `split`
  /// (optional) runs the union and validate as id-window parts on its
  /// workers (kernel/range_search.h); the answer and the summed tickers
  /// are the serial ones.
  bool Query(const PreparedQuery& query, RawDistance theta_raw,
             std::vector<RankingId>* out, Statistics* stats,
             QueryControl* control, const RangeSplit* split = nullptr);

  /// This engine's scratch, lent as a split's worker slot while the
  /// engine itself is idle.
  RangeScratch* scratch() { return &scratch_; }

 private:
  const RankingStore* store_;
  const PlainInvertedIndex* index_;
  FilterValidateOptions options_;
  RangeScratch scratch_;
};

}  // namespace topk

#endif  // TOPK_INVIDX_FILTER_VALIDATE_H_
