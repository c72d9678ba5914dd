// Exact range search over one indexed segment: the single owner of the
// filter -> validate pipeline (Section 4) and of the theta >= dmax rule.
//
// Every serving path that answers a range query by posting-list union —
// FilterValidateEngine, CompressedFilterValidateEngine, ResilientReader
// (both tiers) and each MutableStore segment — calls RangeSearch, so the
// decision of which rows get validated exists exactly once:
//
//  * no index, or theta >= dmax: the full id domain. A ranking that
//    shares no item with the query sits at exactly dmax and appears in no
//    posting list, so from dmax on the union is no longer a superset of
//    the answer. ValidateAll sweeps every row; with a keep-predicate the
//    kept rows go through ValidateSpan instead.
//  * otherwise: FilterPhase with the caller's DropMode (Lemma 2 for the
//    F&V+Drop modes), the keep-predicate's rejects dropped BEFORE
//    validation (a tombstoned row never costs a distance call), then
//    ValidateSpan and a merge of the accepted ids' ascending runs.
//
// Result order without a sort: the union emits ids in first-encounter
// order, and within one id-sorted posting list the ids it adds ascend, so
// the accepted ids form at most one ascending run per contributing list
// (1.0-1.4 runs on average for F&V+Drop on the 1M NYT-like corpus).
// MergeAscendingRuns merges them pairwise in O(n log runs) through
// RangeScratch's grow-only buffer, touching only what this call appended
// — MutableStore appends segment after segment into one output. Indexes
// whose lists are not id-sorted (blocked, delta) just produce more runs.
//
// The answer therefore equals brute force at every theta for every
// caller. Ticker contract: kCandidates ticks the rows validated,
// kResults the ids returned (once per completed call); the filter and
// validate kernels tick their own counters (kPostingEntriesScanned,
// kListsDropped, kDistanceCalls).
//
// QueryControl: polled once on entry and through the validate kernel; a
// stop drops what this call appended, skips kResults and returns false — the owning layer
// maps that to a Status (StopStatus in core/deadline.h) and must not
// publish the partial answer.

#ifndef TOPK_KERNEL_RANGE_SEARCH_H_
#define TOPK_KERNEL_RANGE_SEARCH_H_

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/deadline.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"

namespace topk {

/// Per-caller range scratch, reused across queries so the hot path never
/// allocates: the filter's dedup set and candidate list, the validator's
/// query rank table, the keep-predicate's survivors, and the run merge's
/// ping-pong buffer.
struct RangeScratch {
  FilterScratch filter;
  FootruleValidator validator;
  std::vector<RankingId> kept;
  std::vector<RankingId> merge;
};

/// Sorts (*values)[first, end) ascending by merging its ascending runs
/// pairwise, ping-ponging through `buffer` (grown, never shrunk):
/// O(n log runs), a single O(n) scan when the range is already sorted.
/// The prefix [0, first) is not touched.
inline void MergeAscendingRuns(std::vector<RankingId>* values, size_t first,
                               std::vector<RankingId>* buffer) {
  RankingId* const begin = values->data() + first;
  const size_t n = values->size() - first;
  if (std::is_sorted(begin, begin + n)) return;
  if (buffer->size() < n) buffer->resize(n);
  RankingId* src = begin;
  RankingId* dst = buffer->data();
  size_t merged_runs = 0;
  do {
    merged_runs = 0;
    RankingId* out = dst;
    for (RankingId* lo = src; lo != src + n; ++merged_runs) {
      RankingId* const mid = std::is_sorted_until(lo, src + n);
      RankingId* const hi = std::is_sorted_until(mid, src + n);
      out = std::merge(lo, mid, mid, hi, out);
      lo = hi;
    }
    std::swap(src, dst);
  } while (merged_runs > 1);
  if (src != begin) std::copy(src, src + n, begin);
}

/// The default keep-predicate: every row is alive.
struct KeepAllRows {
  constexpr bool operator()(RankingId) const { return true; }
};

/// Appends every id of `store` within `theta_raw` of `query` to `*out`
/// (ascending) and returns true; returns false with `*out` restored to
/// its entry size when `control` stopped the query. `index` may be null
/// (no index: the full domain is validated). Rows for which `keep(id)` is
/// false are never validated and never returned.
template <typename Index, typename Keep = KeepAllRows>
bool RangeSearch(const RankingStore& store, const Index* index,
                 RankingView query, RawDistance theta_raw, DropMode drop,
                 RangeScratch* scratch, std::vector<RankingId>* out,
                 Statistics* stats = nullptr, QueryControl* control = nullptr,
                 const Keep& keep = {}) {
  constexpr bool kKeepAll = std::is_same_v<Keep, KeepAllRows>;
  if (control != nullptr && control->ShouldStop()) return false;
  const size_t first = out->size();
  if (store.empty()) return true;
  FootruleValidator& validator = scratch->validator;
  validator.BindQuery(query, static_cast<size_t>(store.max_item()) + 1);
  const bool full_domain =
      index == nullptr || !UnionCoversRange(store.k(), theta_raw);
  if (full_domain && kKeepAll) {
    AddTicker(stats, Ticker::kCandidates, store.size());
    validator.ValidateAll(store, theta_raw, out, stats, control);
  } else {
    std::span<const RankingId> rows;
    if (full_domain) {
      scratch->kept.clear();
      const auto n = static_cast<RankingId>(store.size());
      for (RankingId id = 0; id < n; ++id) {
        if (keep(id)) scratch->kept.push_back(id);
      }
      rows = scratch->kept;
    } else {
      rows = FilterPhase(*index, query, theta_raw, drop, store.size(),
                         &scratch->filter, stats);
      if constexpr (!kKeepAll) {
        scratch->kept.clear();
        for (const RankingId id : rows) {
          if (keep(id)) scratch->kept.push_back(id);
        }
        rows = scratch->kept;
      }
    }
    AddTicker(stats, Ticker::kCandidates, rows.size());
    validator.ValidateSpan(store, rows, theta_raw, out, stats, control);
  }
  if (control != nullptr && control->ShouldStop()) {
    out->resize(first);
    return false;
  }
  // Full-domain rows ascend already; a posting union's accepted ids form
  // a few ascending runs (see the header).
  if (!full_domain) MergeAscendingRuns(out, first, &scratch->merge);
  AddTicker(stats, Ticker::kResults, out->size() - first);
  return true;
}

}  // namespace topk

#endif  // TOPK_KERNEL_RANGE_SEARCH_H_
