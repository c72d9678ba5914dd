// Exact range search over one indexed segment: the single owner of the
// filter -> validate pipeline (Section 4) and of the theta >= dmax rule.
//
// Every serving path that answers a range query by posting-list union —
// the F&V engine over either index (FilterValidateEngine and its
// compressed instantiation), ResilientReader (both tiers) and each
// MutableStore segment — calls RangeSearch, so the
// decision of which rows get validated exists exactly once:
//
//  * no index, or theta >= dmax: the full id domain. A ranking that
//    shares no item with the query sits at exactly dmax and appears in no
//    posting list, so from dmax on the union is no longer a superset of
//    the answer. ValidateAll sweeps every row; with a keep-predicate the
//    kept rows go through ValidateSpan instead.
//  * otherwise: SelectLists with the caller's DropMode (Lemma 2 for the
//    F&V+Drop modes), then FilterPhase's union of those lists, the
//    keep-predicate's rejects dropped BEFORE validation (a tombstoned row
//    never costs a distance call), then ValidateSpan and a merge of the
//    accepted ids' ascending runs.
//
// Id-window parts: the union and validate of the last case split cleanly
// by ranking id. Given a RangeSplit (kernel/id_split.h) over an index
// with id-sorted lists, every row kept and enough posting volume, the
// lists are selected once, then each part p unions the slices of those
// lists inside PartWindow(n, P, p), validates them with its worker's own
// FootruleValidator and merges its runs — the same FilterValidate body the
// serial query runs over the whole domain. The parts' ascending answers
// concatenate in id order into the serial answer, and their tickers sum
// to the serial ones (kListsDropped ticks once, by the caller). The full
// domain and the keep-predicate path always run serial.
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
// QueryControl: polled once on entry and through the validate kernel
// (each part of a split polls its own copy); a stop drops what this call
// appended, skips kResults and returns false — the owning layer maps that
// to a Status (StopStatus in core/deadline.h) and must not publish the
// partial answer.

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
#include "kernel/id_split.h"

namespace topk {

/// Per-caller range scratch, reused across queries so the hot path never
/// allocates: the filter's dedup set and candidate list, the validator's
/// query rank table, the keep-predicate's survivors, the run merge's
/// ping-pong buffer, and a split query's per-part answers.
struct RangeScratch {
  FilterScratch filter;
  FootruleValidator validator;
  std::vector<RankingId> kept;
  std::vector<RankingId> merge;
  /// Part p's ascending answer while a split query runs: written only by
  /// the worker running part p, concatenated by the caller after the
  /// join. Grown to the part count on first use, never shrunk.
  std::vector<std::vector<RankingId>> parts;
};

/// A RangeSearch split over id windows (kernel/id_split.h); a worker slot
/// brings its own RangeScratch.
using RangeSplit = IdSplit<RangeScratch>;

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

namespace range_detail {

/// Filter -> keep -> validate -> run merge over the ids in `window`:
/// appends that window's answer to `*out`, ascending, through `scratch`,
/// whose validator must be bound to `query`. The one pipeline body both
/// the serial query (the whole domain) and every part of a split run.
/// Returns early, output truncated, when `control` stops the validate.
template <typename Index, typename Keep>
void FilterValidate(const RankingStore& store, const Index& index,
                    RankingView query, std::span<const uint32_t> positions,
                    IdWindow window, RawDistance theta_raw,
                    RangeScratch* scratch, std::vector<RankingId>* out,
                    Statistics* stats, QueryControl* control,
                    const Keep& keep) {
  std::span<const RankingId> rows =
      FilterPhase(index, query, positions, window, store.size(),
                  &scratch->filter, stats);
  if constexpr (!std::is_same_v<Keep, KeepAllRows>) {
    scratch->kept.clear();
    for (const RankingId id : rows) {
      if (keep(id)) scratch->kept.push_back(id);
    }
    rows = scratch->kept;
  }
  AddTicker(stats, Ticker::kCandidates, rows.size());
  const size_t first = out->size();
  scratch->validator.ValidateSpan(store, rows, theta_raw, out, stats,
                                  control);
  if (control != nullptr && control->stopped()) return;
  // A posting union's accepted ids form a few ascending runs (see the
  // header).
  MergeAscendingRuns(out, first, &scratch->merge);
}

/// Posting entries the lists at `positions` hold: the work a split shares.
template <typename Index>
size_t PostingVolume(const Index& index, RankingView query,
                     std::span<const uint32_t> positions) {
  size_t volume = 0;
  for (const uint32_t position : positions) {
    volume += index.list_length(query[position]);
  }
  return volume;
}

}  // namespace range_detail

/// Appends every id of `store` within `theta_raw` of `query` to `*out`
/// (ascending) and returns true; returns false with `*out` restored to
/// its entry size when `control` stopped the query. `index` may be null
/// (no index: the full domain is validated). Rows for which `keep(id)` is
/// false are never validated and never returned.
///
/// `split` (optional) runs the posting union and validate as id-window
/// parts on its workers when the index's lists are id-sorted, every row
/// is kept, theta < dmax and the selected lists hold at least
/// split->min_volume entries; otherwise the query runs serial here. The
/// answer and the summed tickers are the serial ones either way.
template <typename Index, typename Keep = KeepAllRows>
bool RangeSearch(const RankingStore& store, const Index* index,
                 RankingView query, RawDistance theta_raw, DropMode drop,
                 RangeScratch* scratch, std::vector<RankingId>* out,
                 Statistics* stats = nullptr, QueryControl* control = nullptr,
                 const Keep& keep = {}, const RangeSplit* split = nullptr) {
  constexpr bool kKeepAll = std::is_same_v<Keep, KeepAllRows>;
  if (control != nullptr && control->ShouldStop()) return false;
  const size_t first = out->size();
  if (store.empty()) return true;
  const size_t item_domain = static_cast<size_t>(store.max_item()) + 1;
  FootruleValidator& validator = scratch->validator;
  if (index == nullptr || !UnionCoversRange(store.k(), theta_raw)) {
    // The full id domain: its rows ascend already.
    validator.BindQuery(query, item_domain);
    if constexpr (kKeepAll) {
      AddTicker(stats, Ticker::kCandidates, store.size());
      validator.ValidateAll(store, theta_raw, out, stats, control);
    } else {
      scratch->kept.clear();
      const auto n = static_cast<RankingId>(store.size());
      for (RankingId id = 0; id < n; ++id) {
        if (keep(id)) scratch->kept.push_back(id);
      }
      AddTicker(stats, Ticker::kCandidates, scratch->kept.size());
      validator.ValidateSpan(store, scratch->kept, theta_raw, out, stats,
                             control);
    }
  } else {
    // SelectLists runs once per query, split or not, so kListsDropped
    // ticks once.
    const std::vector<uint32_t> positions = SelectLists(
        query, theta_raw, drop,
        [index](ItemId item) { return index->list_length(item); }, stats);
    bool serial = true;
    if constexpr (kKeepAll && IndexHasIdSortedLists<Index>()) {
      if (split != nullptr && split->parts > 1 &&
          range_detail::PostingVolume(*index, query, positions) >=
              split->min_volume) {
        serial = false;
        std::vector<std::vector<RankingId>>& parts = scratch->parts;
        if (parts.size() < split->parts) parts.resize(split->parts);
        const bool completed = RunParts(
            *split, control,
            [&](const SplitWorker<RangeScratch>& worker, size_t p,
                QueryControl* part_control) {
              parts[p].clear();
              worker.scratch->validator.BindQuery(query, item_domain);
              range_detail::FilterValidate(
                  store, *index, query, positions,
                  PartWindow(store.size(), split->parts, p), theta_raw,
                  worker.scratch, &parts[p], worker.stats, part_control,
                  keep);
            });
        if (!completed) return false;
        for (size_t p = 0; p < split->parts; ++p) {
          out->insert(out->end(), parts[p].begin(), parts[p].end());
        }
      }
    }
    if (serial) {
      validator.BindQuery(query, item_domain);
      range_detail::FilterValidate(store, *index, query, positions, kAllIds,
                                   theta_raw, scratch, out, stats, control,
                                   keep);
    }
  }
  if (control != nullptr && control->ShouldStop()) {
    out->resize(first);
    return false;
  }
  AddTicker(stats, Ticker::kResults, out->size() - first);
  return true;
}

}  // namespace topk

#endif  // TOPK_KERNEL_RANGE_SEARCH_H_
