// Shared F&V filter phase: posting-union + dedup over caller-owned scratch.
//
// FilterPhase has exactly two callers in the library: RangeSearch
// (kernel/range_search.h), which every union-validating range path goes
// through — FilterValidateEngine, CompressedFilterValidateEngine,
// ResilientReader and each MutableStore segment — and CoarseIndex's medoid
// retrieval. Both run the same loop: pick the accessible posting lists
// (drop policy), scan them, and deduplicate ranking ids through an
// epoch-stamped VisitedSet (scripts/check_invariants.py
// `filter-phase-callers` keeps a third caller from appearing).
//
// Two overloads, one loop: FilterPhase(theta, drop) selects the lists and
// unions them over the whole id domain; FilterPhase(positions, window)
// unions already-selected lists restricted to an id window [lo, hi), which
// is how RangeSearch runs one query as id-range parts with SelectLists
// called once. An id-sorted index cuts each list to the window by binary
// search, so a window scans only its own entries, and the one-list,
// two-list and visited-set paths below all apply to the slices. A
// compressed index decodes only the blocks a window meets before that
// cut, so a split's parts decode each block about once, not each list
// once per part. A window's candidates are exactly the whole union's
// candidates inside it, in the same order; the whole domain is
// byte-identical to the unwindowed union.
//
// Contract (bit-compatible with the historical loops, which
// kernel_filter_test pins):
//  * lists are selected by SelectLists(query, theta_raw, drop, ...) and
//    visited in ascending query-position order;
//  * candidates are appended in first-encounter order (NOT sorted). Each
//    id-sorted list's new ids still ascend, so the order is a few
//    ascending runs, and RangeSearch merges its *results'* runs instead of
//    sorting them;
//  * kPostingEntriesScanned ticks once per scanned entry (counted per
//    list slice, so a split's windows sum to the whole query's tick);
//    kBlocksDecoded ticks inside a compressed index's decode (a block
//    straddling a window boundary counts once per window it meets);
//    kListsDropped ticks inside SelectLists; kCandidates is left to
//    the caller, whose accounting differs (RangeSearch counts the rows it
//    validates after the keep-predicate).
//
// The helper is generic over the index: anything with list(item) /
// list_length(item) works, with PostingEntryId() extracting the ranking id
// from plain (RankingId) and augmented (AugmentedEntry) entries alike. All
// indexes in the library share one structural guarantee the fast paths
// lean on: a posting list never repeats a ranking id (a ranking contains
// an item at most once).
//
// v2 sweep structure, in order of specificity:
//  * one surviving list: its ids ARE the union — copy, no visited set;
//  * two surviving lists of an id-sorted index (Index::kIdSortedLists):
//    emit the first list, then the second minus the first via a galloping
//    sorted merge — no epoch bump, no scattered stamp writes;
//  * general case: the epoch-stamped VisitedSet loop, with the next
//    posting list's arena lines and the upcoming entries' stamp words
//    software-prefetched ahead of use (the stamp probes are the one
//    genuinely random access pattern of the loop).
// All three produce byte-identical candidate sequences and tickers.

#ifndef TOPK_KERNEL_FILTER_PHASE_H_
#define TOPK_KERNEL_FILTER_PHASE_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "invidx/visited_set.h"
#include "kernel/id_split.h"
#include "kernel/simd.h"

namespace topk {

/// Per-caller filter scratch: the dedup set plus the candidate list, both
/// reused across queries so the hot path never allocates.
struct FilterScratch {
  VisitedSet visited{0};
  std::vector<RankingId> candidates;
  /// Landing buffers for indexes that serve lists through
  /// DecodeListInRange(item, window, scratch, stats) instead of
  /// list(item) — the storage tier's block-compressed arena. At most two
  /// lists are live at once (the sorted two-list union), so two grow-only
  /// buffers cover every sweep path with zero allocation inside the
  /// per-list loops.
  std::vector<RankingId> decode_a;
  std::vector<RankingId> decode_b;
};

/// Whether the posting-list union of a k-item query is a superset of its
/// range answer at `theta_raw`: only below dmax, because a ranking that
/// shares no item with the query sits at exactly dmax and appears in no
/// posting list. At or above dmax a caller must validate the full id
/// domain (RangeSearch does).
inline bool UnionCoversRange(uint32_t k, RawDistance theta_raw) {
  return theta_raw < MaxDistance(k);
}

inline RankingId PostingEntryId(RankingId entry) { return entry; }
/// Rank-augmented entry types expose the ranking id as a member.
template <typename Entry>
RankingId PostingEntryId(const Entry& entry) {
  return entry.id;
}

/// Whether the index declares id-sorted posting lists (plain and
/// augmented do; the blocked index's lists are rank-major and must not
/// take the sorted-merge fast path).
template <typename Index>
constexpr bool IndexHasIdSortedLists() {
  if constexpr (requires { Index::kIdSortedLists; }) {
    return Index::kIdSortedLists;
  } else {
    return false;
  }
}

/// Whether the index serves posting lists through
/// DecodeListInRange(item, window, scratch, stats) — the storage tier's
/// compressed arena — instead of the zero-cost list(item) span of the
/// RAM-resident CSR arena. The decode lands only the blocks that meet the
/// window, ascending, in the FilterScratch buffers, and ticks
/// kBlocksDecoded per block; SliceToWindow then trims them exactly, so the
/// candidate stream and every other ticker stay bit-identical either way.
template <typename Index>
constexpr bool IndexHasDecodedLists() {
  if constexpr (requires { Index::kDecodedLists; }) {
    return Index::kDecodedLists;
  } else {
    return false;
  }
}

namespace filter_detail {

/// How many entries ahead the general loop warms the VisitedSet stamp of.
/// Far enough to cover the dedup probe's cache-miss latency, near enough
/// that the line is still resident when the probe arrives.
inline constexpr size_t kStampPrefetchDistance = 16;

/// First index >= `from` whose entry id is >= `target` (exponential
/// search then binary search; the two-list merge advances monotonically,
/// so galloping from the previous cursor is O(log gap) per step).
template <typename List>
size_t GallopLowerBound(const List& list, size_t from, RankingId target) {
  size_t lo = from;
  size_t bound = 1;
  while (from + bound < list.size() &&
         PostingEntryId(list[from + bound]) < target) {
    lo = from + bound + 1;
    bound <<= 1;
  }
  size_t hi = std::min(from + bound, list.size());
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (PostingEntryId(list[mid]) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Union of exactly two id-sorted duplicate-free lists in first-encounter
/// order: all of `first`, then `second` minus `first`.
template <typename List>
void TwoListUnion(const List& first, const List& second,
                  std::vector<RankingId>* out) {
  for (const auto& entry : first) out->push_back(PostingEntryId(entry));
  size_t cursor = 0;
  for (const auto& entry : second) {
    const RankingId id = PostingEntryId(entry);
    cursor = GallopLowerBound(first, cursor, id);
    if (cursor < first.size() && PostingEntryId(first[cursor]) == id) {
      ++cursor;  // present in `first`: already emitted
      continue;
    }
    out->push_back(id);
  }
}

/// The entries of an id-sorted list whose ids lie in `window`: a binary
/// search for the first, then a gallop over the (usually short) slice for
/// the end. The whole domain returns the list unchanged.
template <typename List>
List SliceToWindow(const List& list, IdWindow window) {
  size_t begin = 0;
  if (!list.empty() && PostingEntryId(list.front()) < window.lo) {
    const auto below = [](const auto& entry, RankingId id) {
      return PostingEntryId(entry) < id;
    };
    begin = static_cast<size_t>(
        std::lower_bound(list.begin(), list.end(), window.lo, below) -
        list.begin());
  }
  size_t end = list.size();
  if (begin < end && PostingEntryId(list.back()) >= window.hi) {
    end = GallopLowerBound(list, begin, window.hi);
  }
  return list.subspan(begin, end - begin);
}

}  // namespace filter_detail

/// Unions the posting lists of `query` at `positions` (SelectLists'
/// output, visited in that order) into `scratch->candidates`, keeping
/// only ids inside `window`, in first-encounter order, and returns a view
/// of them. For an id-sorted index each list is sliced to the window by
/// binary search, so a part touches only its own entries and
/// kPostingEntriesScanned ticks the slice lengths; the windows of a split
/// therefore sum to the whole query's tick, and the candidates of a
/// window are exactly the whole union's candidates inside it, in the same
/// order. Other indexes take only the whole domain [0, id_capacity).
/// `id_capacity` bounds the ids the lists may contain (the store size,
/// or the medoid count for subset indexes).
template <typename Index>
std::span<const RankingId> FilterPhase(const Index& index, RankingView query,
                                       std::span<const uint32_t> positions,
                                       IdWindow window, size_t id_capacity,
                                       FilterScratch* scratch,
                                       Statistics* stats = nullptr) {
  scratch->candidates.clear();
  if constexpr (!IndexHasIdSortedLists<Index>()) {
    TOPK_DCHECK(window.lo == 0 && window.hi >= id_capacity);
    (void)window;
  }

  // One access path for both storage tiers: a decoded-lists index lands
  // the blocks of the list that meet the window in the given scratch
  // buffer (inline-tier lists come back whole as direct spans, zero
  // decode); a CSR index returns its arena span and the buffer goes
  // unused. Id-sorted lists are then cut to the window exactly.
  auto list_at = [&](uint32_t position, std::vector<RankingId>* landing) {
    const auto list = [&] {
      if constexpr (IndexHasDecodedLists<Index>()) {
        return index.DecodeListInRange(query[position], window, landing,
                                       stats);
      } else {
        (void)landing;
        return index.list(query[position]);
      }
    }();
    if constexpr (IndexHasIdSortedLists<Index>()) {
      return filter_detail::SliceToWindow(list, window);
    } else {
      return list;
    }
  };

  if (positions.size() == 1) {
    const auto list = list_at(positions[0], &scratch->decode_a);
    AddTicker(stats, Ticker::kPostingEntriesScanned, list.size());
    for (const auto& entry : list) {
      scratch->candidates.push_back(PostingEntryId(entry));
    }
    return scratch->candidates;
  }
  if constexpr (IndexHasIdSortedLists<Index>()) {
    if (positions.size() == 2) {
      const auto first = list_at(positions[0], &scratch->decode_a);
      const auto second = list_at(positions[1], &scratch->decode_b);
      AddTicker(stats, Ticker::kPostingEntriesScanned,
                first.size() + second.size());
      filter_detail::TwoListUnion(first, second, &scratch->candidates);
      return scratch->candidates;
    }
  }

  scratch->visited.EnsureCapacity(id_capacity);
  scratch->visited.NextEpoch();
  for (size_t li = 0; li < positions.size(); ++li) {
    const auto list = list_at(positions[li], &scratch->decode_a);
    if constexpr (!IndexHasDecodedLists<Index>()) {
      if (li + 1 < positions.size()) {
        // Warm the next list's head while this one is scanned; its arena
        // span is contiguous, so one line covers the first entries.
        PrefetchRead(index.list(query[positions[li + 1]]).data());
      }
    }
    AddTicker(stats, Ticker::kPostingEntriesScanned, list.size());
    for (size_t i = 0; i < list.size(); ++i) {
      if (i + filter_detail::kStampPrefetchDistance < list.size()) {
        scratch->visited.Prefetch(PostingEntryId(
            list[i + filter_detail::kStampPrefetchDistance]));
      }
      const RankingId id = PostingEntryId(list[i]);
      if (!scratch->visited.TestAndSet(id)) {
        scratch->candidates.push_back(id);
      }
    }
  }
  return scratch->candidates;
}

/// The whole query: SelectLists(query, theta_raw, drop, ...) picks the
/// accessible lists (ticking kListsDropped), and their union over the
/// whole id domain lands in `scratch->candidates`.
template <typename Index>
std::span<const RankingId> FilterPhase(const Index& index, RankingView query,
                                       RawDistance theta_raw, DropMode drop,
                                       size_t id_capacity,
                                       FilterScratch* scratch,
                                       Statistics* stats = nullptr) {
  const std::vector<uint32_t> positions = SelectLists(
      query, theta_raw, drop,
      [&index](ItemId item) { return index.list_length(item); }, stats);
  return FilterPhase(index, query, positions, kAllIds, id_capacity, scratch,
                     stats);
}

}  // namespace topk

#endif  // TOPK_KERNEL_FILTER_PHASE_H_
