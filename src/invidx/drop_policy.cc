#include "invidx/drop_policy.h"

#include <algorithm>

namespace topk {

const char* DropModeName(DropMode mode) {
  switch (mode) {
    case DropMode::kNone:
      return "none";
    case DropMode::kConservative:
      return "conservative";
    case DropMode::kPositionRefined:
      return "position_refined";
  }
  return "unknown";
}

namespace drop_detail {

std::vector<uint32_t> SelectByLength(std::span<PositionLength> lists,
                                     uint32_t w, RawDistance theta_raw,
                                     DropMode mode, Statistics* stats) {
  const auto k = static_cast<uint32_t>(lists.size());
  // The refinement may drop one more list than the conservative policy but
  // is only sound below the configuration-forcing threshold (see header).
  const bool refinement_sound =
      mode == DropMode::kPositionRefined &&
      theta_raw <= MinDistanceForOverlap(k, w) + 1;
  const uint32_t keep =
      refinement_sound ? std::max<uint32_t>(1, k - w) : (k - w + 1);

  // Positions ordered by posting-list length, longest first: those are the
  // most profitable to drop. The position breaks ties, so the order is
  // total and the same as a stable sort by length.
  std::sort(lists.begin(), lists.end(),
            [](const PositionLength& a, const PositionLength& b) {
              return a.length != b.length ? a.length > b.length : a.pos < b.pos;
            });

  // Greedily drop the longest lists. Under the refined policy at least one
  // kept list must come from the query's top-w positions; skip a drop that
  // would eliminate the last such position.
  std::vector<uint32_t> result;
  result.reserve(keep);
  uint32_t top_w_kept = std::min(w, k);  // positions 0..w-1 still kept
  uint32_t num_dropped = 0;
  const uint32_t want_dropped = k - keep;
  for (const PositionLength& list : lists) {
    if (num_dropped == want_dropped ||
        (refinement_sound && list.pos < w && top_w_kept == 1)) {
      result.push_back(list.pos);
      continue;
    }
    if (list.pos < w) --top_w_kept;
    ++num_dropped;
  }
  std::sort(result.begin(), result.end());
  AddTicker(stats, Ticker::kListsDropped, num_dropped);
  return result;
}

}  // namespace drop_detail

}  // namespace topk
