#include "storage/compressed_augmented.h"

#include <algorithm>

namespace topk {
namespace storage {

CompressedAugmentedEngine::CompressedAugmentedEngine(
    const RankingStore* store, const CompressedAugmentedIndex* index,
    CompressedAugmentedOptions options)
    : store_(store), index_(index), options_(options) {
  accs_.resize(index_->num_indexed());
  scratch_.validator.EnsureItemCapacity(
      store->empty() ? 0 : static_cast<size_t>(store->max_item()) + 1);
}

std::vector<RankingId> CompressedAugmentedEngine::Query(
    const PreparedQuery& query, RawDistance theta_raw, Statistics* stats) {
  TOPK_DCHECK(query.k() == store_->k());
  if (!UnionCoversRange(query.k(), theta_raw)) {
    // The sweep below discovers candidates through posting lists only,
    // which miss the rankings disjoint from the query: RangeSearch
    // validates the full id domain instead.
    std::vector<RankingId> results;
    RangeSearch(*store_, index_, query.view(), theta_raw, options_.drop,
                &scratch_, &results, stats);
    return results;
  }
  ++epoch_;
  if (epoch_ == 0) {
    for (auto& acc : accs_) acc.epoch = 0;
    epoch_ = 1;
  }
  touched_.clear();

  const uint32_t k = query.k();
  const RankingView q = query.view();
  const std::vector<uint32_t> positions =
      SelectLists(q, theta_raw, options_.drop,
                  [this](ItemId item) { return index_->list_length(item); },
                  stats);

  // A sweep is complete when every occurrence of every candidate in every
  // query item's list was processed: no list dropped, no block skipped,
  // no early stop. Only then can the accumulator finalize exactly.
  bool complete_sweep = options_.drop == DropMode::kNone;

  RawDistance processed_absent = 0;  // over processed (kept) lists
  for (size_t pi = 0; pi < positions.size(); ++pi) {
    const uint32_t t = positions[pi];
    if (processed_absent > theta_raw) {
      // Discovery is impossible from here on (a candidate first appearing
      // now has already paid more than theta in query-side absences), and
      // existing candidates only gain contributions: stop sweeping and
      // validate survivors exactly. Account the remaining lists' blocks
      // and entries as skipped.
      for (size_t rest = pi; rest < positions.size(); ++rest) {
        const ItemId item = q[positions[rest]];
        const size_t length = index_->list_length(item);
        AddTicker(stats, Ticker::kPostingEntriesSkipped, length);
        if (length >
            CompressedPostingArena<AugmentedEntry>::kInlineMaxEntries) {
          AddTicker(stats, Ticker::kBlocksSkipped,
                    (length + kBlockEntries - 1) / kBlockEntries);
        }
      }
      complete_sweep = false;
      break;
    }
    // Discovery-tightened rank window, exactly the blocked engine's:
    // only ranks with |rank - t| <= theta - processed_absent can still
    // contribute to discovery (DESIGN.md, "Block-skipping sweep").
    const RawDistance budget = theta_raw - processed_absent;
    const uint32_t rank_lo =
        budget < t ? t - static_cast<uint32_t>(budget) : 0;
    const uint32_t rank_hi = static_cast<uint32_t>(
        std::min<RawDistance>(k > 0 ? k - 1 : 0, t + budget));

    BlockSkipStats skip;
    const std::span<const AugmentedEntry> entries =
        options_.block_skip
            ? index_->DecodeListInRankWindow(q[t], rank_lo, rank_hi,
                                             &decode_, &skip)
            : index_->DecodeList(q[t], &decode_);
    if (skip.blocks_skipped > 0) complete_sweep = false;
    AddTicker(stats, Ticker::kPostingEntriesScanned, entries.size());
    AddTicker(stats, Ticker::kPostingEntriesSkipped, skip.entries_skipped);
    AddTicker(stats, Ticker::kBlocksSkipped, skip.blocks_skipped);
    AddTicker(stats, Ticker::kBlocksDecoded,
              skip.blocks_considered - skip.blocks_skipped);

    for (const AugmentedEntry& entry : entries) {
      Accumulator& acc = accs_[entry.id];
      if (acc.epoch != epoch_) {
        acc = Accumulator{};
        acc.epoch = epoch_;
        touched_.push_back(entry.id);
      } else if (acc.dead) {
        continue;
      }
      // Decoded blocks may hold out-of-window ranks (superset decode);
      // processing them only adds true contributions.
      acc.seen_sum += entry.rank > t ? entry.rank - t : t - entry.rank;
      acc.seen_q_cost += k - t;
      acc.seen_c_cost += k - entry.rank;
      // Threshold-sound lower bound, as in BlockedEngine::QueryWindowed:
      // a kept processed list the candidate missed either proves absence
      // (cost k - t') or hides it in a skipped block whose whole rank
      // range lies outside the window, i.e. |rank - t'| > budget' >=
      // k - t' while the sweep continues (DESIGN.md proof transfers at
      // block granularity).
      const RawDistance lower =
          acc.seen_sum + processed_absent + (k - t) - acc.seen_q_cost;
      if (lower > theta_raw) {
        acc.dead = true;
        AddTicker(stats, Ticker::kPrunedByLowerBound);
      }
    }
    processed_absent += k - t;
  }

  AddTicker(stats, Ticker::kCandidates, touched_.size());
  std::vector<RankingId> results;
  if (complete_sweep) {
    // Every occurrence was processed: the accumulator determines the
    // exact distance with zero store probes (see header). Dead
    // candidates were proven above theta by the lower bound.
    const RawDistance dmax = MaxDistance(k);
    for (const RankingId id : touched_) {
      const Accumulator& acc = accs_[id];
      if (acc.dead) continue;
      const RawDistance distance =
          acc.seen_sum + dmax - acc.seen_q_cost - acc.seen_c_cost;
      if (distance <= theta_raw) results.push_back(id);
    }
    std::sort(results.begin(), results.end());
    AddTicker(stats, Ticker::kResults, results.size());
    return results;
  }

  // Incomplete sweep: partial sums can rule candidates out, never prove
  // them in — validate survivors exactly through the batched kernel.
  survivors_.clear();
  for (const RankingId id : touched_) {
    if (!accs_[id].dead) survivors_.push_back(id);
  }
  FootruleValidator& validator = scratch_.validator;
  validator.BindQuery(query.view(),
                      static_cast<size_t>(store_->max_item()) + 1);
  validator.ValidateSpan(*store_, survivors_, theta_raw, &results, stats);
  std::sort(results.begin(), results.end());
  AddTicker(stats, Ticker::kResults, results.size());
  return results;
}

}  // namespace storage
}  // namespace topk
