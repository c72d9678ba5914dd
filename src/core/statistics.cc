#include "core/statistics.h"

namespace topk {

const char* TickerName(Ticker ticker) {
  switch (ticker) {
    case Ticker::kDistanceCalls:
      return "distance_calls";
    case Ticker::kPostingEntriesScanned:
      return "posting_entries_scanned";
    case Ticker::kPostingEntriesSkipped:
      return "posting_entries_skipped";
    case Ticker::kListsDropped:
      return "lists_dropped";
    case Ticker::kBlocksSkipped:
      return "blocks_skipped";
    case Ticker::kBlocksDecoded:
      return "blocks_decoded";
    case Ticker::kCandidates:
      return "candidates";
    case Ticker::kPrunedByLowerBound:
      return "pruned_by_lower_bound";
    case Ticker::kAcceptedByUpperBound:
      return "accepted_by_upper_bound";
    case Ticker::kPartitionsProbed:
      return "partitions_probed";
    case Ticker::kTreeNodesVisited:
      return "tree_nodes_visited";
    case Ticker::kResults:
      return "results";
    case Ticker::kResultCacheHits:
      return "result_cache_hits";
    case Ticker::kResultCacheMisses:
      return "result_cache_misses";
    case Ticker::kResultCacheEvictions:
      return "result_cache_evictions";
    case Ticker::kDeadlineExceeded:
      return "deadline_exceeded";
    case Ticker::kLoadShed:
      return "load_shed";
    case Ticker::kDegradedReads:
      return "degraded_reads";
    case Ticker::kMergeRetries:
      return "merge_retries";
    case Ticker::kSnapshotsQuarantined:
      return "snapshots_quarantined";
    case Ticker::kNumTickers:
      break;
  }
  return "unknown";
}

}  // namespace topk
