// Execution counters and phase timers, in the spirit of RocksDB's
// Statistics tickers.
//
// Every query algorithm accepts an optional Statistics*; passing nullptr
// disables accounting with zero overhead on the hot path (a single branch).
// The paper's Figure 10 ("number of distance function calls") and the
// filter/validate phase splits of Figure 7 are produced from these tickers.

#ifndef TOPK_CORE_STATISTICS_H_
#define TOPK_CORE_STATISTICS_H_

#include <array>
#include <chrono>
#include <cstdint>

namespace topk {

enum class Ticker : int {
  /// Full Footrule evaluations (the paper's DFC measure).
  kDistanceCalls = 0,
  /// Posting entries touched while scanning inverted lists.
  kPostingEntriesScanned,
  /// Posting entries skipped by blocked access (Section 6.3).
  kPostingEntriesSkipped,
  /// Entire posting lists dropped by the overlap bound (Section 6.1).
  kListsDropped,
  /// Blocks skipped by the |j - q(i)| > theta rule (Section 6.3).
  kBlocksSkipped,
  /// Compressed posting blocks decoded (storage/compressed_arena.h), once
  /// per block: by the whole-list decode, and by a split query's id-window
  /// decode, whose parts decode a block straddling a window boundary once
  /// per window it meets. Inline-tier lists decode no block.
  kBlocksDecoded,
  /// Distinct candidates produced by a filtering phase.
  kCandidates,
  /// Candidates rejected early by the lower bound (Section 6.2).
  kPrunedByLowerBound,
  /// Candidates accepted early by the upper bound (Section 6.2).
  kAcceptedByUpperBound,
  /// Medoids whose partitions were probed by the coarse index.
  kPartitionsProbed,
  /// Metric-tree nodes visited during range queries.
  kTreeNodesVisited,
  /// Final results returned.
  kResults,
  /// Serving-layer result cache (src/serve): exact answers served without
  /// touching any engine.
  kResultCacheHits,
  kResultCacheMisses,
  kResultCacheEvictions,
  /// Robustness layer (see DESIGN.md "Failure model"): queries abandoned
  /// at their deadline, queries shed by admission control, reads served
  /// from the RAM fallback after an mmap-tier failure, merge attempts
  /// retried after an injected/real rebuild failure, and snapshot files
  /// quarantined as corrupt at startup scan.
  kDeadlineExceeded,
  kLoadShed,
  kDegradedReads,
  kMergeRetries,
  kSnapshotsQuarantined,
  kNumTickers
};

constexpr int kNumTickers = static_cast<int>(Ticker::kNumTickers);

/// Name of a ticker for reports.
const char* TickerName(Ticker ticker);

/// Plain counter block, intentionally without atomics: a Statistics is
/// owned by exactly one thread while counting. Parallel execution gives
/// every worker its own instance and the coordinator combines them with
/// Merge/MergeFrom after the workers are joined (the thread-pool future
/// handshake provides the happens-before edge), so the hot path stays a
/// single unsynchronized add and TSan sees no shared mutable state.
class Statistics {
 public:
  void Add(Ticker ticker, uint64_t count = 1) {
    tickers_[static_cast<int>(ticker)] += count;
  }
  uint64_t Get(Ticker ticker) const {
    return tickers_[static_cast<int>(ticker)];
  }
  void Reset() { tickers_.fill(0); }
  void MergeFrom(const Statistics& other) {
    for (int i = 0; i < kNumTickers; ++i) tickers_[i] += other.tickers_[i];
  }

  friend bool operator==(const Statistics&, const Statistics&) = default;

 private:
  std::array<uint64_t, kNumTickers> tickers_{};
};

/// Value-form merge. Ticker addition is unsigned-integer addition, so this
/// is commutative and associative (wrap-around included): aggregating
/// per-shard / per-thread blocks gives the same result in any combination
/// order — the property the parallel runner relies on and
/// core_statistics_test proves.
inline Statistics Merge(Statistics a, const Statistics& b) {
  a.MergeFrom(b);
  return a;
}

/// Convenience: increments only when stats is non-null.
inline void AddTicker(Statistics* stats, Ticker ticker, uint64_t count = 1) {
  if (stats != nullptr) stats->Add(ticker, count);
}

/// Monotonic wall-clock stopwatch (nanosecond resolution).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulated wall time of the two query-processing phases the paper
/// reports separately (Figures 3 and 7).
struct PhaseTimes {
  double filter_ms = 0;
  double validate_ms = 0;

  double total_ms() const { return filter_ms + validate_ms; }
  void MergeFrom(const PhaseTimes& other) {
    filter_ms += other.filter_ms;
    validate_ms += other.validate_ms;
  }
};

}  // namespace topk

#endif  // TOPK_CORE_STATISTICS_H_
