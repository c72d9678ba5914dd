// One query split into disjoint id-range parts.
//
// The two exhaustive costs of an exact query both split cleanly by
// ranking id: F&V's posting union and validate (RangeSearch) and the
// LinearScan k-NN sweep (SweepNearest). Part p of P owns the ids in
// PartWindow(n, P, p); the windows tile [0, n) in ascending order, so
// range parts' ascending answers concatenate into the whole answer, and
// k-NN parts' best-j sets merge by (distance, id) into it.
//
// The kernel stays pool-agnostic: an IdSplit carries a PartRunner
// callable that runs body(worker, part) for every part and returns when
// all are done (PoolSplit hands it a ThreadPool's ParallelFor; a test can
// run the parts in a plain loop). Both serving callers — QueryFrontend
// for a lone request, ResilientReader for every snapshot read — split by
// the one policy below: kSplitParts windows, serial under
// kSplitMinVolume. Worker w owns workers[w] — its scratch and its
// counters — for the part it runs, and runs one part at a time, so a
// slot has exactly one writer and needs no lock. Counters tick into the
// running worker's Statistics; the caller merges them.
//
// Stops: each part polls its own copy of the query's QueryControl (a
// QueryControl serves one thread). A part that observes a stop makes the
// whole query stop: parts not yet started are skipped, and RunParts
// hands the stopped copy back to the caller's control and returns false.

#ifndef TOPK_KERNEL_ID_SPLIT_H_
#define TOPK_KERNEL_ID_SPLIT_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/deadline.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"

namespace topk {

/// Half-open ranking-id range [lo, hi).
struct IdWindow {
  RankingId lo = 0;
  RankingId hi = 0;
};

/// Every id a store can hold.
inline constexpr IdWindow kAllIds{0, kInvalidRankingId};

/// Part `part` of [0, n) cut into `parts` near-equal windows, ascending in
/// `part`. A window is empty when parts > n leaves it no id.
inline IdWindow PartWindow(size_t n, size_t parts, size_t part) {
  return IdWindow{static_cast<RankingId>(n * part / parts),
                  static_cast<RankingId>(n * (part + 1) / parts)};
}

/// body(worker, part) runs one part on worker slot `worker`.
using PartBody = std::function<void(size_t worker, size_t part)>;
/// Runs body(worker, part) exactly once for every part in [0, parts) and
/// returns after all finished; worker slots are < the split's worker
/// count and each runs one part at a time.
using PartRunner = std::function<void(size_t parts, const PartBody& body)>;

/// What one worker slot owns while it runs a part.
template <typename Scratch>
struct SplitWorker {
  Scratch* scratch;
  Statistics* stats;
};

/// A query split into `parts` id windows over `workers`.
template <typename Scratch>
struct IdSplit {
  size_t parts = 1;
  /// Work below which the query runs serial on the caller's scratch (a
  /// worker wake-up would cost more than the split saves): posting
  /// entries for a range query, rows for a k-NN sweep.
  size_t min_volume = 0;
  PartRunner run;
  std::span<const SplitWorker<Scratch>> workers;
};

/// The serving split policy: a split query runs as this many id windows,
/// work-shared over every executor. Many small windows keep the executors
/// evenly busy even where a store's ids cluster.
inline constexpr size_t kSplitParts = 32;
/// ...unless its selected posting lists hold fewer entries (range) or the
/// store fewer rows (k-NN) than this: then it stays serial on the caller,
/// because waking the workers would cost more than they save. (On a
/// 4-vCPU VM with 3 workers the join costs ~0.05-0.1 ms, and a split
/// F&V+Drop query on a 1M NYT-like store first wins at roughly 16k-48k
/// postings.)
inline constexpr size_t kSplitMinVolume = 32768;

/// The serving split: kSplitParts windows above kSplitMinVolume,
/// work-shared through `pool`'s ParallelFor, whose slot w runs on
/// workers[w] (slot 0 is the calling thread). `Pool` is ThreadPool
/// (harness/thread_pool.h); a template parameter so the kernel does not
/// depend on the harness. `pool` must outlive the split.
template <typename Scratch, typename Pool>
IdSplit<Scratch> PoolSplit(Pool* pool,
                           std::span<const SplitWorker<Scratch>> workers) {
  return IdSplit<Scratch>{
      kSplitParts, kSplitMinVolume,
      [pool](size_t parts, const PartBody& body) {
        pool->ParallelFor(parts, body);
      },
      workers};
}

/// Runs part(worker, p, part_control) for every p through split.run.
/// part_control is null when `control` is; otherwise it is the part's own
/// copy of *control. Returns true when no part stopped; otherwise copies a
/// stopped part's control into *control and returns false.
template <typename Scratch, typename Part>
bool RunParts(const IdSplit<Scratch>& split, QueryControl* control,
              const Part& part) {
  std::vector<QueryControl> controls(
      control != nullptr ? split.parts : 0,
      control != nullptr ? *control : QueryControl());
  std::atomic<bool> stopped{false};
  split.run(split.parts, [&](size_t worker, size_t p) {
    TOPK_DCHECK(worker < split.workers.size());
    if (stopped.load(std::memory_order_relaxed)) return;
    QueryControl* part_control = control != nullptr ? &controls[p] : nullptr;
    part(split.workers[worker], p, part_control);
    if (part_control != nullptr && part_control->stopped()) {
      stopped.store(true, std::memory_order_relaxed);
    }
  });
  if (!stopped.load(std::memory_order_relaxed)) return true;
  for (const QueryControl& part_control : controls) {
    if (part_control.stopped()) {
      *control = part_control;
      break;
    }
  }
  return false;
}

}  // namespace topk

#endif  // TOPK_KERNEL_ID_SPLIT_H_
