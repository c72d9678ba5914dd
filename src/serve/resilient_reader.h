// ResilientReader: degraded-read serving over a failing storage tier.
//
// The preferred read path is the mmap'd snapshot tier (zero-copy
// compressed postings, storage/snapshot.h): cheap to open, larger than
// RAM, but backed by a device that can fail *after* open — a torn cable
// or a dying disk surfaces as SIGBUS/EIO on first touch of a cold page,
// long after OpenStoreSnapshot validated the metadata. ResilientReader
// is the serving-side answer: every range query first probes the
// snapshot tier; a read fault there (modelled by the
// "serve.snapshot.query" failpoint — the hardware itself cannot be
// scripted in a test) trips a *sticky* degradation to the in-RAM store,
// the failing mapping is dropped, and serving continues without a
// user-visible error. Each degraded answer ticks kDegradedReads so an
// operator sees the fallback instead of discovering it from a latency
// regression, and RestoreSnapshotTier() re-arms the fast tier once the
// fault is cleared (it re-runs the SnapshotManager recovery scan, so a
// corrupted generation is quarantined rather than re-trusted).
//
// Exactness across tiers: both paths answer bit-identically for every
// theta, because both are one kernel RangeSearch call
// (kernel/range_search.h). The snapshot tier passes its compressed index
// with F&V+Drop (Lemma 2 list dropping, DropMode::kPositionRefined); the
// degraded RAM tier passes no index, so the full id domain is validated
// (the compressed postings lived in the dropped mapping). RangeSearch
// owns the theta >= dmax rule for both. tests/serve_robustness_test.cc
// differentials pin this.
//
// Split reads: the reader owns a ThreadPool of min(hardware threads,
// kSplitParts) - 1 workers (none on a one-CPU host, where every read runs
// inline). A snapshot-tier read hands RangeSearch a PoolSplit
// (kernel/id_split.h, the policy QueryFrontend's lone request shares):
// above kSplitMinVolume selected postings its posting union and validate
// run as kSplitParts id windows, work-shared between the caller (slot 0,
// on the caller's own scratch and counters) and the workers. There is no
// "lone" gate: the reader has no batch peers to keep busy, so every read
// above the floor splits, and concurrent readers share the workers. Each
// window decodes only the compressed blocks it meets
// (CompressedInvertedIndex::DecodeListInRange), so the parts together
// decode about what the serial query does. Worker slots 1..W borrow their
// RangeScratch from the same free-list as callers, per query, and tick
// private Statistics merged into the caller's after the join; the answer
// and every ticker but kBlocksDecoded equal the serial query's. The
// degraded RAM tier (no index) and theta >= dmax stay serial, as
// RangeSearch decides. Nothing is allocated up front: scratch is built on
// first use, so opening a generation costs only its mapping.
//
// Thread safety: any number of concurrent readers. The open generation
// is an immutable shared_ptr view; a query pins it under the leaf
// view_mutex_ (held only for the failpoint check and the pointer copy)
// and then runs lock-free on the pinned view with kernel scratch
// borrowed from a free-list (leaf pool_mutex_). Degrade and restore
// swap the pointer under view_mutex_, so they linearize against pins: a
// query pinned before a degrade or restore finishes on its old view
// (the mapping lives until its last reader drops it), one pinned after
// sees the new state. A split read's workers reach the mapping only
// through the caller's pin, which the caller holds until every part has
// joined, so a degrade mid-split drops the reader's reference while the
// parts finish on the old mapping. The split takes only pool_mutex_ (to
// borrow and return worker scratch) and the pool's queue mutex, both
// leaves, never under view_mutex_. Recovery scans run under the
// coordinator open_mutex_, never under view_mutex_, so serving continues
// during a scan. Deadlines/cancellation thread through QueryControl into
// the validate kernels at candidate granularity; each part of a split
// polls its own copy, and a stop in any part stops the read.

#ifndef TOPK_SERVE_RESILIENT_READER_H_
#define TOPK_SERVE_RESILIENT_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/mutex.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "core/types.h"
#include "harness/thread_pool.h"
#include "kernel/range_search.h"
#include "storage/snapshot_manager.h"

namespace topk {

struct ResilientReaderOptions {
  /// Directory holding gen-*.topksnp files (see SnapshotManager). Empty
  /// disables the snapshot tier entirely (RAM-only, never "degraded").
  std::string snapshot_dir;
  /// Forwarded to the SnapshotManager recovery scan.
  size_t keep_generations = 3;
};

class ResilientReader {
 public:
  /// `ram_store` must outlive the reader and hold the same logical
  /// contents as the snapshots in `snapshot_dir` (it is the fallback
  /// truth the degraded tier serves from). The snapshot tier starts
  /// closed; call OpenSnapshotTier().
  ResilientReader(const RankingStore* ram_store,
                  ResilientReaderOptions options);

  /// Opens the newest valid snapshot generation (quarantining corrupt
  /// ones — see SnapshotManager::OpenNewestValid) and makes it the
  /// preferred read tier. NotFound when no valid generation exists; the
  /// reader then keeps serving from RAM.
  Status OpenSnapshotTier(Statistics* stats = nullptr)
      TOPK_EXCLUDES(open_mutex_, view_mutex_);

  /// Operator lever after a degradation: re-runs the recovery scan and,
  /// on success, promotes the snapshot tier back to preferred.
  Status RestoreSnapshotTier(Statistics* stats = nullptr)
      TOPK_EXCLUDES(open_mutex_, view_mutex_);

  /// True once a snapshot-tier read fault tripped the fallback (sticky
  /// until RestoreSnapshotTier succeeds).
  bool degraded() const TOPK_EXCLUDES(view_mutex_);
  /// True while the snapshot tier is open and preferred.
  bool snapshot_open() const TOPK_EXCLUDES(view_mutex_);
  /// Generation of the open snapshot (0 when closed).
  uint64_t snapshot_generation() const TOPK_EXCLUDES(view_mutex_);
  /// Worker threads a split read runs on besides the caller (0: every
  /// read is serial).
  size_t split_workers() const { return split_pool_.num_workers(); }

  /// Exact range query (ascending ids) from whichever tier is healthy.
  /// On a deadline/cancel stop `*out` is left empty and the status is
  /// DeadlineExceeded / Aborted; a snapshot-tier fault never surfaces
  /// here — it degrades and the RAM tier answers.
  Status RangeQuery(const PreparedQuery& query, RawDistance theta_raw,
                    QueryControl* control, std::vector<RankingId>* out,
                    Statistics* stats = nullptr)
      TOPK_EXCLUDES(view_mutex_, pool_mutex_);

 private:
  using View = std::shared_ptr<const storage::OpenedSnapshot>;
  /// Per-query kernel scratch, borrowed from pool_ for one call.
  std::unique_ptr<RangeScratch> BorrowScratch() TOPK_EXCLUDES(pool_mutex_);
  void ReturnScratch(std::unique_ptr<RangeScratch> scratch)
      TOPK_EXCLUDES(pool_mutex_);
  /// RangeSearch over the pinned snapshot `view`, split over split_pool_:
  /// slot 0 runs on the caller's `scratch` and `stats`, slots 1..W on
  /// scratch borrowed for this query.
  bool SplitRangeSearch(const storage::OpenedSnapshot& view,
                        const PreparedQuery& query, RawDistance theta_raw,
                        RangeScratch* scratch, std::vector<RankingId>* out,
                        Statistics* stats, QueryControl* control)
      TOPK_EXCLUDES(pool_mutex_);

  const RankingStore* ram_store_;
  ResilientReaderOptions options_;

  Mutex open_mutex_;  // coordinator; taken before view_mutex_
  storage::SnapshotManager manager_ TOPK_GUARDED_BY(open_mutex_);

  mutable Mutex view_mutex_;
  View view_ TOPK_GUARDED_BY(view_mutex_);  // null: closed or degraded
  bool degraded_ TOPK_GUARDED_BY(view_mutex_) = false;

  Mutex pool_mutex_;
  std::vector<std::unique_ptr<RangeScratch>> pool_
      TOPK_GUARDED_BY(pool_mutex_);

  /// The split's workers; ParallelFor is safe to call from any number of
  /// readers at once (each call brings its own counter and slots).
  ThreadPool split_pool_;
};

}  // namespace topk

#endif  // TOPK_SERVE_RESILIENT_READER_H_
