// MutableStore: the system's live write path — inserts and deletes
// while serving, exact at every step.
//
// Everything below src/mutate/ is build-once-query-forever: the CSR
// PostingArena, the engines, the serve frontend all bind an immutable
// RankingStore. MutableStore layers mutability on top without giving up
// exactness, using the LSM-style split the ROADMAP sketches:
//
//   main segment    an immutable RankingStore + PlainInvertedIndex (the
//                   CSR arena), rebuilt only by merges;
//   delta segment   a small RankingStore + DeltaInvertedIndex that
//                   absorbs Insert() without any rebuild (the index
//                   extends its frozen item order incrementally);
//   tombstones      Delete() marks a global id dead; dead ids are
//                   filtered out of every candidate list BEFORE
//                   validation and physically dropped at the next merge.
//
// Queries merge main + sealed + delta exactly: each segment runs the
// same kernel RangeSearch every static engine uses (kernel/
// range_search.h, which owns the theta >= dmax rule) as F&V+Drop with
// kServingDrop (invidx/drop_policy.h), the one drop mode every serving
// read uses — Lemma 2's list dropping needs only each index's
// list_length, which the CSR main and the DeltaInvertedIndex segments
// both give. Locals map to global ids through strictly increasing
// per-segment maps, and the per-segment result lists concatenate in
// ascending global order (segment id ranges are disjoint and ordered).
// k-NN scans alive rows through the bound validator and truncates to the
// global (distance, id) order. Both answers are bit-identical to a store
// rebuilt from scratch out of the alive records in global-id order — the
// differential contract tests/mutate_store_test.cc and
// tests/adapt_delta_test.cc hold, including under TSan with concurrent
// writers and readers.
//
// Background merge (the RediSearch fork_gc.c shape — collect without
// blocking writers on the rebuild):
//
//   seal     O(1) under the store mutex: the active delta moves into a
//            sealed segment (the DeltaInvertedIndex moved-from state is
//            the fixed "empty, reusable" one), tombstones are
//            snapshotted, a fresh delta starts absorbing writes;
//   rebuild  OFF the lock: a new main segment is built from old main +
//            sealed minus the snapshotted tombstones, alive rows kept in
//            ascending global-id order, and its PlainInvertedIndex is
//            constructed — concurrent Insert/Delete proceed against the
//            fresh delta the whole time;
//   swap     O(1) under the mutex: the new segment is installed, the
//            consumed tombstones are erased (deletes that raced the
//            rebuild stay tombstoned and are compacted next round), and
//            the generation bumps.
//
// Queries and the swap serialize on one store mutex, so a reader never
// observes a half-installed segment; readers only ever wait for the O(1)
// seal/swap sections, never for the rebuild itself. The worker thread
// (options.merge_threshold > 0) runs this loop whenever the delta
// outgrows the threshold; MergeNow() runs one cycle on the caller.
//
// Generations: every successful mutation (Insert, Delete, merge swap)
// bumps an atomic generation and fires the registered mutation
// listeners under the store mutex, so an observer sees each change
// atomically with the store (scripts/check_invariants.py lints that
// every mutation entry point bumps). Listeners must be cheap, must not
// call back into the store, and must not take locks ordered above it
// (DESIGN.md records the hierarchy: coordinator > store > leaf).
//
// Deadlines: both queries poll their QueryControl once on entry, before
// they take the store mutex, so an expired or cancelled read fails fast
// instead of queueing behind a seal or swap; the kernels poll again
// inside. serve/LiveFrontend adds only admission on top.

#ifndef TOPK_MUTATE_MUTABLE_STORE_H_
#define TOPK_MUTATE_MUTABLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "adapt/delta_inverted_index.h"
#include "core/deadline.h"
#include "core/mutex.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/thread_annotations.h"
#include "core/types.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/range_search.h"
#include "metric/knn.h"

namespace topk {

namespace storage {
class SnapshotManager;
}  // namespace storage

struct MutableStoreOptions {
  /// Delta size at which the background worker seals and merges. 0 means
  /// no worker thread is spawned — merges happen only via MergeNow()
  /// (the deterministic mode tests and single-threaded callers use).
  size_t merge_threshold = 0;

  /// When non-empty, every successful merge also persists the freshly
  /// rebuilt main segment as a compressed storage snapshot
  /// (storage/snapshot.h) through a storage::SnapshotManager on this
  /// directory: each emission is a new crash-safe generation, the newest
  /// snapshot_keep_generations are retained, and recovery
  /// (SnapshotManager::OpenNewestValid on the same directory) survives
  /// a SIGKILL at any point of any write. The write runs OFF the store
  /// mutex, after the swap: writers and readers proceed against the
  /// installed segment while the file is emitted, and the next merge
  /// waits for it, so generations land in merge order. The snapshot
  /// freezes the segment's rows in physical order (its dense local ids,
  /// not the sparse global ids) — it is a serving image for the frozen
  /// mmap tier, not a replayable WAL. Failures are recorded, not thrown:
  /// poll last_snapshot_status().
  std::string snapshot_dir;
  size_t snapshot_keep_generations = 3;

  /// Merge/emission retry policy: a failed rebuild or snapshot write is
  /// retried up to merge_max_attempts times with exponential backoff
  /// (initial -> max ms, deterministic jitter). When every rebuild
  /// attempt fails the merge circuit opens: background merging stops,
  /// the sealed + delta segments keep serving exactly (degraded but
  /// correct), and MergeNow() / ResetMergeCircuit() close the circuit
  /// again.
  int merge_max_attempts = 3;
  double merge_backoff_initial_ms = 1.0;
  double merge_backoff_max_ms = 100.0;
};

class MutableStore {
 public:
  /// An empty store of rankings of size `k` (k >= 1).
  explicit MutableStore(uint32_t k, MutableStoreOptions options = {});

  /// Seeds the main segment with a copy of `initial` (global ids
  /// 0..initial.size()-1) and builds its inverted index.
  explicit MutableStore(const RankingStore& initial,
                        MutableStoreOptions options = {});

  ~MutableStore();

  MutableStore(const MutableStore&) = delete;
  MutableStore& operator=(const MutableStore&) = delete;

  uint32_t k() const { return k_; }

  /// Appends one ranking (size k, duplicate-free) and returns its global
  /// id. Global ids are dense in insertion order and never reused —
  /// a delete-then-reinsert of the same content gets a fresh id.
  RankingId Insert(RankingView record) TOPK_EXCLUDES(mutex_);

  /// Tombstones `id`. Returns false (and changes nothing) when the id was
  /// never assigned or is already dead; the row is physically dropped at
  /// the next merge.
  bool Delete(RankingId id) TOPK_EXCLUDES(mutex_);

  /// Whether `id` is alive (assigned, not deleted).
  bool Contains(RankingId id) const TOPK_EXCLUDES(mutex_);

  /// All alive rankings within `theta_raw` of `query`, ascending global
  /// ids — bit-identical to FilterValidateEngine/BruteForce over a store
  /// rebuilt from the alive rows (exact for every theta including dmax,
  /// where disjoint rankings qualify and the posting union is bypassed).
  std::vector<RankingId> RangeQuery(const PreparedQuery& query,
                                    RawDistance theta_raw,
                                    Statistics* stats = nullptr)
      TOPK_EXCLUDES(mutex_);

  /// Deadline/cancel-aware range query: cooperative checks run on entry
  /// (before the store mutex) and at segment and validation-batch
  /// granularity through `control` (nullptr = unconstrained). On a stop
  /// the partial answer is discarded, `out` is cleared, kDeadlineExceeded
  /// ticks, and the status is DeadlineExceeded (clock) or Aborted (cancel
  /// token).
  Status RangeQuery(const PreparedQuery& query, RawDistance theta_raw,
                    QueryControl* control, std::vector<RankingId>* out,
                    Statistics* stats = nullptr) TOPK_EXCLUDES(mutex_);

  /// The j alive rankings nearest to `query`, sorted by (distance,
  /// global id), exactly min(j, live_size()) entries — bit-identical to
  /// LinearScanKnn over the rebuilt store. Deadline/cancel-aware through
  /// `control` (nullptr = unconstrained; same stop contract as the range
  /// overload, with per-row amortized checks).
  Status KnnQuery(const PreparedQuery& query, size_t j,
                  QueryControl* control, std::vector<Neighbor>* out,
                  Statistics* stats = nullptr) TOPK_EXCLUDES(mutex_);

  /// Runs one seal -> rebuild -> swap cycle on the calling thread (waits
  /// first if another merge is in flight). Also the operator's recovery
  /// lever: an open merge circuit is closed before the attempt. Returns
  /// true iff a merged segment was installed — false when there was
  /// nothing to merge OR when every rebuild attempt failed and the
  /// circuit (re)opened; poll last_merge_status() to tell which.
  bool MergeNow() TOPK_EXCLUDES(mutex_);

  /// Outcome of the most recent merge cycle (OK until one fails).
  Status last_merge_status() const TOPK_EXCLUDES(mutex_);
  /// Whether the merge circuit breaker is open (background merging
  /// suspended after merge_max_attempts consecutive rebuild failures;
  /// sealed + delta keep serving exactly).
  bool merge_circuit_open() const TOPK_EXCLUDES(mutex_);
  /// Closes an open circuit so the background worker may merge again.
  void ResetMergeCircuit() TOPK_EXCLUDES(mutex_);
  /// Rebuild/emission attempts that failed, each counted whether it was
  /// retried or was the last; tests read this where no Statistics flows.
  uint64_t merge_retries() const {
    return merge_retries_.load(std::memory_order_acquire);
  }

  /// Outcome of the most recent merge-emitted snapshot write (OK until
  /// the first one happens). Meaningful only with a non-empty
  /// options.snapshot_dir.
  Status last_snapshot_status() const TOPK_EXCLUDES(mutex_);

  /// Registers `listener` to run (under the store mutex) after every
  /// successful mutation — see the header contract.
  void AddMutationListener(std::function<void()> listener)
      TOPK_EXCLUDES(mutex_);

  /// Monotone mutation generation, starting at 1 (0 is never published,
  /// matching the tree-wide reserved-zero epoch rule). Readable without
  /// the store mutex.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Alive rankings (inserted and not deleted).
  size_t live_size() const TOPK_EXCLUDES(mutex_);
  /// Rankings currently in the active delta segment (resets at a seal).
  size_t delta_size() const TOPK_EXCLUDES(mutex_);
  /// Tombstoned rankings not yet physically dropped by a merge.
  size_t tombstone_count() const TOPK_EXCLUDES(mutex_);
  /// Global ids assigned so far (== next id to be assigned).
  size_t total_inserted() const TOPK_EXCLUDES(mutex_);

 private:
  /// Both public constructors: seeds the main segment from `initial`
  /// when non-null, then creates the snapshot manager, and starts the
  /// merge worker last, once everything it reads is in place.
  MutableStore(uint32_t k, const RankingStore* initial,
               MutableStoreOptions options);

  /// The immutable merged portion: rebuilt as a whole by merges, shared
  /// with in-flight rebuilds via shared_ptr (readers under the mutex,
  /// the rebuild off it — contents never mutate after construction).
  struct MainSegment {
    explicit MainSegment(uint32_t k) : store(k) {}
    RankingStore store;
    PlainInvertedIndex index;
    /// Physical row -> global id, strictly increasing.
    std::vector<RankingId> global_ids;
  };

  /// A delta segment: the active one absorbs inserts; a sealed one is an
  /// immutable snapshot being folded into the next main segment.
  struct DeltaSegment {
    explicit DeltaSegment(uint32_t k) : store(k) {}
    DeltaSegment(DeltaSegment&&) = default;
    RankingStore store;
    DeltaInvertedIndex index;
    std::vector<RankingId> global_ids;
  };

  void BumpGenerationLocked() TOPK_REQUIRES(mutex_);
  /// O(1): moves the active delta into sealed_ and starts a fresh one.
  void SealLocked() TOPK_REQUIRES(mutex_);
  /// O(1): installs the rebuilt segment, retires consumed tombstones.
  void InstallMergedLocked(std::shared_ptr<const MainSegment> next,
                           const std::unordered_set<RankingId>& consumed)
      TOPK_REQUIRES(mutex_);
  bool ContainsLocked(RankingId id) const TOPK_REQUIRES(mutex_);

  /// The off-lock rebuild: alive rows of `main` then `sealed`, ascending
  /// global ids, minus `dead`; builds the new CSR inverted index.
  std::shared_ptr<const MainSegment> BuildMergedSegment(
      const MainSegment& main, const DeltaSegment& sealed,
      const std::unordered_set<RankingId>& dead) const;

  /// The inputs one merge cycle owns while it rebuilds off the lock.
  struct MergeClaim {
    std::shared_ptr<const MainSegment> main;
    std::shared_ptr<const DeltaSegment> sealed;
    /// Tombstones the rebuild drops, retired at the swap.
    std::unordered_set<RankingId> consumed;
  };

  /// Claims the merge (sets merge_in_flight_) and snapshots its inputs:
  /// seals the active delta, or reuses a sealed segment left over from a
  /// failed cycle, consuming only the tombstones on rows it drops.
  MergeClaim ClaimMergeLocked() TOPK_REQUIRES(mutex_);

  /// Off-lock tail of a claimed merge cycle (rebuild with retries, then
  /// install or open the circuit, then emit the snapshot); releases the
  /// claim only after the emission, so emissions never overlap.
  bool FinishMergeCycle(MergeClaim claim) TOPK_EXCLUDES(mutex_);

  /// The retry policy: runs `attempt` (true on success) up to
  /// merge_max_attempts times, sleeping an exponential backoff with
  /// deterministic jitter between tries, and counts every failed try in
  /// merge_retries_. True iff some try succeeded.
  template <typename Attempt>
  bool RetryWithBackoff(const Attempt& attempt);

  void MergeWorkerLoop() TOPK_EXCLUDES(mutex_);

  /// Off-lock snapshot emission of a freshly installed main segment
  /// (no-op without a snapshot_dir); records the outcome in
  /// last_snapshot_status_.
  void MaybeEmitSnapshot(const MainSegment& segment) TOPK_EXCLUDES(mutex_);

  /// Range search over one segment: the kernel RangeSearch with
  /// kServingDrop over its index, tombstones as the keep-predicate
  /// (dropped BEFORE validation), the accepted locals appended to `out`
  /// as global ids. False when `control` stopped the query.
  template <typename Index>
  bool CollectRangeLocked(const RankingStore& seg_store, const Index& index,
                          const std::vector<RankingId>& global_ids,
                          RankingView query, RawDistance theta_raw,
                          std::vector<RankingId>* out, Statistics* stats,
                          QueryControl* control) TOPK_REQUIRES(mutex_);

  /// k-NN for one segment: every live row offered into `heap` under its
  /// global id.
  void CollectKnnLocked(const RankingStore& seg_store,
                        const std::vector<RankingId>& global_ids,
                        RankingView query, NeighborHeap* heap,
                        Statistics* stats, QueryControl* control)
      TOPK_REQUIRES(mutex_);

  const uint32_t k_;
  const MutableStoreOptions options_;

  /// The store mutex: serializes mutations, queries, and the merge's
  /// O(1) seal/swap sections (never the rebuild). Ordered below the
  /// serve/harness coordinators and above DeltaInvertedIndex::mutex_.
  mutable Mutex mutex_;
  CondVar merge_cv_;

  std::shared_ptr<const MainSegment> main_ TOPK_GUARDED_BY(mutex_);
  /// Non-null while a sealed segment awaits merging. Usually that means
  /// a merge is in flight, but after a failed cycle (open circuit) the
  /// sealed segment outlives the attempt and keeps serving — the
  /// in-flight claim is merge_in_flight_, not this pointer.
  std::shared_ptr<const DeltaSegment> sealed_ TOPK_GUARDED_BY(mutex_);
  DeltaSegment delta_ TOPK_GUARDED_BY(mutex_);
  /// Dead global ids still physically present in some segment.
  std::unordered_set<RankingId> tombstones_ TOPK_GUARDED_BY(mutex_);
  RankingId next_global_id_ TOPK_GUARDED_BY(mutex_) = 0;
  std::vector<std::function<void()>> listeners_ TOPK_GUARDED_BY(mutex_);
  bool stop_worker_ TOPK_GUARDED_BY(mutex_) = false;
  /// Exactly one merge cycle owns the rebuild, the swap and the
  /// snapshot emission at a time.
  bool merge_in_flight_ TOPK_GUARDED_BY(mutex_) = false;
  /// Open after merge_max_attempts consecutive rebuild failures; the
  /// worker stops attempting until MergeNow()/ResetMergeCircuit().
  bool merge_circuit_open_ TOPK_GUARDED_BY(mutex_) = false;
  Status last_merge_status_ TOPK_GUARDED_BY(mutex_);
  Status last_snapshot_status_ TOPK_GUARDED_BY(mutex_);

  /// Query scratch, reused across queries (queries serialize on mutex_).
  RangeScratch scratch_ TOPK_GUARDED_BY(mutex_);

  /// Starts at 1: generation 0 is never published (reserved-zero rule).
  std::atomic<uint64_t> generation_{1};

  /// Failed rebuild/emission attempts (monotone).
  std::atomic<uint64_t> merge_retries_{0};

  /// Crash-safe generation lifecycle when options_.snapshot_dir is set;
  /// emissions are serialized by the merge_in_flight_ claim.
  std::unique_ptr<storage::SnapshotManager> snapshot_manager_;

  std::thread merge_worker_;
};

}  // namespace topk

#endif  // TOPK_MUTATE_MUTABLE_STORE_H_
