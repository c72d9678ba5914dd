#include "mutate/mutable_store.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <new>
#include <numeric>
#include <utility>

#include "core/failpoint.h"
#include "invidx/drop_policy.h"
#include "storage/compressed_arena.h"
#include "storage/snapshot_manager.h"

namespace topk {

namespace {

// splitmix64 drives the deterministic backoff jitter (same mixer the
// failpoint registry uses for probability thinning).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

MutableStore::MutableStore(uint32_t k, MutableStoreOptions options)
    : MutableStore(k, nullptr, std::move(options)) {}

MutableStore::MutableStore(const RankingStore& initial,
                           MutableStoreOptions options)
    : MutableStore(initial.k(), &initial, std::move(options)) {}

MutableStore::MutableStore(uint32_t k, const RankingStore* initial,
                           MutableStoreOptions options)
    : k_(k), options_(std::move(options)), delta_(k) {
  TOPK_DCHECK(k > 0);
  auto main = std::make_shared<MainSegment>(k_);
  if (initial != nullptr) {
    main->store = *initial;
    main->index = PlainInvertedIndex::Build(main->store);
    main->global_ids.resize(initial->size());
    std::iota(main->global_ids.begin(), main->global_ids.end(),
              RankingId{0});
    next_global_id_ = static_cast<RankingId>(initial->size());
  }
  main_ = std::move(main);
  if (!options_.snapshot_dir.empty()) {
    snapshot_manager_ = std::make_unique<storage::SnapshotManager>(
        options_.snapshot_dir,
        storage::SnapshotManagerOptions{options_.snapshot_keep_generations});
  }
  if (options_.merge_threshold > 0) {
    merge_worker_ = std::thread([this] { MergeWorkerLoop(); });
  }
}

MutableStore::~MutableStore() {
  if (merge_worker_.joinable()) {
    {
      MutexLock lock(&mutex_);
      stop_worker_ = true;
    }
    merge_cv_.NotifyAll();
    merge_worker_.join();
  }
}

RankingId MutableStore::Insert(RankingView record) {
  MutexLock lock(&mutex_);
  TOPK_DCHECK(record.k() == k_);
  const RankingId local = delta_.store.AddUnchecked(record.items());
  // Index the stored copy, not the caller's buffer: the view must stay
  // valid for as long as the index entry does.
  delta_.index.Insert(local, delta_.store.view(local));
  const RankingId global = next_global_id_++;
  delta_.global_ids.push_back(global);
  BumpGenerationLocked();
  if (options_.merge_threshold > 0 &&
      delta_.store.size() >= options_.merge_threshold) {
    merge_cv_.NotifyAll();
  }
  return global;
}

bool MutableStore::Delete(RankingId id) {
  MutexLock lock(&mutex_);
  if (!ContainsLocked(id)) return false;
  tombstones_.insert(id);
  BumpGenerationLocked();
  return true;
}

bool MutableStore::Contains(RankingId id) const {
  MutexLock lock(&mutex_);
  return ContainsLocked(id);
}

bool MutableStore::ContainsLocked(RankingId id) const {
  if (tombstones_.count(id) != 0) return false;
  const auto present = [id](const std::vector<RankingId>& ids) {
    return std::binary_search(ids.begin(), ids.end(), id);
  };
  // Newest segments first: a fresh id is most likely in the delta.
  if (present(delta_.global_ids)) return true;
  if (sealed_ != nullptr && present(sealed_->global_ids)) return true;
  return present(main_->global_ids);
}

size_t MutableStore::live_size() const {
  MutexLock lock(&mutex_);
  // Every tombstone refers to a physically present row (consumed ones
  // are erased at the swap), so alive = physical - tombstoned.
  const size_t physical = main_->store.size() + delta_.store.size() +
                          (sealed_ != nullptr ? sealed_->store.size() : 0);
  return physical - tombstones_.size();
}

size_t MutableStore::delta_size() const {
  MutexLock lock(&mutex_);
  return delta_.store.size();
}

size_t MutableStore::tombstone_count() const {
  MutexLock lock(&mutex_);
  return tombstones_.size();
}

size_t MutableStore::total_inserted() const {
  MutexLock lock(&mutex_);
  return next_global_id_;
}

void MutableStore::AddMutationListener(std::function<void()> listener) {
  MutexLock lock(&mutex_);
  listeners_.push_back(std::move(listener));
}

void MutableStore::BumpGenerationLocked() {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (const auto& listener : listeners_) listener();
}

template <typename Index>
bool MutableStore::CollectRangeLocked(const RankingStore& seg_store,
                                      const Index& index,
                                      const std::vector<RankingId>& global_ids,
                                      RankingView query, RawDistance theta_raw,
                                      std::vector<RankingId>* out,
                                      Statistics* stats,
                                      QueryControl* control) {
  // Tombstoned rows are dropped BEFORE validation: a dead row never
  // costs a distance call.
  const std::unordered_set<RankingId>& dead = tombstones_;
  const auto alive = [&dead, &global_ids](RankingId local) {
    return dead.count(global_ids[local]) == 0;
  };
  const size_t first = out->size();
  if (!RangeSearch(seg_store, &index, query, theta_raw, DropMode::kNone,
                   &scratch_, out, stats, control, alive)) {
    return false;
  }
  for (size_t i = first; i < out->size(); ++i) {
    (*out)[i] = global_ids[(*out)[i]];
  }
  return true;
}

std::vector<RankingId> MutableStore::RangeQuery(const PreparedQuery& query,
                                                RawDistance theta_raw,
                                                Statistics* stats) {
  std::vector<RankingId> out;
  const Status status = RangeQuery(query, theta_raw, nullptr, &out, stats);
  TOPK_DCHECK(status.ok());  // unconstrained queries cannot stop
  (void)status;
  return out;
}

Status MutableStore::RangeQuery(const PreparedQuery& query,
                                RawDistance theta_raw, QueryControl* control,
                                std::vector<RankingId>* out,
                                Statistics* stats) {
  MutexLock lock(&mutex_);
  TOPK_DCHECK(query.k() == k_);
  out->clear();
  // Each segment appends its answer in ascending local order, which the
  // strictly increasing global-id maps keep ascending; segment id ranges
  // are disjoint and ordered (main < sealed < delta), so the appended
  // whole ascends too.
  const bool completed =
      CollectRangeLocked(main_->store, main_->index, main_->global_ids,
                         query.view(), theta_raw, out, stats, control) &&
      (sealed_ == nullptr ||
       CollectRangeLocked(sealed_->store, sealed_->index, sealed_->global_ids,
                          query.view(), theta_raw, out, stats, control)) &&
      CollectRangeLocked(delta_.store, delta_.index, delta_.global_ids,
                         query.view(), theta_raw, out, stats, control);
  if (!completed) {
    // Partial per-segment results are not an answer; discard them so a
    // caller can never mistake a timed-out query for a small result.
    out->clear();
    return StopStatus(*control, stats);
  }
  TOPK_DCHECK(std::is_sorted(out->begin(), out->end()));
  return Status::OK();
}

void MutableStore::CollectKnnLocked(const RankingStore& seg_store,
                                    const std::vector<RankingId>& global_ids,
                                    RankingView query, NeighborHeap* heap,
                                    Statistics* stats,
                                    QueryControl* control) {
  if (seg_store.empty()) return;
  FootruleValidator& validator = scratch_.validator;
  validator.BindQuery(query, static_cast<size_t>(seg_store.max_item()) + 1);
  const auto n = static_cast<RankingId>(seg_store.size());
  for (RankingId local = 0; local < n; ++local) {
    // ShouldStop amortizes its own clock reads, so the per-row cost is a
    // countdown compare.
    if (control != nullptr && control->ShouldStop()) return;
    const RankingId global = global_ids[local];
    if (tombstones_.count(global) != 0) continue;
    AddTicker(stats, Ticker::kDistanceCalls);
    heap->Offer(global, validator.Distance(seg_store.view(local)));
  }
}

std::vector<Neighbor> MutableStore::KnnQuery(const PreparedQuery& query,
                                             size_t j, Statistics* stats) {
  std::vector<Neighbor> out;
  const Status status = KnnQuery(query, j, nullptr, &out, stats);
  TOPK_DCHECK(status.ok());  // unconstrained queries cannot stop
  (void)status;
  return out;
}

Status MutableStore::KnnQuery(const PreparedQuery& query, size_t j,
                              QueryControl* control,
                              std::vector<Neighbor>* out, Statistics* stats) {
  MutexLock lock(&mutex_);
  TOPK_DCHECK(query.k() == k_);
  out->clear();
  NeighborHeap heap(j);
  CollectKnnLocked(main_->store, main_->global_ids, query.view(), &heap,
                   stats, control);
  if (sealed_ != nullptr) {
    CollectKnnLocked(sealed_->store, sealed_->global_ids, query.view(), &heap,
                     stats, control);
  }
  CollectKnnLocked(delta_.store, delta_.global_ids, query.view(), &heap,
                   stats, control);
  if (control != nullptr && control->stopped()) {
    return StopStatus(*control, stats);
  }
  *out = std::move(heap).Finish();
  return Status::OK();
}

void MutableStore::SealLocked() {
  auto sealed = std::make_shared<DeltaSegment>(std::move(delta_));
  // The fresh delta reuses the moved-from DeltaInvertedIndex directly:
  // the fixed move operations leave it in the documented empty state
  // (regression-pinned in adapt_delta_test). RankingStore's implicit
  // move keeps its scalar fields, so the store is re-made explicitly.
  delta_.store = RankingStore(k_);
  delta_.global_ids.clear();
  sealed_ = std::move(sealed);
}

void MutableStore::InstallMergedLocked(
    std::shared_ptr<const MainSegment> next,
    const std::unordered_set<RankingId>& consumed) {
  main_ = std::move(next);
  sealed_.reset();
  // Tombstones the rebuild consumed are physically gone; ones added
  // while it ran still refer to rows in the new main or the fresh delta
  // and keep filtering until the next merge compacts them.
  for (const RankingId id : consumed) tombstones_.erase(id);
  BumpGenerationLocked();
  merge_cv_.NotifyAll();
}

std::shared_ptr<const MutableStore::MainSegment>
MutableStore::BuildMergedSegment(
    const MainSegment& main, const DeltaSegment& sealed,
    const std::unordered_set<RankingId>& dead) const {
  auto next = std::make_shared<MainSegment>(k_);
  next->store.Reserve(main.store.size() + sealed.store.size());
  next->global_ids.reserve(main.store.size() + sealed.store.size());
  const auto append_alive = [&next, &dead](
                                const RankingStore& store,
                                const std::vector<RankingId>& globals) {
    const auto n = static_cast<RankingId>(store.size());
    for (RankingId local = 0; local < n; ++local) {
      const RankingId global = globals[local];
      if (dead.count(global) != 0) continue;
      next->store.AddUnchecked(store.view(local).items());
      next->global_ids.push_back(global);
    }
  };
  // Main then sealed keeps global ids ascending: every main id predates
  // every sealed id (ids are assigned in insert order and merges fold
  // oldest-first).
  append_alive(main.store, main.global_ids);
  append_alive(sealed.store, sealed.global_ids);
  next->index = PlainInvertedIndex::Build(next->store);
  return next;
}

void MutableStore::BackoffSleep(int attempt) const {
  const int shift = std::min(attempt - 1, 20);
  const double base =
      options_.merge_backoff_initial_ms * static_cast<double>(1ull << shift);
  const double capped =
      std::min(base, std::max(options_.merge_backoff_max_ms,
                              options_.merge_backoff_initial_ms));
  // Deterministic full jitter in [capped/2, capped]: decorrelates
  // colliding retriers without nondeterminism in tests.
  const uint64_t mixed = SplitMix64(options_.merge_backoff_seed ^
                                    static_cast<uint64_t>(attempt));
  const double fraction = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  const double ms = capped * (0.5 + 0.5 * fraction);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

std::shared_ptr<const MutableStore::MainSegment>
MutableStore::BuildMergedSegmentWithRetries(
    const MainSegment& main, const DeltaSegment& sealed,
    const std::unordered_set<RankingId>& dead) {
  const int max_attempts = std::max(1, options_.merge_max_attempts);
  for (int attempt = 1;; ++attempt) {
    if (!TOPK_FAILPOINT("mutate.merge.rebuild")) {
      try {
        return BuildMergedSegment(main, sealed, dead);
      } catch (const std::bad_alloc&) {
        // Allocation pressure is the one real-world failure a rebuild
        // has; it is exactly as transient as an injected fault.
      }
    }
    merge_retries_.fetch_add(1, std::memory_order_acq_rel);
    if (attempt >= max_attempts) return nullptr;
    BackoffSleep(attempt);
  }
}

bool MutableStore::FinishMergeCycle(
    std::shared_ptr<const MainSegment> main_snapshot,
    std::shared_ptr<const DeltaSegment> sealed_snapshot,
    std::unordered_set<RankingId> consumed) {
  // The rebuild runs with no lock held: writers land in the fresh
  // delta and readers query main + sealed + delta the whole time.
  auto next = BuildMergedSegmentWithRetries(*main_snapshot, *sealed_snapshot,
                                            consumed);
  {
    MutexLock lock(&mutex_);
    merge_in_flight_ = false;
    if (next == nullptr) {
      // Circuit breaker: stop burning rebuild attempts. The sealed
      // segment stays installed and keeps serving exactly alongside the
      // delta (degraded but correct); MergeNow()/ResetMergeCircuit()
      // close the circuit.
      merge_circuit_open_ = true;
      last_merge_status_ = Status::Aborted(
          "merge rebuild failed after " +
          std::to_string(std::max(1, options_.merge_max_attempts)) +
          " attempts; circuit open, serving from sealed + delta");
      merge_cv_.NotifyAll();
      return false;
    }
    last_merge_status_ = Status::OK();
    InstallMergedLocked(next, consumed);
  }
  MaybeEmitSnapshot(*next);
  return true;
}

bool MutableStore::MergeNow() {
  std::shared_ptr<const MainSegment> main_snapshot;
  std::shared_ptr<const DeltaSegment> sealed_snapshot;
  std::unordered_set<RankingId> consumed;
  {
    MutexLock lock(&mutex_);
    while (merge_in_flight_) merge_cv_.Wait(mutex_);
    // An explicit MergeNow doubles as the recovery lever: close an open
    // circuit and try again.
    merge_circuit_open_ = false;
    if (sealed_ == nullptr && delta_.store.empty() && tombstones_.empty()) {
      return false;
    }
    merge_in_flight_ = true;
    if (sealed_ == nullptr) {
      SealLocked();
      consumed = tombstones_;  // delta is now empty: all are consumable
    } else {
      // A sealed segment left over from a failed cycle: the active delta
      // has kept absorbing writes since, so only tombstones on rows this
      // rebuild actually drops may be retired at the swap — erasing a
      // delta-row tombstone here would resurrect the row.
      for (const RankingId id : tombstones_) {
        if (std::binary_search(main_->global_ids.begin(),
                               main_->global_ids.end(), id) ||
            std::binary_search(sealed_->global_ids.begin(),
                               sealed_->global_ids.end(), id)) {
          consumed.insert(id);
        }
      }
    }
    main_snapshot = main_;
    sealed_snapshot = sealed_;
  }
  return FinishMergeCycle(std::move(main_snapshot),
                          std::move(sealed_snapshot), std::move(consumed));
}

void MutableStore::MergeWorkerLoop() {
  while (true) {
    std::shared_ptr<const MainSegment> main_snapshot;
    std::shared_ptr<const DeltaSegment> sealed_snapshot;
    std::unordered_set<RankingId> consumed;
    {
      MutexLock lock(&mutex_);
      while (!stop_worker_ &&
             (merge_in_flight_ || merge_circuit_open_ ||
              delta_.store.size() < options_.merge_threshold)) {
        merge_cv_.Wait(mutex_);
      }
      if (stop_worker_) return;
      merge_in_flight_ = true;
      if (sealed_ == nullptr) {
        SealLocked();
        consumed = tombstones_;
      } else {
        // Same leftover-sealed rule as MergeNow (see there).
        for (const RankingId id : tombstones_) {
          if (std::binary_search(main_->global_ids.begin(),
                                 main_->global_ids.end(), id) ||
              std::binary_search(sealed_->global_ids.begin(),
                                 sealed_->global_ids.end(), id)) {
            consumed.insert(id);
          }
        }
      }
      main_snapshot = main_;
      sealed_snapshot = sealed_;
    }
    FinishMergeCycle(std::move(main_snapshot), std::move(sealed_snapshot),
                     std::move(consumed));
  }
}

void MutableStore::MaybeEmitSnapshot(const MainSegment& segment) {
  if (snapshot_manager_ == nullptr) return;
  Status status;
  if (segment.store.empty()) {
    // WriteStoreSnapshot rejects empty stores; a merge that compacted
    // everything away simply leaves the previous snapshot in place.
    status = Status::FailedPrecondition(
        "merge produced an empty segment; snapshot not rewritten");
  } else {
    const auto arena = storage::CompressedPostingArena<RankingId>::FromArena(
        segment.index.arena());
    // Emission gets the same retry-with-backoff treatment as the
    // rebuild: a transient write failure must not cost the durability of
    // this merge's image. Exhausted attempts are recorded, not thrown —
    // the in-RAM store is unaffected either way.
    const int max_attempts = std::max(1, options_.merge_max_attempts);
    for (int attempt = 1;; ++attempt) {
      if (TOPK_FAILPOINT("mutate.snapshot.emit")) {
        status = Status::IOError("injected failure: mutate.snapshot.emit");
      } else {
        status = snapshot_manager_->WriteSnapshot(segment.store, arena);
      }
      if (status.ok() || attempt >= max_attempts) break;
      merge_retries_.fetch_add(1, std::memory_order_acq_rel);
      BackoffSleep(attempt);
    }
  }
  MutexLock lock(&mutex_);
  last_snapshot_status_ = status;
}

Status MutableStore::last_snapshot_status() const {
  MutexLock lock(&mutex_);
  return last_snapshot_status_;
}

Status MutableStore::last_merge_status() const {
  MutexLock lock(&mutex_);
  return last_merge_status_;
}

bool MutableStore::merge_circuit_open() const {
  MutexLock lock(&mutex_);
  return merge_circuit_open_;
}

void MutableStore::ResetMergeCircuit() {
  {
    MutexLock lock(&mutex_);
    merge_circuit_open_ = false;
  }
  merge_cv_.NotifyAll();
}

}  // namespace topk
