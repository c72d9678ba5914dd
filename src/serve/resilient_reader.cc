#include "serve/resilient_reader.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/failpoint.h"
#include "invidx/drop_policy.h"
#include "kernel/id_split.h"

namespace topk {

namespace {

/// Workers besides the caller: one per further hardware thread, at most
/// one per further part.
size_t SplitWorkerCount() {
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min(threads, kSplitParts) - 1;
}

}  // namespace

ResilientReader::ResilientReader(const RankingStore* ram_store,
                                 ResilientReaderOptions options)
    : ram_store_(ram_store),
      options_(std::move(options)),
      manager_(options_.snapshot_dir,
               storage::SnapshotManagerOptions{options_.keep_generations}),
      split_pool_(SplitWorkerCount()) {}

Status ResilientReader::OpenSnapshotTier(Statistics* stats) {
  if (options_.snapshot_dir.empty()) {
    return Status::InvalidArgument("no snapshot_dir configured");
  }
  // SnapshotManager is externally synchronized: open_mutex_ serializes
  // the scans, while readers keep being served from the current view.
  MutexLock open_lock(&open_mutex_);
  Result<storage::OpenedSnapshot> opened = manager_.OpenNewestValid(stats);
  if (!opened.ok()) return opened.status();
  View next = std::make_shared<const storage::OpenedSnapshot>(
      std::move(opened).ValueOrDie());
  MutexLock view_lock(&view_mutex_);
  view_.swap(next);  // the old view is released after the unlock
  degraded_ = false;
  return Status::OK();
}

bool ResilientReader::degraded() const {
  MutexLock lock(&view_mutex_);
  return degraded_;
}

bool ResilientReader::snapshot_open() const {
  MutexLock lock(&view_mutex_);
  return view_ != nullptr;
}

uint64_t ResilientReader::snapshot_generation() const {
  MutexLock lock(&view_mutex_);
  return view_ != nullptr ? view_->generation : 0;
}

Status ResilientReader::RangeQuery(const PreparedQuery& query,
                                   RawDistance theta_raw,
                                   QueryControl* control,
                                   std::vector<RankingId>* out,
                                   Statistics* stats) {
  out->clear();
  if (control != nullptr && control->ShouldStop()) {
    return StopStatus(*control, stats);
  }
  View view;
  View dropped;  // a faulted view, released after the unlock
  bool degraded = false;
  {
    MutexLock lock(&view_mutex_);
    // The failpoint stands in for the unscriptable hardware fault: a
    // cold mmap page whose backing device died surfaces here, on first
    // touch, not at open time. Degradation is sticky — one fault means
    // the mapping cannot be trusted for any later page either.
    if (view_ != nullptr && TOPK_FAILPOINT("serve.snapshot.query")) {
      degraded_ = true;
      dropped = std::move(view_);  // in-flight readers keep their pin
    }
    view = view_;
    degraded = degraded_;
  }
  if (view == nullptr && degraded) AddTicker(stats, Ticker::kDegradedReads);
  std::unique_ptr<RangeScratch> scratch = BorrowScratch();
  // With the mapping gone (degraded, or no snapshot tier) the RAM store is
  // served serially with no index: RangeSearch validates its full id
  // domain.
  const bool completed =
      view != nullptr && split_pool_.num_workers() > 0
          ? SplitRangeSearch(*view, query, theta_raw, scratch.get(), out,
                             stats, control)
          : RangeSearch(view != nullptr ? view->snapshot.store() : *ram_store_,
                        view != nullptr ? &view->snapshot.index() : nullptr,
                        query.view(), theta_raw, kServingDrop, scratch.get(),
                        out, stats, control);
  ReturnScratch(std::move(scratch));
  if (!completed) return StopStatus(*control, stats);
  return Status::OK();
}

bool ResilientReader::SplitRangeSearch(const storage::OpenedSnapshot& view,
                                       const PreparedQuery& query,
                                       RawDistance theta_raw,
                                       RangeScratch* scratch,
                                       std::vector<RankingId>* out,
                                       Statistics* stats,
                                       QueryControl* control) {
  const size_t helpers = split_pool_.num_workers();
  std::vector<std::unique_ptr<RangeScratch>> borrowed;
  borrowed.reserve(helpers);
  for (size_t w = 0; w < helpers; ++w) borrowed.push_back(BorrowScratch());
  std::vector<Statistics> helper_stats(stats != nullptr ? helpers : 0);
  std::vector<SplitWorker<RangeScratch>> workers;
  workers.reserve(helpers + 1);
  workers.push_back({scratch, stats});
  for (size_t w = 0; w < helpers; ++w) {
    workers.push_back({borrowed[w].get(),
                       stats != nullptr ? &helper_stats[w] : nullptr});
  }
  const RangeSplit split = PoolSplit<RangeScratch>(&split_pool_, workers);
  const bool completed =
      RangeSearch(view.snapshot.store(), &view.snapshot.index(), query.view(),
                  theta_raw, kServingDrop, scratch, out, stats, control,
                  KeepAllRows{}, &split);
  // The pool's join is the happens-before edge for the helpers' scratch
  // and counters.
  for (const Statistics& helper : helper_stats) stats->MergeFrom(helper);
  for (std::unique_ptr<RangeScratch>& helper : borrowed) {
    ReturnScratch(std::move(helper));
  }
  return completed;
}

std::unique_ptr<RangeScratch> ResilientReader::BorrowScratch() {
  MutexLock lock(&pool_mutex_);
  // Allocated lazily: the pool grows to the peak number of readers.
  if (pool_.empty()) return std::make_unique<RangeScratch>();
  std::unique_ptr<RangeScratch> scratch = std::move(pool_.back());
  pool_.pop_back();
  return scratch;
}

void ResilientReader::ReturnScratch(
    std::unique_ptr<RangeScratch> scratch) {
  MutexLock lock(&pool_mutex_);
  pool_.push_back(std::move(scratch));
}

}  // namespace topk
