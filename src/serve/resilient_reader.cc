#include "serve/resilient_reader.h"

#include <utility>

#include "core/failpoint.h"

namespace topk {

ResilientReader::ResilientReader(const RankingStore* ram_store,
                                 ResilientReaderOptions options)
    : ram_store_(ram_store),
      options_(std::move(options)),
      manager_(options_.snapshot_dir,
               storage::SnapshotManagerOptions{options_.keep_generations}) {}

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

Status ResilientReader::RestoreSnapshotTier(Statistics* stats) {
  return OpenSnapshotTier(stats);
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
  // With the mapping gone (degraded, or no snapshot tier) the RAM store is
  // served with no index: RangeSearch validates its full id domain.
  const RankingStore& store =
      view != nullptr ? view->snapshot.store() : *ram_store_;
  std::unique_ptr<RangeScratch> scratch = BorrowScratch();
  const bool completed = RangeSearch(
      store, view != nullptr ? &view->snapshot.index() : nullptr,
      query.view(), theta_raw, DropMode::kPositionRefined, scratch.get(), out,
      stats, control);
  ReturnScratch(std::move(scratch));
  if (!completed) return StopStatus(*control, stats);
  return Status::OK();
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
