#include "harness/query_algorithms.h"

#include <utility>

#include "metric/linear_scan.h"

namespace topk {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFV:
      return "F&V";
    case Algorithm::kFVDrop:
      return "F&V+Drop";
    case Algorithm::kListMerge:
      return "ListMerge";
    case Algorithm::kLaatPrune:
      return "LaaT+Prune";
    case Algorithm::kBlockedPrune:
      return "Blocked+Prune";
    case Algorithm::kBlockedPruneDrop:
      return "Blocked+Prune+Drop";
    case Algorithm::kCoarse:
      return "Coarse";
    case Algorithm::kCoarseDrop:
      return "Coarse+Drop";
    case Algorithm::kAdaptSearch:
      return "AdaptSearch";
    case Algorithm::kMinimalFV:
      return "Minimal F&V";
    case Algorithm::kBkTree:
      return "BK-tree";
    case Algorithm::kMTree:
      return "M-tree";
    case Algorithm::kLinearScan:
      return "LinearScan";
  }
  return "unknown";
}

namespace {

// --- Thin adapters binding each engine type to the common interface. ---

class FvAdapter : public QueryEngine {
 public:
  FvAdapter(const RankingStore* store, const PlainInvertedIndex* index,
            DropMode drop)
      : engine_(store, index, FilterValidateOptions{drop}) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return engine_.Query(query, theta_raw, stats);
  }
  FilterValidateEngine* filter_validate() override { return &engine_; }

 private:
  FilterValidateEngine engine_;
};

class ListMergeAdapter : public QueryEngine {
 public:
  explicit ListMergeAdapter(const AugmentedInvertedIndex* index)
      : engine_(index) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return engine_.Query(query, theta_raw, stats);
  }

 private:
  ListMergeEngine engine_;
};

class LaatAdapter : public QueryEngine {
 public:
  explicit LaatAdapter(const AugmentedInvertedIndex* index)
      : engine_(index) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return engine_.Query(query, theta_raw, stats);
  }

 private:
  ListAtATimeEngine engine_;
};

class BlockedAdapter : public QueryEngine {
 public:
  BlockedAdapter(const RankingStore* store, const BlockedInvertedIndex* index,
                 DropMode drop)
      : engine_(store, index, BlockedOptions{drop, /*scheduled=*/true}) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return engine_.Query(query, theta_raw, stats);
  }

 private:
  BlockedEngine engine_;
};

class AdaptAdapter : public QueryEngine {
 public:
  AdaptAdapter(const RankingStore* store, const DeltaInvertedIndex* index)
      : engine_(store, index) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return engine_.Query(query, theta_raw, stats);
  }

 private:
  AdaptSearchEngine engine_;
};

class OracleAdapter : public QueryEngine {
 public:
  explicit OracleAdapter(OracleIndex index) : index_(std::move(index)) {}
  std::vector<RankingId> Query(size_t query_index, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return index_.Query(query_index, query, theta_raw, stats);
  }

 private:
  OracleIndex index_;
};

class BkTreeAdapter : public QueryEngine {
 public:
  explicit BkTreeAdapter(const BkTree* tree) : tree_(tree) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return tree_->RangeQuery(query.sorted_view(), theta_raw, stats);
  }

 private:
  const BkTree* tree_;
};

class MTreeAdapter : public QueryEngine {
 public:
  explicit MTreeAdapter(const MTree* tree) : tree_(tree) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return tree_->RangeQuery(query.sorted_view(), theta_raw, stats);
  }

 private:
  const MTree* tree_;
};

class LinearScanAdapter : public QueryEngine {
 public:
  explicit LinearScanAdapter(const RankingStore* store) : store_(store) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    // Engine-owned validator: the harness path runs the batched kernel;
    // the free LinearScanQuery stays the scalar reference the
    // differential suites compare against.
    return LinearScanQueryBatched(*store_, query, theta_raw, &validator_,
                                  stats);
  }

 private:
  const RankingStore* store_;
  FootruleValidator validator_;
};

}  // namespace

EngineSuite::EngineSuite(const RankingStore* store, EngineSuiteConfig config,
                         PartRunner build_runner)
    : store_(store), config_(config), build_runner_(std::move(build_runner)) {}

const PlainInvertedIndex& EngineSuite::plain_index() {
  if (!plain_.has_value()) {
    Stopwatch watch;
    plain_ = PlainInvertedIndex::Build(*store_);
    plain_info_ = {watch.ElapsedMillis(), plain_->MemoryUsage()};
  }
  return *plain_;
}

const AugmentedInvertedIndex& EngineSuite::augmented_index() {
  if (!augmented_.has_value()) {
    Stopwatch watch;
    augmented_ = AugmentedInvertedIndex::Build(*store_);
    augmented_info_ = {watch.ElapsedMillis(), augmented_->MemoryUsage()};
  }
  return *augmented_;
}

const BlockedInvertedIndex& EngineSuite::blocked_index() {
  if (!blocked_.has_value()) {
    Stopwatch watch;
    blocked_ = BlockedInvertedIndex::Build(*store_);
    blocked_info_ = {watch.ElapsedMillis(), blocked_->MemoryUsage()};
  }
  return *blocked_;
}

const DeltaInvertedIndex& EngineSuite::delta_index() {
  if (!delta_.has_value()) {
    Stopwatch watch;
    delta_ = DeltaInvertedIndex::Build(*store_);
    delta_info_ = {watch.ElapsedMillis(), delta_->MemoryUsage()};
  }
  return *delta_;
}

const BkTree& EngineSuite::bk_tree() {
  if (!bk_tree_.has_value()) {
    Stopwatch watch;
    bk_tree_ = BkTree::BuildAll(store_, nullptr, {}, build_runner_);
    bk_tree_info_ = {watch.ElapsedMillis(), bk_tree_->MemoryUsage()};
  }
  return *bk_tree_;
}

const MTree& EngineSuite::m_tree() {
  if (!m_tree_.has_value()) {
    Stopwatch watch;
    m_tree_ = MTree::BuildAll(store_, config_.mtree);
    m_tree_info_ = {watch.ElapsedMillis(), m_tree_->MemoryUsage()};
  }
  return *m_tree_;
}

const CoarseIndex& EngineSuite::coarse_index() {
  if (!coarse_.has_value()) {
    CoarseOptions options;
    options.theta_c = config_.coarse_theta_c;
    options.partitioner = config_.coarse_partitioner;
    options.drop = DropMode::kNone;
    Stopwatch watch;
    coarse_ = CoarseIndex::Build(store_, options, nullptr, build_runner_);
    coarse_info_ = {watch.ElapsedMillis(), coarse_->MemoryUsage()};
  }
  return *coarse_;
}

const CoarseIndex& EngineSuite::coarse_drop_index() {
  if (!coarse_drop_.has_value()) {
    CoarseOptions options;
    options.theta_c = config_.coarse_drop_theta_c;
    options.partitioner = config_.coarse_partitioner;
    options.drop = DropMode::kPositionRefined;
    Stopwatch watch;
    coarse_drop_ =
        CoarseIndex::Build(store_, options, nullptr, build_runner_);
    coarse_drop_info_ = {watch.ElapsedMillis(), coarse_drop_->MemoryUsage()};
  }
  return *coarse_drop_;
}

std::unique_ptr<QueryEngine> EngineSuite::MakeEngine(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFV:
      return std::make_unique<FvAdapter>(store_, &plain_index(),
                                         DropMode::kNone);
    case Algorithm::kFVDrop:
      return std::make_unique<FvAdapter>(store_, &plain_index(),
                                         DropMode::kPositionRefined);
    case Algorithm::kListMerge:
      return std::make_unique<ListMergeAdapter>(&augmented_index());
    case Algorithm::kLaatPrune:
      return std::make_unique<LaatAdapter>(&augmented_index());
    case Algorithm::kBlockedPrune:
      return std::make_unique<BlockedAdapter>(store_, &blocked_index(),
                                              DropMode::kNone);
    case Algorithm::kBlockedPruneDrop:
      return std::make_unique<BlockedAdapter>(store_, &blocked_index(),
                                              DropMode::kPositionRefined);
    case Algorithm::kCoarse:
      return std::make_unique<CoarseEngine>(&coarse_index());
    case Algorithm::kCoarseDrop:
      return std::make_unique<CoarseEngine>(&coarse_drop_index());
    case Algorithm::kAdaptSearch:
      return std::make_unique<AdaptAdapter>(store_, &delta_index());
    case Algorithm::kMinimalFV:
      TOPK_DCHECK(false &&
                  "Minimal F&V is workload-bound: use MakeOracleEngine");
      return nullptr;
    case Algorithm::kBkTree:
      return std::make_unique<BkTreeAdapter>(&bk_tree());
    case Algorithm::kMTree:
      return std::make_unique<MTreeAdapter>(&m_tree());
    case Algorithm::kLinearScan:
      return std::make_unique<LinearScanAdapter>(store_);
  }
  return nullptr;
}

std::unique_ptr<QueryEngine> EngineSuite::MakeOracleEngine(
    std::span<const PreparedQuery> queries, RawDistance theta_raw) {
  // Ground truth comes from the (exact) F&V engine — far cheaper than a
  // brute-force scan and verified equivalent by the test suite.
  FilterValidateEngine fv(store_, &plain_index(), FilterValidateOptions{});
  std::vector<std::vector<RankingId>> truth;
  truth.reserve(queries.size());
  for (const PreparedQuery& query : queries) {
    truth.push_back(fv.Query(query, theta_raw));
  }
  return std::make_unique<OracleAdapter>(
      OracleIndex::Build(store_, std::move(truth)));
}

IndexBuildInfo EngineSuite::BuildInfo(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFV:
    case Algorithm::kFVDrop:
      plain_index();
      return plain_info_;
    case Algorithm::kListMerge:
    case Algorithm::kLaatPrune:
      augmented_index();
      return augmented_info_;
    case Algorithm::kBlockedPrune:
    case Algorithm::kBlockedPruneDrop:
      blocked_index();
      return blocked_info_;
    case Algorithm::kAdaptSearch:
      delta_index();
      return delta_info_;
    case Algorithm::kCoarse:
      coarse_index();
      return coarse_info_;
    case Algorithm::kCoarseDrop:
      coarse_drop_index();
      return coarse_drop_info_;
    case Algorithm::kBkTree:
      bk_tree();
      return bk_tree_info_;
    case Algorithm::kMTree:
      m_tree();
      return m_tree_info_;
    case Algorithm::kMinimalFV:
    case Algorithm::kLinearScan:
      return {};
  }
  return {};
}

}  // namespace topk
