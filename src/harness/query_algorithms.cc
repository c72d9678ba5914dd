#include "harness/query_algorithms.h"

#include <iterator>
#include <type_traits>
#include <utility>

#include "metric/linear_scan.h"

namespace topk {

const char* AlgorithmName(Algorithm algorithm) {
  // In enumerator order.
  static constexpr const char* kNames[] = {
      "F&V",           "F&V+Drop",           "ListMerge",   "LaaT+Prune",
      "Blocked+Prune", "Blocked+Prune+Drop", "Coarse",      "Coarse+Drop",
      "AdaptSearch",   "Minimal F&V",        "BK-tree",     "M-tree",
      "LinearScan"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(Algorithm::kLinearScan) + 1);
  const auto i = static_cast<size_t>(algorithm);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

namespace {

// theta_C for the Coarse engine: the paper's comparison figures fix 0.5,
// the optimum for theta = 0.3.
constexpr double kCoarseThetaC = 0.5;

/// Every engine whose range call is `Query(query, theta, stats)`.
template <typename Engine>
class RangeAdapter final : public QueryEngine {
 public:
  template <typename... Args>
  explicit RangeAdapter(Args&&... args)
      : engine_(std::forward<Args>(args)...) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return engine_.Query(query, theta_raw, stats);
  }
  FilterValidateEngine* filter_validate() override {
    if constexpr (std::is_same_v<Engine, FilterValidateEngine>) return &engine_;
    return nullptr;
  }

 private:
  Engine engine_;
};

/// Every metric tree: its range call is `RangeQuery(sorted, theta, stats)`.
template <typename Tree>
class TreeAdapter final : public QueryEngine {
 public:
  explicit TreeAdapter(const Tree* tree) : tree_(tree) {}
  std::vector<RankingId> Query(size_t, const PreparedQuery& query,
                               RawDistance theta_raw, Statistics* stats,
                               PhaseTimes*) override {
    return tree_->RangeQuery(query.sorted_view(), theta_raw, stats);
  }

 private:
  const Tree* tree_;
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

// Returns the slot's index, building it with `build()` first if the slot
// is empty: the build is timed and its MemoryUsage() recorded.
template <typename Slot, typename Build>
const auto& Built(Slot* slot, Build build) {
  if (!slot->index.has_value()) {
    Stopwatch watch;
    slot->index.emplace(build());
    slot->info = {watch.ElapsedMillis(), slot->index->MemoryUsage()};
  }
  return *slot->index;
}

}  // namespace

EngineSuite::EngineSuite(const RankingStore* store, EngineSuiteConfig config,
                         PartRunner build_runner)
    : store_(store), config_(config), build_runner_(std::move(build_runner)) {}

const PlainInvertedIndex& EngineSuite::plain_index() {
  return Built(&plain_, [&] { return PlainInvertedIndex::Build(*store_); });
}

const AugmentedInvertedIndex& EngineSuite::augmented_index() {
  return Built(&augmented_,
               [&] { return AugmentedInvertedIndex::Build(*store_); });
}

const BlockedInvertedIndex& EngineSuite::blocked_index() {
  return Built(&blocked_, [&] { return BlockedInvertedIndex::Build(*store_); });
}

const DeltaInvertedIndex& EngineSuite::delta_index() {
  return Built(&delta_, [&] { return DeltaInvertedIndex::Build(*store_); });
}

const BkTree& EngineSuite::bk_tree() {
  return Built(&bk_tree_, [&] {
    return BkTree::BuildAll(store_, nullptr, {}, build_runner_);
  });
}

const MTree& EngineSuite::m_tree() {
  return Built(&m_tree_, [&] { return MTree::BuildAll(store_); });
}

const CoarseIndex& EngineSuite::Coarse(Slot<CoarseIndex>* slot, double theta_c,
                                       DropMode drop) {
  return Built(slot, [&] {
    return CoarseIndex::Build(
        store_, CoarseOptions{theta_c, config_.coarse_partitioner, drop},
        nullptr, build_runner_);
  });
}

const CoarseIndex& EngineSuite::coarse_index() {
  return Coarse(&coarse_, kCoarseThetaC, DropMode::kNone);
}

const CoarseIndex& EngineSuite::coarse_drop_index() {
  return Coarse(&coarse_drop_, config_.coarse_drop_theta_c,
                DropMode::kPositionRefined);
}

std::unique_ptr<QueryEngine> EngineSuite::MakeEngine(Algorithm algorithm) {
  const bool drops = algorithm == Algorithm::kFVDrop ||
                     algorithm == Algorithm::kBlockedPruneDrop;
  const DropMode drop = drops ? DropMode::kPositionRefined : DropMode::kNone;
  switch (algorithm) {
    case Algorithm::kFV:
    case Algorithm::kFVDrop:
      return std::make_unique<RangeAdapter<FilterValidateEngine>>(
          store_, &plain_index(), FilterValidateOptions{drop});
    case Algorithm::kListMerge:
      return std::make_unique<RangeAdapter<ListMergeEngine>>(
          &augmented_index());
    case Algorithm::kLaatPrune:
      return std::make_unique<RangeAdapter<ListAtATimeEngine>>(
          &augmented_index());
    case Algorithm::kBlockedPrune:
    case Algorithm::kBlockedPruneDrop:
      return std::make_unique<RangeAdapter<BlockedEngine>>(
          store_, &blocked_index(), BlockedOptions{drop, /*scheduled=*/true});
    case Algorithm::kCoarse:
      return std::make_unique<CoarseEngine>(&coarse_index());
    case Algorithm::kCoarseDrop:
      return std::make_unique<CoarseEngine>(&coarse_drop_index());
    case Algorithm::kAdaptSearch:
      return std::make_unique<RangeAdapter<AdaptSearchEngine>>(
          store_, &delta_index());
    case Algorithm::kMinimalFV:
      TOPK_DCHECK(false &&
                  "Minimal F&V is workload-bound: use MakeOracleEngine");
      return nullptr;
    case Algorithm::kBkTree:
      return std::make_unique<TreeAdapter<BkTree>>(&bk_tree());
    case Algorithm::kMTree:
      return std::make_unique<TreeAdapter<MTree>>(&m_tree());
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
      return plain_.info;
    case Algorithm::kListMerge:
    case Algorithm::kLaatPrune:
      augmented_index();
      return augmented_.info;
    case Algorithm::kBlockedPrune:
    case Algorithm::kBlockedPruneDrop:
      blocked_index();
      return blocked_.info;
    case Algorithm::kAdaptSearch:
      delta_index();
      return delta_.info;
    case Algorithm::kCoarse:
      coarse_index();
      return coarse_.info;
    case Algorithm::kCoarseDrop:
      coarse_drop_index();
      return coarse_drop_.info;
    case Algorithm::kBkTree:
      bk_tree();
      return bk_tree_.info;
    case Algorithm::kMTree:
      m_tree();
      return m_tree_.info;
    case Algorithm::kMinimalFV:
    case Algorithm::kLinearScan:
      return {};
  }
  return {};
}

}  // namespace topk
