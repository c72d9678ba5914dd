#include "coarse/coarse_index.h"

#include <algorithm>
#include <numeric>

#include "cluster/bk_partitioner.h"
#include "cluster/cn_partitioner.h"
#include "core/rng.h"
#include "kernel/range_search.h"

namespace topk {

const char* PartitionerKindName(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kBkStrict:
      return "bk_strict";
    case PartitionerKind::kBkSubtree:
      return "bk_subtree";
    case PartitionerKind::kChavezNavarro:
      return "chavez_navarro";
  }
  return "unknown";
}

CoarseIndex CoarseIndex::Build(const RankingStore* store,
                               const CoarseOptions& options,
                               Statistics* stats, const PartRunner& runner) {
  const RawDistance theta_c_raw = RawThreshold(options.theta_c, store->k());
  Partitioning partitioning;
  switch (options.partitioner) {
    case PartitionerKind::kBkStrict:
      partitioning = BkPartition(*store, theta_c_raw,
                                 BkPartitionMode::kStrict, stats, runner);
      break;
    case PartitionerKind::kBkSubtree:
      partitioning = BkPartition(*store, theta_c_raw,
                                 BkPartitionMode::kSubtree, stats, runner);
      break;
    case PartitionerKind::kChavezNavarro: {
      Rng rng(options.seed);
      partitioning = CnPartition(*store, theta_c_raw, &rng, stats);
      break;
    }
  }
  return BuildFromPartitioning(store, options, std::move(partitioning));
}

CoarseIndex CoarseIndex::BuildFromPartitioning(const RankingStore* store,
                                               const CoarseOptions& options,
                                               Partitioning partitioning) {
  CoarseIndex index(store, options);
  const size_t num_partitions = partitioning.partitions.size();
  index.medoids_.reserve(num_partitions);
  index.radii_.reserve(num_partitions);
  index.offsets_.reserve(num_partitions + 1);
  index.members_.reserve(partitioning.total_members());
  index.offsets_.push_back(0);
  for (Partition& p : partitioning.partitions) {
    TOPK_DCHECK(!p.members.empty() && p.members.front() == p.medoid);
    std::sort(p.members.begin(), p.members.end());
    index.medoids_.push_back(p.medoid);
    index.radii_.push_back(p.radius);
    index.members_.insert(index.members_.end(), p.members.begin(),
                          p.members.end());
    index.offsets_.push_back(static_cast<uint32_t>(index.members_.size()));
    std::vector<RankingId>().swap(p.members);  // the CSR holds them now
  }
  index.max_radius_ = partitioning.max_radius();
  index.medoid_index_ = PlainInvertedIndex::BuildSubset(*store,
                                                        index.medoids_);
  return index;
}

std::vector<RankingId> CoarseIndex::Query(const PreparedQuery& query,
                                          RawDistance theta_raw,
                                          CoarseScratch* scratch,
                                          Statistics* stats,
                                          PhaseTimes* phases,
                                          QueryControl* control) const {
  std::vector<RankingId> results;
  if (control != nullptr && control->ShouldStop()) return results;
  Stopwatch watch;

  // --- Filter phase: find medoids within theta + radius of the query. ---
  std::vector<RankingId>& candidates = scratch->filter.candidates;
  const RawDistance relaxed = theta_raw + max_radius_;
  if (!UnionCoversRange(store_->k(), relaxed)) {
    // Medoids sharing no item with the query could qualify but are
    // invisible to the inverted index: scan the medoid set instead.
    candidates.resize(medoids_.size());
    std::iota(candidates.begin(), candidates.end(), uint32_t{0});
  } else {
    FilterPhase(medoid_index_, query.view(), relaxed, options_.drop,
                medoids_.size(), &scratch->filter, stats);
  }
  AddTicker(stats, Ticker::kCandidates, candidates.size());

  // Scoring the retrieved medoids still belongs to the filter cost in the
  // paper's model (Table 3, "Find medoids for query"). One span at
  // theta + max_radius drops most of them in the lane kernel; each
  // survivor is re-scored exactly against its own theta + r_P.
  FootruleValidator& validator = scratch->validator;
  validator.BindQuery(query.view(),
                      static_cast<size_t>(store_->max_item()) + 1);
  std::vector<RankingId>& rows = scratch->rows;
  rows.clear();
  for (const uint32_t pid : candidates) rows.push_back(medoids_[pid]);
  std::vector<RankingId>& accepted = scratch->accepted;
  accepted.clear();
  validator.ValidateSpan(*store_, rows, relaxed, &accepted, stats, control);
  if (control != nullptr && control->stopped()) return results;
  // The survivors are a subsequence of the (distinct) medoid rows, so one
  // forward walk recovers each survivor's partition.
  std::vector<CoarseScratch::Probe>& probes = scratch->probes;
  probes.clear();
  size_t c = 0;
  for (const RankingId medoid : accepted) {
    while (rows[c] != medoid) ++c;
    const uint32_t pid = candidates[c];
    const RawDistance d = validator.Distance(store_->view(medoid));
    if (d <= theta_raw + radii_[pid]) probes.push_back({pid, d});
  }
  if (phases != nullptr) phases->filter_ms += watch.ElapsedMillis();

  // --- Validate phase: a partition inside the query ball is emitted
  // whole; the members of every other probed partition are validated as
  // one span with the original theta. ---
  watch.Restart();
  rows.clear();
  for (const CoarseScratch::Probe& probe : probes) {
    const std::span<const RankingId> span = members(probe.pid);
    if (probe.medoid_dist + radii_[probe.pid] <= theta_raw) {
      AddTicker(stats, Ticker::kAcceptedByUpperBound, span.size());
      results.insert(results.end(), span.begin(), span.end());
    } else {
      rows.insert(rows.end(), span.begin(), span.end());
    }
  }
  AddTicker(stats, Ticker::kPartitionsProbed, probes.size());
  validator.ValidateSpan(*store_, rows, theta_raw, &results, stats, control);
  if (control != nullptr && control->stopped()) {
    results.clear();
    return results;
  }
  MergeAscendingRuns(&results, 0, &scratch->merge);
  AddTicker(stats, Ticker::kResults, results.size());
  if (phases != nullptr) phases->validate_ms += watch.ElapsedMillis();
  return results;
}

std::vector<Neighbor> CoarseIndex::Knn(const PreparedQuery& query, size_t j,
                                       CoarseScratch* scratch,
                                       Statistics* stats,
                                       QueryControl* control) const {
  NeighborHeap heap(j);
  if (j == 0 || medoids_.empty()) return std::move(heap).Finish();
  if (control != nullptr && control->ShouldStop()) return {};
  FootruleValidator& validator = scratch->validator;
  validator.BindQuery(query.view(),
                      static_cast<size_t>(store_->max_item()) + 1);
  // Medoid distances give an optimistic bound per partition: any member
  // tau satisfies d(q, tau) >= d(q, medoid) - radius.
  std::vector<CoarseScratch::Probe>& probes = scratch->probes;
  probes.clear();
  AddTicker(stats, Ticker::kDistanceCalls, medoids_.size());
  for (uint32_t pid = 0; pid < medoids_.size(); ++pid) {
    if (control != nullptr && control->ShouldStop()) return {};
    probes.push_back({pid, validator.Distance(store_->view(medoids_[pid]))});
  }
  const auto optimistic = [this](const CoarseScratch::Probe& probe) {
    const RawDistance radius = radii_[probe.pid];
    return probe.medoid_dist > radius ? probe.medoid_dist - radius : 0;
  };
  std::ranges::sort(probes, {}, optimistic);

  std::vector<RankingId>& accepted = scratch->accepted;
  for (const CoarseScratch::Probe& probe : probes) {
    if (optimistic(probe) > heap.Bound()) break;
    AddTicker(stats, Ticker::kPartitionsProbed);
    // Validate the members at the current bound and offer the survivors
    // with their exact distances; the bound only shrinks, so this is
    // exact.
    accepted.clear();
    validator.ValidateSpan(*store_, members(probe.pid),
                           std::min(heap.Bound(), MaxDistance(store_->k())),
                           &accepted, stats, control);
    if (control != nullptr && control->stopped()) return {};
    for (const RankingId id : accepted) {
      heap.Offer(id, validator.Distance(store_->view(id)));
    }
  }
  return std::move(heap).Finish();
}

size_t CoarseIndex::MemoryUsage() const {
  return medoid_index_.MemoryUsage() +
         medoids_.capacity() * sizeof(RankingId) +
         radii_.capacity() * sizeof(RawDistance) +
         offsets_.capacity() * sizeof(uint32_t) +
         members_.capacity() * sizeof(RankingId);
}

}  // namespace topk
