#include "coarse/coarse_index.h"

#include <algorithm>
#include <limits>

#include "cluster/bk_partitioner.h"
#include "cluster/cn_partitioner.h"
#include "core/footrule.h"
#include "core/rng.h"

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
  return BuildFromPartitioning(store, options, std::move(partitioning),
                               stats);
}

CoarseIndex CoarseIndex::BuildFromPartitioning(const RankingStore* store,
                                               const CoarseOptions& options,
                                               Partitioning partitioning,
                                               Statistics* stats) {
  CoarseIndex index(store, options);
  index.partitioning_ = std::move(partitioning);
  index.max_radius_ = index.partitioning_.max_radius();

  index.medoids_.reserve(index.partitioning_.partitions.size());
  index.trees_.reserve(index.partitioning_.partitions.size());
  // The per-partition trees build serially on the caller: built on pool
  // workers, their node arrays land in the workers' malloc arenas, which
  // kept ~4-6 B per ranking more resident on the 200k NYT-like corpus,
  // to save ~0.02 s.
  for (const Partition& p : index.partitioning_.partitions) {
    TOPK_DCHECK(!p.members.empty() && p.members.front() == p.medoid);
    index.medoids_.push_back(p.medoid);
    index.trees_.push_back(BkTree::Build(store, p.members, stats));
  }
  index.medoid_index_ = PlainInvertedIndex::BuildSubset(*store,
                                                        index.medoids_);
  return index;
}

std::vector<RankingId> CoarseIndex::Query(const PreparedQuery& query,
                                          RawDistance theta_raw,
                                          CoarseScratch* scratch,
                                          Statistics* stats,
                                          PhaseTimes* phases) const {
  const uint32_t k = store_->k();
  Stopwatch watch;

  // --- Filter phase: find medoids within theta + radius of the query. ---
  std::vector<RankingId>& candidates = scratch->filter.candidates;
  const RawDistance relaxed = theta_raw + max_radius_;
  if (!UnionCoversRange(k, relaxed)) {
    // Medoids sharing no item with the query could qualify but are
    // invisible to the inverted index: scan the medoid set instead.
    candidates.resize(medoids_.size());
    for (uint32_t pid = 0; pid < medoids_.size(); ++pid) {
      candidates[pid] = pid;
    }
  } else {
    FilterPhase(medoid_index_, query.view(), relaxed, options_.drop,
                medoids_.size(), &scratch->filter, stats);
  }
  AddTicker(stats, Ticker::kCandidates, candidates.size());

  // Distance check on retrieved medoids still belongs to the filter cost
  // in the paper's model (Table 3, "Find medoids for query"). The batched
  // validator binds the query rank table once; medoid probes and the
  // partition-tree traversals below all reuse it.
  scratch->validator.BindQuery(query.view(),
                               static_cast<size_t>(store_->max_item()) + 1);
  struct Probe {
    uint32_t pid;
    RawDistance medoid_dist;
  };
  std::vector<Probe> probes;
  for (uint32_t pid : candidates) {
    AddTicker(stats, Ticker::kDistanceCalls);
    const RawDistance d =
        scratch->validator.Distance(store_->view(medoids_[pid]));
    if (d <= theta_raw + partitioning_.partitions[pid].radius) {
      probes.push_back(Probe{pid, d});
    }
  }
  if (phases != nullptr) phases->filter_ms += watch.ElapsedMillis();

  // --- Validate phase: range-query each qualifying partition's BK-tree
  // with the original theta, reusing the medoid distance as root. ---
  watch.Restart();
  std::vector<RankingId> results;
  for (const Probe& probe : probes) {
    AddTicker(stats, Ticker::kPartitionsProbed);
    trees_[probe.pid].RangeQueryWithRootDistance(scratch->validator,
                                                 theta_raw,
                                                 probe.medoid_dist, stats,
                                                 &results);
  }
  std::sort(results.begin(), results.end());
  AddTicker(stats, Ticker::kResults, results.size());
  if (phases != nullptr) phases->validate_ms += watch.ElapsedMillis();
  return results;
}

std::vector<Neighbor> CoarseIndex::Knn(const PreparedQuery& query, size_t j,
                                       Statistics* stats) const {
  NeighborHeap heap(j);
  if (j > 0 && !medoids_.empty()) {
    // Medoid distances give an optimistic bound per partition: any member
    // tau satisfies d(q, tau) >= d(q, medoid) - radius.
    struct Probe {
      RawDistance optimistic;
      RawDistance medoid_dist;
      uint32_t pid;
    };
    std::vector<Probe> probes;
    probes.reserve(medoids_.size());
    const SortedRankingView q = query.sorted_view();
    for (uint32_t pid = 0; pid < medoids_.size(); ++pid) {
      AddTicker(stats, Ticker::kDistanceCalls);
      const RawDistance d =
          FootruleDistance(q, store_->sorted(medoids_[pid]));
      const RawDistance radius = partitioning_.partitions[pid].radius;
      probes.push_back(Probe{d > radius ? d - radius : 0, d, pid});
    }
    std::sort(probes.begin(), probes.end(),
              [](const Probe& a, const Probe& b) {
                return a.optimistic < b.optimistic;
              });

    std::vector<Neighbor> members;  // reused across partitions
    for (const Probe& probe : probes) {
      if (probe.optimistic > heap.Bound()) break;
      AddTicker(stats, Ticker::kPartitionsProbed);
      // Range-query the partition tree at the current bound and feed the
      // matches, with the distances the traversal already computed, into
      // the heap; the bound only shrinks, so this is exact.
      const RawDistance radius_budget = heap.Bound();
      members.clear();
      trees_[probe.pid].RangeQueryWithRootDistance(
          q, radius_budget == std::numeric_limits<RawDistance>::max()
                 ? MaxDistance(store_->k())
                 : radius_budget,
          probe.medoid_dist, stats, &members);
      for (const Neighbor& member : members) {
        heap.Offer(member.id, member.distance);
      }
    }
  }
  return std::move(heap).Finish();
}

size_t CoarseIndex::MemoryUsage() const {
  size_t bytes = medoid_index_.MemoryUsage() +
                 medoids_.capacity() * sizeof(RankingId) +
                 partitioning_.partitions.capacity() * sizeof(Partition);
  for (const Partition& p : partitioning_.partitions) {
    bytes += p.members.capacity() * sizeof(RankingId);
  }
  for (const BkTree& tree : trees_) bytes += tree.MemoryUsage();
  return bytes;
}

}  // namespace topk
