// The coarse hybrid index (Section 4) — the paper's contribution.
//
// Rankings are grouped into partitions of bounded radius around medoid
// rankings; only the medoids enter an inverted index, shrinking it by the
// (near-)duplicate factor of the collection. Each partition keeps its
// members once, id-sorted, in one CSR (offsets plus ids); the paper gives
// every partition a BK-tree instead (DESIGN.md, "Coarse partitions as
// member spans").
//
// Querying (Algorithm 1 + Lemma 1): the inverted index retrieves all
// medoids within theta + radius of the query — any result ranking tau with
// d(tau, q) <= theta satisfies d(medoid(tau), q) <= theta + radius by the
// triangle inequality, so no result can be missed. The retrieved medoids
// are scored as one batched validator span at theta + max_P r_P, and only
// its survivors are re-scored exactly against theta + r_P. A probed
// partition then goes one of two ways:
//  * d(q, m) + r_P <= theta: the whole ball lies inside the query ball
//    (every member sits within r_P of the medoid), so its members are
//    emitted with no distance call and tick kAcceptedByUpperBound;
//  * otherwise its member span joins the one ValidateSpan at theta that
//    all such partitions share.
// Every partition's members form one ascending run, so the answer is the
// merge of those runs (MergeAscendingRuns), not a sort.
//
// Exactness guardrails beyond the paper:
//  * Each partition records its realized radius r_P; retrieval uses
//    theta + max_P r_P globally and theta + r_P per partition. Under the
//    strict partitioner r_P <= theta_C and this is precisely Lemma 1.
//  * The paper requires theta + theta_C < dmax because a medoid sharing no
//    item with the query is invisible to an inverted index. When the
//    relaxed threshold reaches dmax (possible at the far end of the
//    Figure 7 sweep), the engine transparently falls back to scanning the
//    medoid set, preserving exactness at a measurable cost.
//
// Build takes an optional PartRunner: the BK partitioner's global tree
// then builds its large levels in parts over it (QueryFrontend hands over
// its own pool). Without one the same code runs inline; the index is
// identical either way.

#ifndef TOPK_COARSE_COARSE_INDEX_H_
#define TOPK_COARSE_COARSE_INDEX_H_

#include <span>
#include <vector>

#include "cluster/partitioner.h"
#include "core/deadline.h"
#include "core/neighbor.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "kernel/id_split.h"

namespace topk {

enum class PartitionerKind { kBkStrict, kBkSubtree, kChavezNavarro };

const char* PartitionerKindName(PartitionerKind kind);

struct CoarseOptions {
  /// Normalized partitioning threshold theta_C in [0, 1].
  double theta_c = 0.5;
  PartitionerKind partitioner = PartitionerKind::kBkStrict;
  /// Drop policy applied to the medoid retrieval (Coarse+Drop).
  DropMode drop = DropMode::kNone;
  /// Seed for the Chavez-Navarro partitioner.
  uint64_t seed = 42;
};

/// Per-caller query scratch (medoid dedup, the validator's query rank
/// table, span ids and survivors, probes, the run merge's buffer). The
/// index itself is immutable after Build, so concurrent queries are
/// race-free as long as each thread brings its own CoarseScratch — the
/// serving layer's inter-query parallelism relies on exactly this.
struct CoarseScratch {
  struct Probe {
    uint32_t pid;
    RawDistance medoid_dist;
  };
  FilterScratch filter;
  FootruleValidator validator;
  std::vector<RankingId> rows;
  std::vector<RankingId> accepted;
  std::vector<Probe> probes;
  std::vector<RankingId> merge;
};

class CoarseIndex {
 public:
  /// Partitions `store` and builds the member CSR and the medoid inverted
  /// index. Partitioning distance calls are tallied into `stats`. A
  /// non-empty `runner` builds the BK partitioner's tree in parts over it.
  static CoarseIndex Build(const RankingStore* store,
                           const CoarseOptions& options,
                           Statistics* stats = nullptr,
                           const PartRunner& runner = {});

  /// Builds around an externally produced partitioning (partition members
  /// must list the medoid first); makes no distance call.
  static CoarseIndex BuildFromPartitioning(const RankingStore* store,
                                           const CoarseOptions& options,
                                           Partitioning partitioning);

  /// Exact range query, ascending; `phases` (optional) receives the
  /// filter/validate wall-time split reported in Figures 3 and 7. Uses the
  /// index's internal scratch: callers sharing one CoarseIndex across
  /// threads must use the external-scratch overload instead.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr,
                               PhaseTimes* phases = nullptr) const {
    return Query(query, theta_raw, &scratch_, stats, phases);
  }

  /// Same query, but with caller-provided scratch: safe to call from many
  /// threads concurrently on one index (one scratch per thread).
  /// A stop of `control` (polled on entry and through the spans) returns
  /// an empty answer, skips kResults and must not be published.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw, CoarseScratch* scratch,
                               Statistics* stats, PhaseTimes* phases,
                               QueryControl* control = nullptr) const;

  /// Exact j-nearest-neighbour query (extension; the paper evaluates
  /// range queries only). Partitions are probed best-first by the
  /// optimistic bound max(0, d(q, medoid) - radius) and abandoned once
  /// the bound exceeds the current j-th best distance, at which each
  /// probed member span is validated. One distance call per medoid and
  /// per member of a probed partition. Scratch and `control` as for
  /// Query: a stop (polled on entry, per medoid and through the member
  /// spans) returns an empty answer that must not be published.
  std::vector<Neighbor> Knn(const PreparedQuery& query, size_t j,
                            Statistics* stats = nullptr) const {
    return Knn(query, j, &scratch_, stats);
  }
  std::vector<Neighbor> Knn(const PreparedQuery& query, size_t j,
                            CoarseScratch* scratch, Statistics* stats,
                            QueryControl* control = nullptr) const;

  size_t num_partitions() const { return medoids_.size(); }
  RankingId medoid(size_t partition) const { return medoids_[partition]; }
  RawDistance radius(size_t partition) const { return radii_[partition]; }
  /// Partition `partition`'s members, the medoid included, ascending.
  std::span<const RankingId> members(size_t partition) const {
    return std::span<const RankingId>(members_).subspan(
        offsets_[partition], offsets_[partition + 1] - offsets_[partition]);
  }
  RawDistance max_radius() const { return max_radius_; }
  const CoarseOptions& options() const { return options_; }
  size_t MemoryUsage() const;

 private:
  CoarseIndex(const RankingStore* store, const CoarseOptions& options)
      : store_(store), options_(options) {}

  const RankingStore* store_;
  CoarseOptions options_;
  // Per partition (parallel arrays): medoid, radius r_P, and the start of
  // its members in members_ (offsets_ has one extra, final entry).
  std::vector<RankingId> medoids_;
  std::vector<RawDistance> radii_;
  std::vector<uint32_t> offsets_;
  std::vector<RankingId> members_;
  PlainInvertedIndex medoid_index_;  // posting entries are partition indices
  RawDistance max_radius_ = 0;
  mutable CoarseScratch scratch_;  // backs the scratch-less overloads
};

}  // namespace topk

#endif  // TOPK_COARSE_COARSE_INDEX_H_
