// k-nearest-neighbour queries over the ranking indexes.
//
// The paper evaluates range queries only, but its related-work section
// frames KNN as the sibling problem and every structure here supports it
// naturally: best-first search with a shrinking distance bound. The
// result is the j rankings closest to the query (ties broken by id), with
// the same exactness guarantees as the range API.
//
// All searchers share the contract: results sorted by (distance, id),
// exactly min(j, n) entries.
//
// Two exhaustive entry points, as in metric/linear_scan.h: LinearScanKnn
// runs the scalar merge kernel per ranking and stays the *independent*
// reference the differential suites and the benchmark's answer checker
// trust; LinearScanKnnBatched is the served path (QueryFrontend,
// ParallelRunner), which sweeps the store through the batched kernel
// validator pruned by the heap's current j-th distance.

#ifndef TOPK_METRIC_KNN_H_
#define TOPK_METRIC_KNN_H_

#include <vector>

#include "core/deadline.h"
#include "core/neighbor.h"  // Neighbor, NeighborHeap (re-exported)
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/footrule_batch.h"
#include "metric/bk_tree.h"
#include "metric/m_tree.h"

namespace topk {

/// Exhaustive baseline (and differential-test oracle). Scalar reference
/// path: one merge-kernel call per ranking.
std::vector<Neighbor> LinearScanKnn(const RankingStore& store,
                                    const PreparedQuery& query, size_t j,
                                    Statistics* stats = nullptr);

/// Same answer via the batched kernel: binds `query` on the caller-owned
/// validator and runs its SweepNearest over the store (the lane kernel at
/// the heap's current j-th distance; see kernel/footrule_batch.h). Ticks
/// kDistanceCalls n times, as LinearScanKnn does. `control` (optional) is
/// polled per lane batch / per scalar row; on a stop the partial answer
/// is dropped and the result is empty — the owning layer maps the stop
/// to a Status.
std::vector<Neighbor> LinearScanKnnBatched(const RankingStore& store,
                                           const PreparedQuery& query,
                                           size_t j,
                                           FootruleValidator* validator,
                                           Statistics* stats = nullptr,
                                           QueryControl* control = nullptr);

/// BK-tree KNN: depth-first traversal keeping the j best seen; a subtree
/// is entered only while |d(q, node) - edge| can still beat the current
/// j-th best distance. Degenerates to a full scan when j >= n.
std::vector<Neighbor> BkTreeKnn(const BkTree& tree,
                                const PreparedQuery& query, size_t j,
                                Statistics* stats = nullptr);

/// M-tree KNN: best-first descent ordered by the optimistic subtree bound
/// max(0, d(q, routing) - radius), pruned against the current j-th best.
std::vector<Neighbor> MTreeKnn(const MTree& tree, const PreparedQuery& query,
                               size_t j, Statistics* stats = nullptr);

}  // namespace topk

#endif  // TOPK_METRIC_KNN_H_
