// Brute-force range search over the whole store.
//
// The exhaustive baseline; every other algorithm's result set is tested
// for equality against this one, and it bootstraps the Minimal F&V oracle.
//
// Two entry points: LinearScanQuery evaluates the scalar merge kernel per
// ranking and is the *scalar reference* the differential suites and the
// benchmark's answer checker trust — no serving path may call it
// (scripts/check_invariants.py rule scalar-oracle). LinearScanQueryBatched
// is the *served* path: it routes through the kernel validator (query
// rank table bound once, early-exit per candidate) and is what the
// harness engine and the serving layer run. metric/knn.h splits k-NN the
// same way (LinearScanKnn / LinearScanKnnBatched).

#ifndef TOPK_METRIC_LINEAR_SCAN_H_
#define TOPK_METRIC_LINEAR_SCAN_H_

#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/footrule_batch.h"

namespace topk {

/// All rankings within raw distance `theta_raw` of the query, ascending
/// id. Scalar reference path: one merge-kernel call per ranking.
std::vector<RankingId> LinearScanQuery(const RankingStore& store,
                                       const PreparedQuery& query,
                                       RawDistance theta_raw,
                                       Statistics* stats = nullptr);

/// Same answer via the batched kernel: binds `query` on the caller-owned
/// validator and sweeps the store with ValidateAll. Bit-identical to the
/// scalar path (the kernel tests pin this).
std::vector<RankingId> LinearScanQueryBatched(const RankingStore& store,
                                              const PreparedQuery& query,
                                              RawDistance theta_raw,
                                              FootruleValidator* validator,
                                              Statistics* stats = nullptr);

}  // namespace topk

#endif  // TOPK_METRIC_LINEAR_SCAN_H_
