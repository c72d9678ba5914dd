// Parallel query serving over a ShardedStore.
//
// Architecture: every shard owns a full EngineSuite, so each of the
// paper's algorithms runs unchanged against its shard. A query fans out
// across all shards on a reusable fixed-size ThreadPool (the calling
// thread participates), and the per-shard answers are merged exactly:
//
//   range  per-shard result lists arrive ascending in shard-local id;
//          mapping to global ids preserves order (see ShardedStore), so a
//          k-way merge reproduces the single-store ascending id list
//          bit-for-bit.
//   k-NN   every shard returns its local j best by (distance, global id);
//          the global j best is a subset of that union, so a heap merge
//          that stops after j results — tightening the admission bound
//          theta to the current j-th best distance as it goes, which cuts
//          off each shard's sorted tail early — is exact.
//
// Accounting is aggregation-safe by construction: each shard task writes
// only its own Statistics / PhaseTimes slot, and the coordinator merges
// the slots after the fan-out joins (the pool's future handshake is the
// happens-before edge). No ticker is ever shared between threads.
//
// The coordinator methods (Prepare / RangeQuery / KnnQuery / RunQueries)
// serialize on an internal coordinator mutex, and the fan-out scratch
// arrays are TOPK_GUARDED_BY it (compiler-enforced on the clang
// thread-safety CI leg): one query drives the runner at a time, and a
// second thread calling in now blocks instead of racing. Per-shard state
// reached from inside pool tasks (each task owns exactly its shard's
// slot) is deliberately outside the capability system — that one-writer-
// per-slot discipline is what the TSan leg and the fuzz differentials
// check. See DESIGN.md "Locking order & epoch contracts".

#ifndef TOPK_HARNESS_PARALLEL_RUNNER_H_
#define TOPK_HARNESS_PARALLEL_RUNNER_H_

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/deadline.h"
#include "core/mutex.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/thread_annotations.h"
#include "core/types.h"
#include "harness/query_algorithms.h"
#include "harness/runner.h"
#include "harness/sharded_store.h"
#include "harness/thread_pool.h"
#include "kernel/footrule_batch.h"
#include "metric/knn.h"

namespace topk {

struct ParallelRunnerOptions {
  /// Total threads doing query work, including the calling thread
  /// (the pool spawns num_threads - 1 workers). 0 means "one per shard".
  size_t num_threads = 0;
  /// Forwarded to every per-shard EngineSuite.
  EngineSuiteConfig suite_config;
};

class ParallelRunner {
 public:
  explicit ParallelRunner(const ShardedStore* store,
                          ParallelRunnerOptions options = {});

  size_t num_shards() const { return store_->num_shards(); }
  size_t num_threads() const { return num_threads_; }
  const ShardedStore& store() const { return *store_; }

  /// Per-shard suite access (benches inspect index build cost per shard).
  EngineSuite& suite(size_t s) { return shards_[s]->suite; }

  /// Builds the per-shard indexes and engines behind `algorithm`, one
  /// shard per pool thread. Idempotent; called implicitly by the query
  /// methods. kMinimalFV is workload-bound — use PrepareOracle.
  void Prepare(Algorithm algorithm) TOPK_EXCLUDES(mutex_);

  /// Materializes the per-shard Minimal-F&V oracles for this workload;
  /// afterwards RangeQuery/RunQueries accept Algorithm::kMinimalFV with
  /// query indexes into `queries`.
  void PrepareOracle(std::span<const PreparedQuery> queries,
                     RawDistance theta_raw) TOPK_EXCLUDES(mutex_);

  /// Exact sharded range query; the returned global ids are ascending,
  /// identical to the same engine over the unsharded store. `query_index`
  /// only matters for kMinimalFV. Merged per-shard tickers/phases land in
  /// `stats`/`phases` when non-null.
  std::vector<RankingId> RangeQuery(Algorithm algorithm, size_t query_index,
                                    const PreparedQuery& query,
                                    RawDistance theta_raw,
                                    Statistics* stats = nullptr,
                                    PhaseTimes* phases = nullptr)
      TOPK_EXCLUDES(mutex_);

  std::vector<RankingId> RangeQuery(Algorithm algorithm,
                                    const PreparedQuery& query,
                                    RawDistance theta_raw,
                                    Statistics* stats = nullptr) {
    return RangeQuery(algorithm, 0, query, theta_raw, stats, nullptr);
  }

  /// Deadline/cancel-aware sharded range query. The control is checked
  /// before the fan-out and at shard-task granularity inside it (shards
  /// that have not started yet are skipped once the query stops). On a
  /// stop the partial per-shard results are discarded, `*out` is left
  /// empty, kDeadlineExceeded is ticked, and the status is
  /// DeadlineExceeded (deadline) or Aborted (cancel) — never a hang, and
  /// never a partial answer presented as exact.
  Status RangeQuery(Algorithm algorithm, size_t query_index,
                    const PreparedQuery& query, RawDistance theta_raw,
                    QueryControl* control, std::vector<RankingId>* out,
                    Statistics* stats = nullptr, PhaseTimes* phases = nullptr)
      TOPK_EXCLUDES(mutex_);

  /// Exact sharded k-NN (kLinearScan, kBkTree or kMTree backends): the
  /// min(j, size()) nearest rankings by (distance, global id), identical
  /// to the unsharded searcher.
  std::vector<Neighbor> KnnQuery(Algorithm algorithm,
                                 const PreparedQuery& query, size_t j,
                                 Statistics* stats = nullptr)
      TOPK_EXCLUDES(mutex_);

  /// Sharded counterpart of RunQueries (harness/runner.h): runs the whole
  /// workload, aggregating latencies, tickers and per-shard phase splits.
  RunResult RunQueries(Algorithm algorithm,
                       std::span<const PreparedQuery> queries,
                       RawDistance theta_raw) TOPK_EXCLUDES(mutex_);

 private:
  struct ShardState {
    ShardState(const RankingStore* shard_store, EngineSuiteConfig config)
        : suite(shard_store, config) {}
    EngineSuite suite;
    std::map<Algorithm, std::unique_ptr<QueryEngine>> engines;
    std::unique_ptr<QueryEngine> oracle;
    /// kLinearScan k-NN scratch: rank tables grow once per shard and are
    /// rebound per query (one task per shard, as for the engines).
    FootruleValidator validator;
  };

  /// Prepare/PrepareOracle bodies for callers already holding mutex_.
  void PrepareLocked(Algorithm algorithm) TOPK_REQUIRES(mutex_);
  void PrepareOracleLocked(std::span<const PreparedQuery> queries,
                           RawDistance theta_raw) TOPK_REQUIRES(mutex_);

  /// Runs one query on every shard (range form), leaving shard s's global
  /// ids in (*results)[s] and its tickers/phases in the s-th slots. A
  /// non-null `control` is consulted once per shard task: a shard whose
  /// task starts after the stop leaves its slot empty (the caller must
  /// then discard the whole fan-out, not merge it).
  void FanOut(Algorithm algorithm, size_t query_index,
              const PreparedQuery& query, RawDistance theta_raw,
              std::vector<std::vector<RankingId>>* results,
              std::vector<Statistics>* stats, std::vector<PhaseTimes>* phases,
              QueryControl* control = nullptr) TOPK_REQUIRES(mutex_);

  /// Engine lookup for one shard. Called from inside pool tasks (which
  /// hold no capability), so it must stay annotation-free: the per-shard
  /// engine maps are written only by PrepareLocked's fan-out (one task
  /// per shard) and read-only while queries run.
  QueryEngine* engine(size_t s, Algorithm algorithm);

  const ShardedStore* store_;
  ParallelRunnerOptions options_;
  size_t num_threads_;
  ThreadPool pool_;
  /// Serializes the coordinator methods (above the pool's queue mutex in
  /// the lock order; shard tasks never touch it).
  Mutex mutex_;
  // Shard handles: the vector itself is immutable after construction;
  // the per-shard state behind it follows the one-task-per-shard rule
  // documented on engine().
  std::vector<std::unique_ptr<ShardState>> shards_;

  // Fan-out scratch, reused across queries. Guarded coordinator-side;
  // during a fan-out each shard task writes only its own slot through
  // the pointers FanOut hands it.
  std::vector<std::vector<RankingId>> scratch_results_ TOPK_GUARDED_BY(mutex_);
  std::vector<Statistics> scratch_stats_ TOPK_GUARDED_BY(mutex_);
  std::vector<PhaseTimes> scratch_phases_ TOPK_GUARDED_BY(mutex_);
};

/// Exact ascending merge of per-shard ascending id lists (exposed for the
/// differential tests).
std::vector<RankingId> MergeShardRangeResults(
    std::span<const std::vector<RankingId>> per_shard);

/// Exact theta-tightening merge of per-shard k-NN lists, each sorted by
/// (distance, id): pops the global best until j results are admitted; a
/// shard's remaining tail is discarded as soon as its head exceeds the
/// tightened bound.
std::vector<Neighbor> MergeShardKnnResults(
    std::span<const std::vector<Neighbor>> per_shard, size_t j);

}  // namespace topk

#endif  // TOPK_HARNESS_PARALLEL_RUNNER_H_
