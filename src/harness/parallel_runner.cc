#include "harness/parallel_runner.h"

#include "core/status.h"

namespace topk {

ParallelRunner::ParallelRunner(const ShardedStore* store,
                               ParallelRunnerOptions options)
    : store_(store),
      options_(options),
      num_threads_(options.num_threads == 0 ? store->num_shards()
                                            : options.num_threads),
      pool_(num_threads_ - 1) {
  TOPK_DCHECK(num_threads_ >= 1);
  shards_.reserve(store_->num_shards());
  for (size_t s = 0; s < store_->num_shards(); ++s) {
    shards_.push_back(
        std::make_unique<ShardState>(&store_->shard(s), options_.suite_config));
  }
  scratch_results_.resize(store_->num_shards());
  scratch_stats_.resize(store_->num_shards());
  scratch_phases_.resize(store_->num_shards());
}

void ParallelRunner::Prepare(Algorithm algorithm) {
  MutexLock lock(&mutex_);
  PrepareLocked(algorithm);
}

void ParallelRunner::PrepareLocked(Algorithm algorithm) {
  TOPK_DCHECK(algorithm != Algorithm::kMinimalFV &&
              "kMinimalFV is workload-bound: use PrepareOracle");
  if (shards_[0]->engines.contains(algorithm)) return;  // already prepared
  // Index construction dominates preparation; build shard indexes in
  // parallel (each task touches only its own suite).
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    ShardState& shard = *shards_[s];
    shard.engines[algorithm] = shard.suite.MakeEngine(algorithm);
  });
}

void ParallelRunner::PrepareOracle(std::span<const PreparedQuery> queries,
                                   RawDistance theta_raw) {
  MutexLock lock(&mutex_);
  PrepareOracleLocked(queries, theta_raw);
}

void ParallelRunner::PrepareOracleLocked(std::span<const PreparedQuery> queries,
                                         RawDistance theta_raw) {
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    shards_[s]->oracle = shards_[s]->suite.MakeOracleEngine(queries, theta_raw);
  });
}

QueryEngine* ParallelRunner::engine(size_t s, Algorithm algorithm) {
  if (algorithm == Algorithm::kMinimalFV) {
    TOPK_DCHECK(shards_[s]->oracle != nullptr &&
                "call PrepareOracle before querying kMinimalFV");
    return shards_[s]->oracle.get();
  }
  return shards_[s]->engines.at(algorithm).get();
}

void ParallelRunner::FanOut(Algorithm algorithm, size_t query_index,
                            const PreparedQuery& query, RawDistance theta_raw,
                            std::vector<std::vector<RankingId>>* results,
                            std::vector<Statistics>* stats,
                            std::vector<PhaseTimes>* phases,
                            QueryControl* control) {
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    // Task-granular cooperative check: a shard task that starts after
    // the deadline fell (or the token tripped) skips its engine run
    // entirely. The coordinator discards the whole fan-out on stop, so
    // an empty slot is never merged into an answer.
    if (control != nullptr && control->ShouldStop()) {
      (*results)[s].clear();
      return;
    }
    (*results)[s] = engine(s, algorithm)
                        ->Query(query_index, query, theta_raw, &(*stats)[s],
                                &(*phases)[s]);
    store_->MapToGlobal(s, &(*results)[s]);
  });
}

std::vector<RankingId> ParallelRunner::RangeQuery(
    Algorithm algorithm, size_t query_index, const PreparedQuery& query,
    RawDistance theta_raw, Statistics* stats, PhaseTimes* phases) {
  MutexLock lock(&mutex_);
  if (algorithm != Algorithm::kMinimalFV) PrepareLocked(algorithm);
  for (size_t s = 0; s < shards_.size(); ++s) {
    scratch_stats_[s].Reset();
    scratch_phases_[s] = PhaseTimes{};
  }
  FanOut(algorithm, query_index, query, theta_raw, &scratch_results_,
         &scratch_stats_, &scratch_phases_);
  if (stats != nullptr) {
    for (const Statistics& shard_stats : scratch_stats_) {
      stats->MergeFrom(shard_stats);
    }
  }
  if (phases != nullptr) {
    for (const PhaseTimes& shard_phases : scratch_phases_) {
      phases->MergeFrom(shard_phases);
    }
  }
  return MergeShardRangeResults(scratch_results_);
}

Status ParallelRunner::RangeQuery(Algorithm algorithm, size_t query_index,
                                  const PreparedQuery& query,
                                  RawDistance theta_raw, QueryControl* control,
                                  std::vector<RankingId>* out,
                                  Statistics* stats, PhaseTimes* phases) {
  out->clear();
  MutexLock lock(&mutex_);
  if (algorithm != Algorithm::kMinimalFV) PrepareLocked(algorithm);
  if (control != nullptr && control->ShouldStop()) {
    return StopStatus(*control, stats);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    scratch_stats_[s].Reset();
    scratch_phases_[s] = PhaseTimes{};
  }
  FanOut(algorithm, query_index, query, theta_raw, &scratch_results_,
         &scratch_stats_, &scratch_phases_, control);
  // Shard tickers still merge on a stop (the work they account really
  // happened); only the answer itself is withheld.
  if (stats != nullptr) {
    for (const Statistics& shard_stats : scratch_stats_) {
      stats->MergeFrom(shard_stats);
    }
  }
  if (phases != nullptr) {
    for (const PhaseTimes& shard_phases : scratch_phases_) {
      phases->MergeFrom(shard_phases);
    }
  }
  if (control != nullptr && control->ShouldStop()) {
    return StopStatus(*control, stats);
  }
  *out = MergeShardRangeResults(scratch_results_);
  return Status::OK();
}

std::vector<Neighbor> ParallelRunner::KnnQuery(Algorithm algorithm,
                                               const PreparedQuery& query,
                                               size_t j, Statistics* stats) {
  MutexLock lock(&mutex_);
  TOPK_DCHECK(algorithm == Algorithm::kLinearScan ||
              algorithm == Algorithm::kBkTree || algorithm == Algorithm::kMTree);
  if (algorithm != Algorithm::kLinearScan) PrepareLocked(algorithm);
  std::vector<std::vector<Neighbor>> per_shard(shards_.size());
  for (Statistics& shard_stats : scratch_stats_) shard_stats.Reset();
  // Shard tasks reach their stats slot through this pointer (slot s is
  // task s's alone for the fan-out), not through the guarded member.
  Statistics* const stats_slots = scratch_stats_.data();
  pool_.ParallelFor(shards_.size(), [&, stats_slots](size_t s) {
    Statistics* shard_stats = stats != nullptr ? &stats_slots[s] : nullptr;
    switch (algorithm) {
      case Algorithm::kBkTree:
        per_shard[s] = BkTreeKnn(shards_[s]->suite.bk_tree(), query, j,
                                 shard_stats);
        break;
      case Algorithm::kMTree:
        per_shard[s] =
            MTreeKnn(shards_[s]->suite.m_tree(), query, j, shard_stats);
        break;
      default:
        per_shard[s] = LinearScanKnnBatched(store_->shard(s), query, j,
                                            &shards_[s]->validator,
                                            shard_stats);
        break;
    }
    // Shard-local (distance, id) order survives the global re-labelling
    // because the local -> global map is increasing.
    for (Neighbor& neighbor : per_shard[s]) {
      neighbor.id = store_->ToGlobal(s, neighbor.id);
    }
  });
  if (stats != nullptr) {
    for (const Statistics& shard_stats : scratch_stats_) {
      stats->MergeFrom(shard_stats);
    }
  }
  return MergeShardKnnResults(per_shard, j);
}

RunResult ParallelRunner::RunQueries(Algorithm algorithm,
                                     std::span<const PreparedQuery> queries,
                                     RawDistance theta_raw) {
  MutexLock lock(&mutex_);
  if (algorithm == Algorithm::kMinimalFV) {
    PrepareOracleLocked(queries, theta_raw);
  } else {
    PrepareLocked(algorithm);
  }

  RunResult result;
  result.num_queries = queries.size();
  result.num_threads = num_threads_;
  result.num_shards = store_->num_shards();
  result.shard_phases.assign(result.num_shards, PhaseTimes{});
  std::vector<Statistics> shard_stats(result.num_shards);
  std::vector<double> latencies;
  latencies.reserve(queries.size());

  Stopwatch total;
  for (size_t i = 0; i < queries.size(); ++i) {
    Stopwatch per_query;
    // Tickers and phase splits accumulate shard-locally over the whole
    // run and are merged once at the end (merge order is immaterial —
    // see Merge in core/statistics.h).
    FanOut(algorithm, i, queries[i], theta_raw, &scratch_results_,
           &shard_stats, &result.shard_phases);
    const std::vector<RankingId> matches =
        MergeShardRangeResults(scratch_results_);
    latencies.push_back(per_query.ElapsedMillis());
    result.total_results += matches.size();
    for (const RankingId id : matches) result.result_hash += MixId64(id);
  }
  result.wall_ms = total.ElapsedMillis();

  for (const Statistics& stats : shard_stats) result.stats.MergeFrom(stats);
  for (const PhaseTimes& phases : result.shard_phases) {
    result.phases.MergeFrom(phases);
  }

  FinalizeLatencyStats(&latencies, &result);
  return result;
}

std::vector<RankingId> MergeShardRangeResults(
    std::span<const std::vector<RankingId>> per_shard) {
  size_t total = 0;
  for (const std::vector<RankingId>& ids : per_shard) total += ids.size();
  std::vector<RankingId> merged;
  merged.reserve(total);

  // Index-based k-way merge; the shard count is small (<= 16 in every
  // configuration we run), so the linear head scan beats a heap.
  std::vector<size_t> heads(per_shard.size(), 0);
  while (merged.size() < total) {
    size_t best = per_shard.size();
    RankingId best_id = 0;
    for (size_t s = 0; s < per_shard.size(); ++s) {
      if (heads[s] == per_shard[s].size()) continue;
      const RankingId id = per_shard[s][heads[s]];
      if (best == per_shard.size() || id < best_id) {
        best = s;
        best_id = id;
      }
    }
    merged.push_back(best_id);
    ++heads[best];
  }
  return merged;
}

std::vector<Neighbor> MergeShardKnnResults(
    std::span<const std::vector<Neighbor>> per_shard, size_t j) {
  std::vector<Neighbor> merged;
  if (j == 0) return merged;
  merged.reserve(j);
  std::vector<size_t> heads(per_shard.size(), 0);
  while (merged.size() < j) {
    // The admission bound ("theta") is implicitly the j-th best distance:
    // each pop takes the global minimum over shard heads, so once j
    // results are out, every unconsumed tail is provably worse and is
    // dropped without inspection.
    size_t best = per_shard.size();
    for (size_t s = 0; s < per_shard.size(); ++s) {
      if (heads[s] == per_shard[s].size()) continue;
      if (best == per_shard.size() ||
          NeighborLess(per_shard[s][heads[s]],
                       per_shard[best][heads[best]])) {
        best = s;
      }
    }
    if (best == per_shard.size()) break;  // fewer than j rankings exist
    merged.push_back(per_shard[best][heads[best]]);
    ++heads[best];
  }
  return merged;
}

}  // namespace topk
