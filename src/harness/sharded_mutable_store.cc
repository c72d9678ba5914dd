#include "harness/sharded_mutable_store.h"

#include <algorithm>
#include <utility>

#include "core/status.h"

namespace topk {

ShardedMutableStore::ShardedMutableStore(uint32_t k, size_t num_shards,
                                         ShardingStrategy strategy,
                                         MutableStoreOptions shard_options)
    : k_(k), strategy_(strategy) {
  TOPK_DCHECK(num_shards >= 1);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<MutableStore>(k, shard_options));
  }
  shard_to_global_.resize(num_shards);
}

// generation: delegated to the owning shard's Insert bump.
RankingId ShardedMutableStore::Insert(RankingView record) {
  MutexLock lock(&mutex_);
  const RankingId global = next_global_id_++;
  const size_t s = ShardPlacement(strategy_, global, shards_.size());
  const RankingId local = shards_[s]->Insert(record);
  // The shard assigns dense local ids in its own insert order, which is
  // exactly the order the wrapper routes to it.
  TOPK_DCHECK(local == shard_to_global_[s].size());
  (void)local;
  shard_to_global_[s].push_back(global);
  return global;
}

// generation: delegated to the owning shard's Delete bump.
bool ShardedMutableStore::Delete(RankingId id) {
  MutexLock lock(&mutex_);
  if (id >= next_global_id_) return false;
  const size_t s = ShardPlacement(strategy_, id, shards_.size());
  const std::vector<RankingId>& map = shard_to_global_[s];
  const auto it = std::lower_bound(map.begin(), map.end(), id);
  TOPK_DCHECK(it != map.end() && *it == id);
  const auto local = static_cast<RankingId>(it - map.begin());
  return shards_[s]->Delete(local);
}

bool ShardedMutableStore::Contains(RankingId id) const {
  MutexLock lock(&mutex_);
  if (id >= next_global_id_) return false;
  const size_t s = ShardPlacement(strategy_, id, shards_.size());
  const std::vector<RankingId>& map = shard_to_global_[s];
  const auto it = std::lower_bound(map.begin(), map.end(), id);
  TOPK_DCHECK(it != map.end() && *it == id);
  return shards_[s]->Contains(static_cast<RankingId>(it - map.begin()));
}

std::vector<RankingId> ShardedMutableStore::RangeQuery(
    const PreparedQuery& query, RawDistance theta_raw, Statistics* stats) {
  MutexLock lock(&mutex_);
  std::vector<RankingId> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<RankingId> locals =
        shards_[s]->RangeQuery(query, theta_raw, stats);
    const std::vector<RankingId>& map = shard_to_global_[s];
    for (const RankingId local : locals) out.push_back(map[local]);
  }
  // Per-shard lists are ascending in global id (increasing local ->
  // global maps); one sort merges them into the global order.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Neighbor> ShardedMutableStore::KnnQuery(
    const PreparedQuery& query, size_t j, Statistics* stats) {
  MutexLock lock(&mutex_);
  // Each shard contributes its exact top-min(j, shard live) on
  // (distance, id), and local -> global maps preserve id order within a
  // shard, so the global top-j is among the offers.
  NeighborHeap heap(j);
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<RankingId>& map = shard_to_global_[s];
    for (const Neighbor& n : shards_[s]->KnnQuery(query, j, stats)) {
      heap.Offer(map[n.id], n.distance);
    }
  }
  return std::move(heap).Finish();
}

bool ShardedMutableStore::MergeAllNow() {
  MutexLock lock(&mutex_);
  bool any = false;
  for (const auto& shard : shards_) any = shard->MergeNow() || any;
  return any;
}

void ShardedMutableStore::AddMutationListener(std::function<void()> listener) {
  MutexLock lock(&mutex_);
  for (const auto& shard : shards_) shard->AddMutationListener(listener);
}

uint64_t ShardedMutableStore::generation() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->generation();
  return sum;
}

size_t ShardedMutableStore::live_size() const {
  MutexLock lock(&mutex_);
  size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->live_size();
  return sum;
}

size_t ShardedMutableStore::total_inserted() const {
  MutexLock lock(&mutex_);
  return next_global_id_;
}

}  // namespace topk
