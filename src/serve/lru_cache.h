// Sharded, epoch-validated LRU cache — the storage engine behind the
// result cache's range and k-NN stores (the RediSearch pattern: front an
// exact index with a cache that writes invalidate, adapted to exactness
// guarantees).
//
// Design:
//
//   sharding      entries are spread over independently locked shards by
//                 their key fingerprint, so concurrent executors rarely
//                 contend on one mutex. Capacity is split evenly across
//                 shards (eviction is enforced per shard).
//   epochs        every entry is stamped with the generation it was
//                 computed under. A lookup presents the caller's current
//                 generation; any entry from an older generation is
//                 treated as a miss and erased on touch — after a
//                 store/partitioning rebuild bumps the generation, a stale
//                 answer can never be served, without an eager sweep.
//   exactness     the shard map buckets by the key's 64-bit fingerprint,
//                 but a hit additionally requires full key equality
//                 (Key::operator== compares the canonical item vectors).
//                 A fingerprint collision therefore degrades to a
//                 miss/replacement, never to a wrong answer.
//
// Locking contract (compiler-enforced, see core/thread_annotations.h):
// all shard state is TOPK_GUARDED_BY the shard's own mutex, and every
// operation is a Shard member that takes a MutexLock on entry — shard
// mutexes are leaves of the lock hierarchy (DESIGN.md "Locking order &
// epoch contracts"), never held across calls out of this header.
//
// Key must provide a `uint64_t hash` member (precomputed fingerprint) and
// operator==. Value must be copyable (hits copy the value out under the
// shard lock).

#ifndef TOPK_SERVE_LRU_CACHE_H_
#define TOPK_SERVE_LRU_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace topk {

template <typename Key, typename Value>
class ShardedLruCache {
 public:
  /// A cache with room for ~`capacity` entries over `num_shards` locks.
  /// capacity 0 disables the cache (lookups miss, inserts are dropped);
  /// otherwise the shard count is clamped to the capacity so even
  /// capacity 1 is enforced exactly (one shard holding one entry). The
  /// per-shard budget is the ceiling division, so the cache never holds
  /// fewer than `capacity` entries overall (at most shards-1 more).
  ShardedLruCache(size_t capacity, size_t num_shards)
      : capacity_(capacity),
        shards_(capacity == 0
                    ? 1
                    : std::min(std::max<size_t>(num_shards, 1), capacity)) {
    per_shard_capacity_ =
        capacity == 0 ? 0 : (capacity + shards_.size() - 1) / shards_.size();
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Copies the value for `key` into `*out` and returns true iff an entry
  /// with the exact same key exists AND carries the caller's `epoch`.
  /// Touching a stale-epoch entry erases it (lazy invalidation).
  bool Lookup(const Key& key, uint64_t epoch, Value* out) {
    if (per_shard_capacity_ == 0) return false;
    return shard_for(key).Lookup(key, epoch, out);
  }

  /// Inserts (or replaces) the entry for `key`, stamped with `epoch`.
  /// Returns the number of entries evicted to make room (for ticker
  /// accounting); replacing an entry with the same fingerprint does not
  /// count as an eviction. `key` and `value` are moved into the entry,
  /// so nothing is copied under the shard mutex.
  size_t Insert(Key key, uint64_t epoch, Value value) {
    if (per_shard_capacity_ == 0) return 0;
    Shard& shard = shard_for(key);
    return shard.Insert(std::move(key), epoch, std::move(value),
                        per_shard_capacity_);
  }

  /// Drops every entry immediately (epoch bumps alone invalidate lazily).
  void Clear() {
    for (Shard& shard : shards_) shard.Clear();
  }

  /// Current entry count (includes not-yet-touched stale entries).
  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) total += shard.Size();
    return total;
  }

  size_t capacity() const { return capacity_; }
  bool enabled() const { return per_shard_capacity_ > 0; }

 private:
  struct Entry {
    Key key;
    Value value;
    uint64_t epoch;
  };

  /// One lock's worth of the cache. Locking lives inside the shard's own
  /// methods so every guarded access resolves against `this->mutex` —
  /// the pattern the thread-safety analysis verifies without any alias
  /// reasoning.
  struct Shard {
    mutable Mutex mutex;
    // front = most recently used.
    std::list<Entry> lru TOPK_GUARDED_BY(mutex);
    // Buckets by fingerprint; full-key equality is verified on hit.
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> map
        TOPK_GUARDED_BY(mutex);

    bool Lookup(const Key& key, uint64_t epoch, Value* out)
        TOPK_EXCLUDES(mutex) {
      MutexLock lock(&mutex);
      const auto it = map.find(key.hash);
      if (it == map.end()) return false;
      const auto entry = it->second;
      if (entry->epoch != epoch) {  // stale generation: invalidate on touch
        map.erase(it);
        lru.erase(entry);
        return false;
      }
      if (!(entry->key == key)) return false;  // fingerprint collision
      lru.splice(lru.begin(), lru, entry);     // most recent
      *out = entry->value;
      return true;
    }

    size_t Insert(Key key, uint64_t epoch, Value value,
                  size_t shard_capacity) TOPK_EXCLUDES(mutex) {
      const uint64_t hash = key.hash;
      MutexLock lock(&mutex);
      const auto it = map.find(hash);
      if (it != map.end()) {  // refresh (or fingerprint-collision swap)
        const auto entry = it->second;
        entry->key = std::move(key);
        entry->value = std::move(value);
        entry->epoch = epoch;
        lru.splice(lru.begin(), lru, entry);
        return 0;
      }
      size_t evicted = 0;
      while (lru.size() >= shard_capacity) {
        map.erase(lru.back().key.hash);
        lru.pop_back();
        ++evicted;
      }
      lru.push_front(Entry{std::move(key), std::move(value), epoch});
      map.emplace(hash, lru.begin());
      return evicted;
    }

    void Clear() TOPK_EXCLUDES(mutex) {
      MutexLock lock(&mutex);
      map.clear();
      lru.clear();
    }

    size_t Size() const TOPK_EXCLUDES(mutex) {
      MutexLock lock(&mutex);
      return lru.size();
    }
  };

  Shard& shard_for(const Key& key) {
    // The fingerprint is already well mixed (splitmix64 finalizer), so
    // modulo sharding is unbiased.
    return shards_[key.hash % shards_.size()];
  }

  size_t capacity_;
  std::vector<Shard> shards_;
  size_t per_shard_capacity_;
};

}  // namespace topk

#endif  // TOPK_SERVE_LRU_CACHE_H_
