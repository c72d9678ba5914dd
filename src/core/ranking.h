// Top-k ranking model and the flat in-memory store holding a collection.
//
// A ranking of size k is a bijection from its k-item domain onto positions
// 0..k-1 (position 0 = top-ranked item); see Section 3 of the paper. The
// library keeps the whole collection in one contiguous RankingStore:
//
//   items_         n*k item ids in position order (row i = ranking i)
//   sorted_items_  the same rows with items ascending
//   sorted_ranks_  parallel ranks, so row i's pairs (sorted_items_[i*k+j],
//                  sorted_ranks_[i*k+j]) enumerate (item, rank) by item id
//
// The sorted view makes a Footrule evaluation a linear merge of two sorted
// k-arrays — no hashing, no per-call allocation — which matters because
// distance computation dominates the validation phase of every algorithm.

#ifndef TOPK_CORE_RANKING_H_
#define TOPK_CORE_RANKING_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace topk {

/// Non-owning view of a ranking in position order: items()[p] is the item
/// at rank p.
class RankingView {
 public:
  RankingView(const ItemId* items, uint32_t k) : items_(items), k_(k) {}

  uint32_t k() const { return k_; }
  ItemId operator[](Rank p) const {
    TOPK_DCHECK(p < k_);
    return items_[p];
  }
  std::span<const ItemId> items() const { return {items_, k_}; }

  /// Rank of `item`, or nullopt if absent. Linear scan: k is tiny (5..25).
  std::optional<Rank> RankOf(ItemId item) const {
    for (uint32_t p = 0; p < k_; ++p) {
      if (items_[p] == item) return p;
    }
    return std::nullopt;
  }
  bool Contains(ItemId item) const { return RankOf(item).has_value(); }

 private:
  const ItemId* items_;
  uint32_t k_;
};

/// Non-owning item-sorted view: items() ascending, ranks() parallel.
class SortedRankingView {
 public:
  SortedRankingView(const ItemId* items, const Rank* ranks, uint32_t k)
      : items_(items), ranks_(ranks), k_(k) {}

  uint32_t k() const { return k_; }
  std::span<const ItemId> items() const { return {items_, k_}; }
  std::span<const Rank> ranks() const { return {ranks_, k_}; }
  ItemId item(uint32_t j) const { return items_[j]; }
  Rank rank(uint32_t j) const { return ranks_[j]; }

 private:
  const ItemId* items_;
  const Rank* ranks_;
  uint32_t k_;
};

/// An owning ranking, used at API boundaries (query construction, tests).
class Ranking {
 public:
  /// Validates that `items` is duplicate-free (rankings never repeat an
  /// item, Section 1.1) and non-empty.
  static Result<Ranking> Create(std::vector<ItemId> items);

  uint32_t k() const { return static_cast<uint32_t>(items_.size()); }
  const std::vector<ItemId>& items() const { return items_; }
  RankingView view() const {
    return RankingView(items_.data(), k());
  }

 private:
  explicit Ranking(std::vector<ItemId> items) : items_(std::move(items)) {}

  std::vector<ItemId> items_;
};

/// Owning item-sorted representation of a query ranking; built once per
/// query, then shared by all index probes and distance computations.
class SortedRanking {
 public:
  explicit SortedRanking(const Ranking& ranking)
      : SortedRanking(ranking.view()) {}
  explicit SortedRanking(RankingView view);

  uint32_t k() const { return static_cast<uint32_t>(items_.size()); }
  SortedRankingView view() const {
    return SortedRankingView(items_.data(), ranks_.data(), k());
  }

 private:
  std::vector<ItemId> items_;
  std::vector<Rank> ranks_;
};

/// A query ranking prepared for processing: the position-order view (used
/// to pick posting lists by rank) plus the item-sorted view (used by the
/// distance kernel). Built once per query, shared by all algorithms.
struct PreparedQuery {
  explicit PreparedQuery(Ranking r)
      : ranking(std::move(r)), sorted(ranking) {}

  uint32_t k() const { return ranking.k(); }
  RankingView view() const { return ranking.view(); }
  SortedRankingView sorted_view() const { return sorted.view(); }

  Ranking ranking;
  SortedRanking sorted;
};

/// Order-sensitive 64-bit fingerprint of an item sequence: two sequences
/// fingerprint equal only if they list the same items in the same order
/// (up to 64-bit collisions — consumers needing certainty must compare
/// the sequences, as the serving-layer result cache does). Stable across
/// platforms: built from MixId64 only.
uint64_t SequenceFingerprint(std::span<const ItemId> items);

/// Contiguous storage for a collection of equal-size rankings.
///
/// Two storage modes share one read interface: the default *owned* mode
/// holds the three column arrays in vectors and accepts Add(); the
/// *external* mode (AdoptExternal) wraps caller-owned immutable memory —
/// an mmap'd snapshot section (storage/snapshot.h) — so a collection
/// loads zero-copy and pages on demand. External stores are frozen:
/// Add/AddUnchecked on them is a contract violation (debug-checked).
class RankingStore {
 public:
  explicit RankingStore(uint32_t k) : k_(k) { TOPK_DCHECK(k > 0); }

  /// Wraps externally owned column arrays (each `n * k` elements, laid
  /// out exactly as the owned vectors would be). The backing memory must
  /// outlive the store; the caller vouches for the rows being valid
  /// rankings with items <= max_item (the snapshot's full verify,
  /// storage::VerifySnapshotChecksums, stands in for the Add-path
  /// validation).
  static RankingStore AdoptExternal(uint32_t k, size_t n, ItemId max_item,
                                    const ItemId* items,
                                    const ItemId* sorted_items,
                                    const Rank* sorted_ranks);

  /// Whether this store wraps external (frozen, typically mmap'd) memory.
  bool external() const { return external_; }

  /// Appends a ranking; rejects wrong sizes and duplicate items.
  /// Returns the id (insertion position) of the new ranking on success.
  Result<RankingId> Add(std::span<const ItemId> items);

  /// Appends a pre-validated ranking (generators validate by construction).
  /// Duplicate-freeness is still checked in debug builds.
  RankingId AddUnchecked(std::span<const ItemId> items);

  /// Pre-allocates room for `num_rankings` rows. Bulk producers that know
  /// the final size (shard builders, deserialization) call this once to
  /// avoid growth reallocations of the three parallel arrays.
  void Reserve(size_t num_rankings);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t k() const { return k_; }

  /// Largest item id stored so far (0 when empty); inverted indexes size
  /// their dense list directories with this.
  ItemId max_item() const { return max_item_; }

  RankingView view(RankingId id) const {
    TOPK_DCHECK(id < size_);
    return RankingView(items_data() + static_cast<size_t>(id) * k_, k_);
  }

  /// The whole position-order item matrix, row `id` at [id*k, (id+1)*k):
  /// the vectorized validate kernel gathers candidate rows straight out
  /// of it instead of staging per-row views.
  std::span<const ItemId> flat_items() const {
    return {items_data(), size_ * k_};
  }
  /// Whole sorted columns (row `id` at [id*k, (id+1)*k)), for bulk
  /// consumers: the snapshot writer persists them verbatim.
  std::span<const ItemId> flat_sorted_items() const {
    return {sorted_items_data(), size_ * k_};
  }
  std::span<const Rank> flat_sorted_ranks() const {
    return {sorted_ranks_data(), size_ * k_};
  }
  SortedRankingView sorted(RankingId id) const {
    TOPK_DCHECK(id < size_);
    const size_t off = static_cast<size_t>(id) * k_;
    return SortedRankingView(sorted_items_data() + off,
                             sorted_ranks_data() + off, k_);
  }

  /// Copies ranking `id` out into an owning Ranking.
  Ranking Materialize(RankingId id) const;

  /// Heap bytes held by the store (for Table 6 style reporting). An
  /// external (mmap-backed) store holds ~none: the mapping pays, and
  /// pages in on demand.
  size_t MemoryUsage() const {
    return items_.capacity() * sizeof(ItemId) +
           sorted_items_.capacity() * sizeof(ItemId) +
           sorted_ranks_.capacity() * sizeof(Rank);
  }

 private:
  void AppendRow(std::span<const ItemId> items);

  // Live column bases: the owned vectors by default, the adopted
  // external arrays otherwise. Branching here (predictable, per-row not
  // per-entry) keeps the default copy/move of the vectors correct — no
  // cached pointers to refresh.
  const ItemId* items_data() const {
    return external_ ? ext_items_ : items_.data();
  }
  const ItemId* sorted_items_data() const {
    return external_ ? ext_sorted_items_ : sorted_items_.data();
  }
  const Rank* sorted_ranks_data() const {
    return external_ ? ext_sorted_ranks_ : sorted_ranks_.data();
  }

  uint32_t k_;
  size_t size_ = 0;
  ItemId max_item_ = 0;
  std::vector<ItemId> items_;
  std::vector<ItemId> sorted_items_;
  std::vector<Rank> sorted_ranks_;
  bool external_ = false;
  const ItemId* ext_items_ = nullptr;
  const ItemId* ext_sorted_items_ = nullptr;
  const Rank* ext_sorted_ranks_ = nullptr;
};

}  // namespace topk

#endif  // TOPK_CORE_RANKING_H_
