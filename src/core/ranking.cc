#include "core/ranking.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace topk {

namespace {

bool HasDuplicates(std::span<const ItemId> items) {
  // k <= ~25 in every workload; the quadratic scan beats sorting a copy.
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      if (items[i] == items[j]) return true;
    }
  }
  return false;
}

}  // namespace

Result<Ranking> Ranking::Create(std::vector<ItemId> items) {
  if (items.empty()) {
    return Status::InvalidArgument("ranking must contain at least one item");
  }
  if (HasDuplicates(items)) {
    return Status::InvalidArgument("ranking contains duplicate items");
  }
  return Ranking(std::move(items));
}

SortedRanking::SortedRanking(RankingView view) {
  const uint32_t k = view.k();
  items_.resize(k);
  ranks_.resize(k);
  // Sort (item, rank) pairs by item via an index permutation.
  std::vector<uint32_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(),
            [&view](uint32_t a, uint32_t b) { return view[a] < view[b]; });
  for (uint32_t j = 0; j < k; ++j) {
    items_[j] = view[perm[j]];
    ranks_[j] = perm[j];
  }
}

RankingStore RankingStore::AdoptExternal(uint32_t k, size_t n,
                                         ItemId max_item,
                                         const ItemId* items,
                                         const ItemId* sorted_items,
                                         const Rank* sorted_ranks) {
  RankingStore store(k);
  store.size_ = n;
  store.max_item_ = max_item;
  store.external_ = true;
  store.ext_items_ = items;
  store.ext_sorted_items_ = sorted_items;
  store.ext_sorted_ranks_ = sorted_ranks;
  return store;
}

Result<RankingId> RankingStore::Add(std::span<const ItemId> items) {
  TOPK_DCHECK(!external_);
  if (items.size() != k_) {
    return Status::InvalidArgument(
        "ranking size " + std::to_string(items.size()) +
        " does not match store k=" + std::to_string(k_));
  }
  if (HasDuplicates(items)) {
    return Status::InvalidArgument("ranking contains duplicate items");
  }
  AppendRow(items);
  return static_cast<RankingId>(size_ - 1);
}

RankingId RankingStore::AddUnchecked(std::span<const ItemId> items) {
  TOPK_DCHECK(!external_);
  TOPK_DCHECK(items.size() == k_);
  TOPK_DCHECK(!HasDuplicates(items));
  AppendRow(items);
  return static_cast<RankingId>(size_ - 1);
}

void RankingStore::Reserve(size_t num_rankings) {
  const size_t cells = num_rankings * k_;
  items_.reserve(cells);
  sorted_items_.reserve(cells);
  sorted_ranks_.reserve(cells);
}

void RankingStore::AppendRow(std::span<const ItemId> items) {
  items_.insert(items_.end(), items.begin(), items.end());

  // Build the item-sorted row: pack (item, rank) into one uint64 so a
  // single sort produces both parallel arrays. Typical k (5..25) stays on
  // the stack; larger rankings (the kernel differential suites go to
  // k = 100) take the heap path instead of overrunning a fixed buffer.
  uint64_t stack_packed[64];
  std::vector<uint64_t> heap_packed;
  uint64_t* packed = stack_packed;
  if (k_ > 64) {
    heap_packed.resize(k_);
    packed = heap_packed.data();
  }
  for (uint32_t p = 0; p < k_; ++p) {
    packed[p] = (static_cast<uint64_t>(items[p]) << 32) | p;
  }
  std::sort(packed, packed + k_);
  for (uint32_t j = 0; j < k_; ++j) {
    sorted_items_.push_back(static_cast<ItemId>(packed[j] >> 32));
    sorted_ranks_.push_back(static_cast<Rank>(packed[j] & 0xffffffffULL));
  }

  for (ItemId item : items) max_item_ = std::max(max_item_, item);
  ++size_;
}

uint64_t SequenceFingerprint(std::span<const ItemId> items) {
  // Chained absorb: each step mixes the running state with the next item,
  // so position matters; seeding with the length separates prefixes.
  uint64_t h = 0x9ae16a3b2f90404full ^ items.size();
  for (const ItemId item : items) h = MixId64(h ^ MixId64(item));
  return h;
}

Ranking RankingStore::Materialize(RankingId id) const {
  RankingView v = view(id);
  std::vector<ItemId> items(v.items().begin(), v.items().end());
  return std::move(Ranking::Create(std::move(items))).ValueOrDie();
}

}  // namespace topk
