// Batched one-vs-many Footrule validation (v2: vectorized).
//
// The scalar kernel (core/footrule.h) merges two item-sorted k-arrays per
// call — optimal for one pair, but a validate phase evaluates ONE query
// against hundreds of candidates, re-walking the query side every time
// through a three-way unpredictable branch. The batched validator hoists
// the query out of the loop: BindQuery() publishes an epoch-stamped
// item -> query-rank table once, after which each candidate costs a single
// pass over its own k items with one table probe per item and no merge
// branching.
//
// Identity (the decomposition behind the kernel): with Sq = k(k+1)/2,
//
//   F(q, c) = sum_{p} contrib(c[p], p) + (Sq - qcover)
//   contrib(item, p) = |rank_q(item) - p|   when item is in q
//                    = k - p                otherwise
//   qcover          = sum of (k - rank_q(item)) over matched items
//
// Every contrib term is >= 0, so the running sum is a monotone lower bound
// of the final distance: ValidateSpan abandons a candidate as soon as the
// partial sum exceeds theta (the "running lower bound vs theta" early
// exit), which no merge-order argument is needed to justify.
//
// v2 vector path: when a SIMD backend is compiled in (kernel/simd.h) and
// the caller has not forced the scalar path, ValidateSpan/ValidateAll
// process kSimdLanes candidates at a time (kernel/footrule_simd.h). Lanes
// are SoA row offsets into the store's contiguous item matrix — items are
// gathered straight from RankingStore::flat_items() and query ranks from
// a flat 32-bit rank lane table BindQuery maintains alongside the scalar
// slot table (previous ranks are unpublished explicitly, so absent reads
// are a sentinel, not an epoch check). An early staging-transpose design
// was measured and rejected: it paid for all k positions up front while
// the early exit — here a per-batch running-lower-bound mask — typically
// consumes a fraction of them. Remainder candidates (span sizes not
// divisible by the lane width) always run the scalar code, which stays
// the reference in every build.
//
// Exactness: the arithmetic is the same integers the scalar kernel sums in
// a different order, so accept/reject decisions (and Distance() values)
// are bit-identical — scalar pinned against FootruleDistance by
// kernel_filter_test, SIMD pinned against the scalar path by
// kernel_simd_test, and both by every fuzz differential.
//
// Ticker contract: ValidateSpan/ValidateAll/SweepNearest tick
// kDistanceCalls once per candidate (an early-exited candidate still
// "costs" one distance evaluation in the paper's DFC accounting, exactly
// as the scalar loop it replaced did); kCandidates/kResults stay with the
// caller.
//
// Store-wide sweep: ValidateAll (range, constant theta) and SweepNearest
// (k-NN, theta = the heap's current j-th distance) share one loop over
// every row, Sweep(); only what is accepted, and the threshold it is
// accepted at, differ.
//
// Epoch discipline (scalar table): slot = epoch << 32 | rank, and epoch 0
// is RESERVED as the never-matches stamp — BindQuery skips it when the
// 32-bit counter wraps, which is what makes the zero-fill in
// EnsureItemCapacity epoch-safe: a zero slot can alias "epoch 0, rank 0"
// but epoch 0 is never current while a query is bound.
// set_epoch_for_testing() exists so the wrap path is actually covered by
// a test instead of requiring 2^32 binds.

#ifndef TOPK_KERNEL_FOOTRULE_BATCH_H_
#define TOPK_KERNEL_FOOTRULE_BATCH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/deadline.h"
#include "core/neighbor.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/footrule_simd.h"
#include "kernel/simd.h"

// Whether a vector backend was compiled (kernel/simd.h resolved one from
// TOPK_SIMD + the target ISA); gates the dispatch branches below so the
// scalar-only build contains no dead lane-table code.
#if defined(TOPK_SIMD_AVX2) || defined(TOPK_SIMD_SSE42) || \
    defined(TOPK_SIMD_NEON)
#define TOPK_SIMD_DISPATCH 1
#else
#define TOPK_SIMD_DISPATCH 0
#endif

namespace topk {

class FootruleValidator {
 public:
  FootruleValidator() = default;

  /// "No cap" sentinel for BindQuery's item_domain.
  static constexpr size_t kUnboundedDomain = SIZE_MAX;

  /// Largest k the vector path accepts: keeps every 32-bit lane
  /// accumulator below k*(k+1) <= INT32_MAX with a wide margin (real
  /// rankings have k in the tens), and real ranks well under the absent
  /// sentinel.
  static constexpr uint32_t kMaxSimdK = 1u << 14;

  /// Grows the rank table to cover item ids < `capacity`. Lookups of
  /// larger ids are handled (absent), at the price of a bounds branch the
  /// table hit path never takes. The fills are epoch-safe: epoch 0 is
  /// reserved (never current) so zeroed scalar slots read as absent, and
  /// the SIMD lane table grows with the explicit absent sentinel.
  void EnsureItemCapacity(size_t capacity) {
    if (capacity > slots_.size()) {
      slots_.resize(capacity, 0);
#if TOPK_SIMD_DISPATCH
      lane_ranks_.resize(capacity, kernel::kAbsentRank);
#endif
    }
  }

  /// Publishes `query`'s item -> rank table; O(k) per bind (epoch-stamped
  /// slots, no clearing; the SIMD lane table unpublishes the previous
  /// query's k ranks explicitly). `item_domain` caps the table size —
  /// pass the store's max_item() + 1 so a malformed or adversarial query
  /// item id cannot force a giant allocation that lives as long as the
  /// validator. Query items >= item_domain are simply never published: no
  /// candidate the store can produce contains them, so they can only be
  /// absent and the (Sq - qcover) term accounts for them exactly —
  /// distances are unchanged.
  void BindQuery(RankingView query, size_t item_domain = kUnboundedDomain) {
    k_ = query.k();
    half_absent_ = static_cast<RawDistance>(k_) * (k_ + 1) / 2;
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: clear lazily and restart past the
      std::fill(slots_.begin(), slots_.end(), 0);  // reserved epoch 0
      epoch_ = 1;
    }
    ItemId max_item = 0;
    for (ItemId item : query.items()) max_item = std::max(max_item, item);
    EnsureItemCapacity(
        std::min(static_cast<size_t>(max_item) + 1, item_domain));
#if TOPK_SIMD_DISPATCH
    for (const ItemId item : published_) {
      lane_ranks_[item] = kernel::kAbsentRank;
    }
    published_.clear();
#endif
    for (Rank p = 0; p < k_; ++p) {
      const ItemId item = query[p];
      if (item < item_domain) {
        slots_[item] = (static_cast<uint64_t>(epoch_) << 32) | p;
#if TOPK_SIMD_DISPATCH
        lane_ranks_[item] = p;
        published_.push_back(item);
#endif
      }
    }
  }

  /// Current rank-table coverage (tests assert the domain cap holds).
  size_t table_capacity() const { return slots_.size(); }

  uint32_t k() const { return k_; }

  /// Compiled vector backend ("avx2", "sse4.2", "neon", or "scalar").
  static constexpr const char* SimdBackendName() { return kSimdBackendName; }

  /// Whether a vector backend is compiled in at all.
  static constexpr bool SimdCompiled() { return kSimdLanes > 1; }

  /// Forces the scalar path even when a vector backend is compiled
  /// (differential tests and the scalar-vs-SIMD bench rows use this).
  void set_use_simd(bool use_simd) { use_simd_ = use_simd; }
  bool use_simd() const { return use_simd_; }

  /// Test-only epoch seam: lets a test park the counter at UINT32_MAX so
  /// the next BindQuery exercises the wrap path (clear + restart at 1)
  /// without 2^32 binds. Epoch 0 is the reserved never-matches stamp;
  /// setting it here would violate the invariant BindQuery maintains.
  void set_epoch_for_testing(uint32_t epoch) {
    TOPK_DCHECK(epoch != 0 && "epoch 0 is reserved as never-current");
    epoch_ = epoch;
  }
  uint32_t epoch_for_testing() const { return epoch_; }

  /// Exact Footrule distance from the bound query to `candidate`
  /// (position-order view, same k). Equals FootruleDistance on the sorted
  /// views.
  RawDistance Distance(RankingView candidate) const {
    TOPK_DCHECK(candidate.k() == k_);
    TOPK_DCHECK(epoch_ > 0 || k_ == 0);
    RawDistance running = 0;
    RawDistance qcover = 0;
    for (Rank p = 0; p < k_; ++p) {
      const ItemId item = candidate[p];
      const uint64_t slot = item < slots_.size() ? slots_[item] : 0;
      if ((slot >> 32) == epoch_) {
        const Rank rq = static_cast<Rank>(slot);
        running += rq > p ? rq - p : p - rq;
        qcover += k_ - rq;
      } else {
        running += k_ - p;
      }
    }
    return running + (half_absent_ - qcover);
  }

  /// Appends every candidate within `theta_raw` of the bound query to
  /// `out`, in candidate order. Full lane-width batches run the vector
  /// kernel when available; the remainder (and every candidate when SIMD
  /// is off) early-exits scalar once its running lower bound exceeds
  /// theta. Ticks kDistanceCalls per candidate (charged up front: an
  /// abandoned run's partial output is discarded by the caller anyway).
  /// `control` (optional) is polled per lane batch / per scalar
  /// candidate — ShouldStop amortizes its own clock reads — and a stop
  /// returns immediately with `out` truncated mid-span; the owning layer
  /// maps the stop to a Status and must not publish the partial answer.
  void ValidateSpan(const RankingStore& store,
                    std::span<const RankingId> candidates,
                    RawDistance theta_raw, std::vector<RankingId>* out,
                    Statistics* stats, QueryControl* control = nullptr) {
    AddTicker(stats, Ticker::kDistanceCalls, candidates.size());
    size_t i = 0;
#if TOPK_SIMD_DISPATCH
    if (SimdUsable(store)) {
      // Cover the store's whole item domain so the lane gathers need no
      // per-position bounds mask (new slots read absent; distances are
      // unchanged).
      EnsureItemCapacity(static_cast<size_t>(store.max_item()) + 1);
      const ItemId* flat = store.flat_items().data();
      alignas(32) uint32_t rows[kSimdLanes];
      for (; i + kSimdLanes <= candidates.size(); i += kSimdLanes) {
        if (control != nullptr && control->ShouldStop()) return;
        for (unsigned c = 0; c < kSimdLanes; ++c) {
          rows[c] = candidates[i + c] * k_;
        }
        EmitAcceptedLanes(ValidateRowLanes(flat, rows, theta_raw),
                          &candidates[i], out);
      }
    }
#endif
    for (; i < candidates.size(); ++i) {
      if (control != nullptr && control->ShouldStop()) return;
      if (WithinThreshold(store.view(candidates[i]), theta_raw)) {
        out->push_back(candidates[i]);
      }
    }
  }

  /// ValidateSpan over every id in the store (the LinearScan hot loop
  /// and the full-domain paths at theta >= dmax), without materializing
  /// the id span: the constant-threshold case of Sweep. `control` is
  /// polled exactly as ValidateSpan polls it.
  void ValidateAll(const RankingStore& store, RawDistance theta_raw,
                   std::vector<RankingId>* out, Statistics* stats,
                   QueryControl* control = nullptr) {
    Sweep(
        store, [theta_raw] { return theta_raw; },
        [out](RankingId id) { out->push_back(id); }, stats, control);
  }

  /// k-NN over every id in the store: offers each row that can still
  /// enter `heap` (the caller's best-j set, capacity j) with its exact
  /// Distance(). The sweep threshold is re-read from the heap once per
  /// lane batch / scalar row, so it tightens as the heap does; rejected
  /// rows cost only the early-exiting lane kernel.
  ///
  /// Tie contract: ids ascend during the sweep, so once the heap is full
  /// a row at distance equal to the current worst has a larger id than
  /// every admitted row and cannot enter; the threshold is therefore
  /// worst - 1. At worst == 0 it stays 0 and Offer rejects the
  /// equal-distance rows by id. The admitted set is exactly the scalar
  /// oracle's (LinearScanKnn in metric/knn.h).
  ///
  /// Ticker contract: kDistanceCalls ticks store.size(), as the scalar
  /// scan does (every row costs one distance evaluation in the paper's
  /// DFC accounting, pruned or not). `control` is polled as in
  /// ValidateSpan; on a stop the heap holds a partial answer the caller
  /// must discard.
  void SweepNearest(const RankingStore& store, NeighborHeap* heap,
                    Statistics* stats, QueryControl* control = nullptr) {
    Sweep(
        store,
        [heap] {
          const RawDistance worst = heap->Bound();
          return heap->full() && worst > 0 ? worst - 1 : worst;
        },
        [this, &store, heap](RankingId id) {
          heap->Offer(id, Distance(store.view(id)));
        },
        stats, control);
  }

  /// One candidate of ValidateSpan: true iff F(q, candidate) <= theta_raw.
  /// This scalar loop is the reference implementation in every build.
  bool WithinThreshold(RankingView candidate, RawDistance theta_raw) const {
    TOPK_DCHECK(candidate.k() == k_);
    TOPK_DCHECK(epoch_ > 0 || k_ == 0);
    RawDistance running = 0;
    RawDistance qcover = 0;
    for (Rank p = 0; p < k_; ++p) {
      const ItemId item = candidate[p];
      const uint64_t slot = item < slots_.size() ? slots_[item] : 0;
      if ((slot >> 32) == epoch_) {
        const Rank rq = static_cast<Rank>(slot);
        running += rq > p ? rq - p : p - rq;
        qcover += k_ - rq;
      } else {
        running += k_ - p;
      }
      if (running > theta_raw) return false;  // monotone lower bound
    }
    return running + (half_absent_ - qcover) <= theta_raw;
  }

 private:
  /// The one store-wide loop: calls accept(id), ids ascending, for every
  /// row within threshold() of the bound query. Full lane-width batches
  /// run the vector kernel when available, the remainder (and every row
  /// when SIMD is off) the scalar early-exit loop; threshold() and
  /// `control` are read once per lane batch / scalar row.
  template <typename Threshold, typename Accept>
  void Sweep(const RankingStore& store, const Threshold& threshold,
             const Accept& accept, Statistics* stats, QueryControl* control) {
    AddTicker(stats, Ticker::kDistanceCalls, store.size());
    RankingId id = 0;
#if TOPK_SIMD_DISPATCH
    if (SimdUsable(store)) {
      EnsureItemCapacity(static_cast<size_t>(store.max_item()) + 1);
      const ItemId* flat = store.flat_items().data();
      alignas(32) uint32_t rows[kSimdLanes];
      for (; id + kSimdLanes <= store.size(); id += kSimdLanes) {
        if (control != nullptr && control->ShouldStop()) return;
        for (unsigned c = 0; c < kSimdLanes; ++c) {
          rows[c] = (id + c) * k_;
        }
        const uint32_t accepted = ValidateRowLanes(flat, rows, threshold());
        for (uint32_t mask = accepted; mask != 0; mask &= mask - 1) {
          accept(id + static_cast<RankingId>(std::countr_zero(mask)));
        }
      }
    }
#endif
    for (; id < store.size(); ++id) {
      if (control != nullptr && control->ShouldStop()) return;
      if (WithinThreshold(store.view(id), threshold())) accept(id);
    }
  }

#if TOPK_SIMD_DISPATCH
  /// The vector path needs a bound query, a k within the lane-arithmetic
  /// bounds, and both gather index domains inside the signed-32-bit range
  /// the hardware gathers use: row offsets (store.size() * k) for the
  /// item gather AND item ids themselves (store.max_item()) for the rank
  /// table gather — an item id >= 2^31 would become a negative index.
  bool SimdUsable(const RankingStore& store) const {
    return use_simd_ && k_ > 0 && k_ <= kMaxSimdK && epoch_ > 0 &&
           static_cast<uint64_t>(store.size()) * k_ <=
               static_cast<uint64_t>(INT32_MAX) &&
           static_cast<uint64_t>(store.max_item()) <=
               static_cast<uint64_t>(INT32_MAX);
  }

  uint32_t ValidateRowLanes(const ItemId* flat, const uint32_t* rows,
                            RawDistance theta_raw) const {
    return kernel::ValidateLanes(lane_ranks_.data(), k_, half_absent_, flat,
                                 rows, theta_raw);
  }

  static void EmitAcceptedLanes(uint32_t accepted, const RankingId* ids,
                                std::vector<RankingId>* out) {
    // countr_zero walks set bits in ascending lane order, preserving
    // candidate order in the output.
    for (uint32_t mask = accepted; mask != 0; mask &= mask - 1) {
      out->push_back(ids[std::countr_zero(mask)]);
    }
  }
#endif

  /// slot = epoch << 32 | rank; a slot is live only under the current
  /// epoch, so rebinding is O(k) and never clears the table. Epoch 0 is
  /// reserved (see the header comment).
  std::vector<uint64_t> slots_;
#if TOPK_SIMD_DISPATCH
  /// Flat 32-bit rank lanes for the vector kernel (kAbsentRank when the
  /// item is not in the bound query); published_ remembers which slots
  /// the current bind wrote so the next bind can unpublish them in O(k).
  std::vector<uint32_t> lane_ranks_;
  std::vector<ItemId> published_;
#endif
  uint32_t epoch_ = 0;
  uint32_t k_ = 0;
  RawDistance half_absent_ = 0;  // Sq = k(k+1)/2
  bool use_simd_ = true;
};

}  // namespace topk

#endif  // TOPK_KERNEL_FOOTRULE_BATCH_H_
