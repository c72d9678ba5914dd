// Vectorized inner loop of the batched Footrule validator.
//
// ValidateLanes evaluates kSimdLanes candidates against the bound query
// at once. Lanes are addressed SoA-style by row offset into the store's
// contiguous position-order item matrix (RankingStore::flat_items()):
// lane c's item at position p sits at flat[row_offsets[c] + p], so the
// AVX2 path turns the whole batch's item column into one hardware gather
// and the 4-lane backends into four scalar loads — there is no staging
// transpose, which would pay for all k positions while the early exit
// typically uses a fraction of them. Per position the kernel
//
//   1. gathers the lanes' items from the store rows;
//   2. probes the validator's flat 32-bit rank lane table, which covers
//      the store's whole item domain (absent items read the kAbsentRank
//      sentinel — no epoch check needed: BindQuery unpublishes the
//      previous query's ranks explicitly);
//   3. accumulates |rank_q - p| into matched lanes and (k - p) into
//      absent lanes, plus the matched lanes' (k - rank_q) coverage term.
//
// After every position p the kernel compares each lane's exact lower
// bound LB(p + 1) = running - qcover + S(p + 1) (ExitSlack below; it
// counts the query side, which the candidate-side running sum alone
// leaves out) with theta, and abandons the batch as soon as *every*
// lane's bound exceeds it — the vectorized counterpart of the scalar
// per-item early exit. The accept decision per lane is made on the exact
// 64-bit total running + (Sq - qcover), the same integers the scalar
// kernel sums in a different order, so decisions and distances are
// bit-identical to the scalar path (pinned by kernel_simd_test and the
// fuzz differentials).
//
// Arithmetic safety: all lane values are bounded by k*(k+1), and the
// validator only dispatches here for k <= FootruleValidator::kMaxSimdK,
// row offsets <= INT32_MAX (item gather), and item ids <= INT32_MAX
// (rank table gather — the hardware treats indices as signed 32-bit), so
// 32-bit lane accumulators cannot overflow and neither gather can see a
// negative index. running - qcover is compared signed: it is >= -Sq, and
// the exit bound theta - S(p + 1) is >= -Sq too. theta is clamped to
// INT32_MAX for the early-exit comparison only; clamping can only delay
// the exit, never change a decision.

#ifndef TOPK_KERNEL_FOOTRULE_SIMD_H_
#define TOPK_KERNEL_FOOTRULE_SIMD_H_

#include <cstdint>

#include "core/types.h"
#include "kernel/simd.h"

#if defined(TOPK_SIMD_AVX2)
#include <immintrin.h>
#elif defined(TOPK_SIMD_SSE42)
#include <nmmintrin.h>
#include <smmintrin.h>
#elif defined(TOPK_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace topk {
namespace kernel {

/// "Item not in the bound query" sentinel of the SIMD rank lane table
/// (reads as -1 in the signed lane compare; real ranks are < kMaxSimdK).
inline constexpr uint32_t kAbsentRank = 0xffffffffu;

/// The query side of the early exit, shared by every lane backend and the
/// scalar FootruleValidator::WithinThreshold. After positions [0, p) of a
/// candidate, with running and qcover summed over those positions,
///
///   LB(p) = running - qcover + S(p),   S(p) = sum_{p' < p} (k - p')
///                                           = Sq - T(k - p),
///
/// where T(m) = m(m+1)/2 and Sq = T(k). Per position p, a matched item of
/// query rank r adds |r - p| - (k - r) + (k - p) = 2 max(0, r - p) and an
/// absent item adds 2 (k - p), so LB(p) is exactly twice the prefix of
///
///   F = 2 sum_p [item in q ? max(0, r - p) : k - p],
///
/// which holds because sum (pos_q - pos_c) = 0 over the union of the two
/// lists. Hence LB(p) never decreases, never exceeds F, equals F at
/// p = k, and is never below the candidate-side running sum (qcover sums
/// at most p distinct terms of {1, ..., k}, S(p) the p largest). The
/// single-accumulator form above is the proof, not the code: written that
/// way the lane kernel evaluated the same positions but ran 1.5-2x slower
/// on AVX2, so the kernels keep running and qcover and add the slack.
/// Advance() adds it one position at a time, with no multiply.
class ExitSlack {
 public:
  explicit ExitSlack(uint32_t k) : k_(k) {}

  /// Consumes position p and returns S(p + 1) = S(p) + (k - p).
  RawDistance Advance(uint32_t p) { return slack_ += k_ - p; }

 private:
  uint32_t k_;
  RawDistance slack_ = 0;
};

#if defined(TOPK_SIMD_AVX2) || defined(TOPK_SIMD_SSE42) || \
    defined(TOPK_SIMD_NEON)

/// theta clamped into the 32-bit lane domain for the early-exit compare;
/// clamping can only delay the exit, never change a decision (decisions
/// come from the exact 64-bit totals in ReduceAcceptedLanes).
inline int32_t ClampTheta32(RawDistance theta_raw) {
  return theta_raw > static_cast<RawDistance>(INT32_MAX)
             ? INT32_MAX
             : static_cast<int32_t>(theta_raw);
}

/// Shared epilogue of every backend: per lane, accept iff the exact
/// 64-bit total running + (Sq - qcover) is within theta. One copy above
/// the backend #if chain so a semantic change cannot miss an ISA.
inline uint32_t ReduceAcceptedLanes(const uint32_t* running,
                                    const uint32_t* qcover,
                                    RawDistance half_absent,
                                    RawDistance theta_raw) {
  uint32_t accepted = 0;
  for (unsigned c = 0; c < kSimdLanes; ++c) {
    const RawDistance total = static_cast<RawDistance>(running[c]) +
                              half_absent -
                              static_cast<RawDistance>(qcover[c]);
    if (total <= theta_raw) accepted |= 1u << c;
  }
  return accepted;
}

#endif  // any backend

#if defined(TOPK_SIMD_AVX2)

/// The all-lanes gather mask, hidden from the optimizer. Given a mask it
/// can prove all-ones, GCC drops a gather's zero merge source and may give
/// the gather a destination register that the previous position's exit
/// compare wrote last. A gather reads its destination, so that false
/// dependency queues each position's gathers behind the previous
/// position's compare and the positions stop overlapping: the store-wide
/// k-NN sweep ran ~1.6x slower (1M NYT-like rows, j = 10, 4-vCPU VM).
/// With an opaque mask the zero source stays, and it is materialized by a
/// register copy that depends on nothing.
inline __m256i OpaqueAllLanes() {
  __m256i all = _mm256_set1_epi32(-1);
#if defined(__GNUC__) || defined(__clang__)
  __asm__("" : "+x"(all));
#endif
  return all;
}

/// Returns a bitmask with bit c set iff the candidate whose row starts at
/// flat[row_offsets[c]] is within `theta_raw` of the bound query.
/// `ranks` is the sentinel-cleared rank lane table; the caller guarantees
/// it covers every item id the candidate rows can contain (the validator
/// grows it to the store's item domain before dispatching), so every
/// gather reads all lanes — no per-position bounds arithmetic.
inline uint32_t ValidateLanes(const uint32_t* ranks, uint32_t k,
                              RawDistance half_absent, const ItemId* flat,
                              const uint32_t* row_offsets,
                              RawDistance theta_raw) {
  const __m256i k_v = _mm256_set1_epi32(static_cast<int32_t>(k));
  const __m256i absent_v = _mm256_set1_epi32(-1);
  const int32_t theta32 = ClampTheta32(theta_raw);
  const __m256i rows = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(row_offsets));

  __m256i running = _mm256_setzero_si256();
  __m256i qcover = _mm256_setzero_si256();
  ExitSlack slack(k);
  const __m256i all_lanes = OpaqueAllLanes();
  // One position per round: two chained gathers (candidate items, then
  // their query ranks) and branch-free blend arithmetic, then the exit
  // test. The exit branch is predicted not taken, so the next position's
  // gathers still issue while this one's compare resolves.
  for (uint32_t p = 0; p < k; ++p) {
    const __m256i items = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), reinterpret_cast<const int*>(flat),
        _mm256_add_epi32(rows, _mm256_set1_epi32(static_cast<int32_t>(p))),
        all_lanes, 4);
    const __m256i rank = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), reinterpret_cast<const int*>(ranks), items,
        all_lanes, 4);
    const __m256i match = _mm256_cmpgt_epi32(rank, absent_v);  // rank >= 0
    const __m256i p_v = _mm256_set1_epi32(static_cast<int32_t>(p));
    const __m256i diff = _mm256_abs_epi32(_mm256_sub_epi32(rank, p_v));
    const __m256i absent_cost = _mm256_sub_epi32(k_v, p_v);
    running = _mm256_add_epi32(
        running, _mm256_blendv_epi8(absent_cost, diff, match));
    qcover = _mm256_add_epi32(
        qcover, _mm256_and_si256(match, _mm256_sub_epi32(k_v, rank)));
    const __m256i bound = _mm256_set1_epi32(
        theta32 - static_cast<int32_t>(slack.Advance(p)));
    const __m256i dead =
        _mm256_cmpgt_epi32(_mm256_sub_epi32(running, qcover), bound);
    if (_mm256_movemask_epi8(dead) == -1) return 0;
  }

  alignas(32) uint32_t running_a[kSimdLanes];
  alignas(32) uint32_t qcover_a[kSimdLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(running_a), running);
  _mm256_store_si256(reinterpret_cast<__m256i*>(qcover_a), qcover);
  return ReduceAcceptedLanes(running_a, qcover_a, half_absent, theta_raw);
}

#elif defined(TOPK_SIMD_SSE42)

inline uint32_t ValidateLanes(const uint32_t* ranks, uint32_t k,
                              RawDistance half_absent, const ItemId* flat,
                              const uint32_t* row_offsets,
                              RawDistance theta_raw) {
  const __m128i k_v = _mm_set1_epi32(static_cast<int32_t>(k));
  const __m128i absent_v = _mm_set1_epi32(-1);
  const int32_t theta32 = ClampTheta32(theta_raw);

  __m128i running = _mm_setzero_si128();
  __m128i qcover = _mm_setzero_si128();
  ExitSlack slack(k);
  alignas(16) int32_t rank_a[kSimdLanes];
  for (uint32_t p = 0; p < k; ++p) {
    // SSE has no gather: emulate both the item and the rank-table loads
    // with scalar code (the caller guarantees the table covers every
    // item), then keep the contribution arithmetic vectorized.
    for (unsigned c = 0; c < kSimdLanes; ++c) {
      rank_a[c] = static_cast<int32_t>(ranks[flat[row_offsets[c] + p]]);
    }
    const __m128i rank =
        _mm_load_si128(reinterpret_cast<const __m128i*>(rank_a));
    const __m128i match = _mm_cmpgt_epi32(rank, absent_v);
    const __m128i p_v = _mm_set1_epi32(static_cast<int32_t>(p));
    const __m128i diff = _mm_abs_epi32(_mm_sub_epi32(rank, p_v));
    const __m128i absent_cost = _mm_sub_epi32(k_v, p_v);
    running =
        _mm_add_epi32(running, _mm_blendv_epi8(absent_cost, diff, match));
    qcover =
        _mm_add_epi32(qcover, _mm_and_si128(match, _mm_sub_epi32(k_v, rank)));
    const __m128i bound =
        _mm_set1_epi32(theta32 - static_cast<int32_t>(slack.Advance(p)));
    const __m128i dead =
        _mm_cmpgt_epi32(_mm_sub_epi32(running, qcover), bound);
    if (_mm_movemask_epi8(dead) == 0xffff) return 0;
  }

  alignas(16) uint32_t running_a[kSimdLanes];
  alignas(16) uint32_t qcover_a[kSimdLanes];
  _mm_store_si128(reinterpret_cast<__m128i*>(running_a), running);
  _mm_store_si128(reinterpret_cast<__m128i*>(qcover_a), qcover);
  return ReduceAcceptedLanes(running_a, qcover_a, half_absent, theta_raw);
}

#elif defined(TOPK_SIMD_NEON)

inline uint32_t ValidateLanes(const uint32_t* ranks, uint32_t k,
                              RawDistance half_absent, const ItemId* flat,
                              const uint32_t* row_offsets,
                              RawDistance theta_raw) {
  const int32x4_t k_v = vdupq_n_s32(static_cast<int32_t>(k));
  const int32x4_t absent_v = vdupq_n_s32(-1);
  const int32_t theta32 = ClampTheta32(theta_raw);

  uint32x4_t running = vdupq_n_u32(0);
  uint32x4_t qcover = vdupq_n_u32(0);
  ExitSlack slack(k);
  alignas(16) int32_t rank_a[kSimdLanes];
  for (uint32_t p = 0; p < k; ++p) {
    for (unsigned c = 0; c < kSimdLanes; ++c) {
      rank_a[c] = static_cast<int32_t>(ranks[flat[row_offsets[c] + p]]);
    }
    const int32x4_t rank = vld1q_s32(rank_a);
    const uint32x4_t match = vcgtq_s32(rank, absent_v);
    const int32x4_t p_v = vdupq_n_s32(static_cast<int32_t>(p));
    const uint32x4_t diff = vreinterpretq_u32_s32(vabdq_s32(rank, p_v));
    const uint32x4_t absent_cost =
        vreinterpretq_u32_s32(vsubq_s32(k_v, p_v));
    running = vaddq_u32(running, vbslq_u32(match, diff, absent_cost));
    qcover = vaddq_u32(
        qcover,
        vandq_u32(match, vreinterpretq_u32_s32(vsubq_s32(k_v, rank))));
    const int32x4_t bound =
        vdupq_n_s32(theta32 - static_cast<int32_t>(slack.Advance(p)));
    const uint32x4_t dead = vcgtq_s32(
        vreinterpretq_s32_u32(vsubq_u32(running, qcover)), bound);
    if (vminvq_u32(dead) == 0xffffffffu) return 0;
  }

  alignas(16) uint32_t running_a[kSimdLanes];
  alignas(16) uint32_t qcover_a[kSimdLanes];
  vst1q_u32(running_a, running);
  vst1q_u32(qcover_a, qcover);
  return ReduceAcceptedLanes(running_a, qcover_a, half_absent, theta_raw);
}

#endif  // backend selection

}  // namespace kernel
}  // namespace topk

#endif  // TOPK_KERNEL_FOOTRULE_SIMD_H_
