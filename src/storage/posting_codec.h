// Block-level posting codecs: delta + group-varint over fixed-size
// blocks, one codec per posting entry type.
//
// A compressed posting list is a run of blocks of up to kBlockEntries
// entries. Each block's skip metadata (first id, last id, entry count,
// byte offset) lives uncompressed in the arena's block-meta array, so a
// block's bounds are readable without touching the byte stream, while
// the payload encodes:
//
//   RankingId lists    the count-1 id deltas (ids strictly ascending
//                      within a list, so deltas are >= 1 and small for
//                      the frequent items that dominate entry volume);
//   AugmentedEntry     the interleaved sequence rank0, delta1, rank1,
//   lists              delta2, rank2, ... (2*count - 1 values; ranks
//                      are < k and encode in one byte each).
//
// Both directions are exact inverses for any id-ascending input; the
// fuzz round-trip in tests/storage_compress_test.cc hammers that with
// printed failing seeds. Decoders write into caller-owned, pre-sized
// buffers and never allocate (`decode-noalloc` rule in
// scripts/check_invariants.py); a malformed stream makes them return
// false instead of reading past the block's byte range.
//
// Each decoder exists twice: a *Scalar reference (the plain group loop,
// compiled in every build) and the public dispatching name, which under
// a SIMD build routes the byte stream through the shuffle-table decode
// and vectorized delta prefix sum of storage/varint_simd.h. The two are
// bit-identical — same values, same wraparound, same truncation
// failures — pinned per length and per fuzzed stream by
// tests/storage_simd_decode_test.cc and benchmarked (GB/s, entries/ns)
// by the storage bench's decode_throughput rows.

#ifndef TOPK_STORAGE_POSTING_CODEC_H_
#define TOPK_STORAGE_POSTING_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/posting_entry.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/group_varint.h"
#include "storage/varint_simd.h"

namespace topk {
namespace storage {

/// Entries per compressed block. 128 keeps the per-block metadata
/// overhead at 16/128 = 0.125 bytes/entry while a block decode still
/// fits comfortably in L1.
inline constexpr uint32_t kBlockEntries = 128;

/// Appends the payload of one RankingId block (`entries` ascending,
/// size 1..kBlockEntries) to `bytes`. The first id is NOT encoded — it
/// rides uncompressed in the block metadata.
inline void EncodeIdBlock(std::span<const RankingId> entries,
                          std::vector<uint8_t>* bytes) {
  TOPK_DCHECK(!entries.empty() && entries.size() <= kBlockEntries);
  uint32_t deltas[kBlockEntries];
  for (size_t i = 1; i < entries.size(); ++i) {
    TOPK_DCHECK(entries[i] > entries[i - 1]);
    deltas[i - 1] = entries[i] - entries[i - 1];
  }
  if (entries.size() > 1) {
    GroupVarintEncode(deltas, entries.size() - 1, bytes);
  }
}

/// Scalar reference decode of one RankingId block of `count` entries
/// into `out` (pre-sized by the caller). Returns false without
/// completing on a malformed stream. No allocation.
inline bool DecodeIdBlockScalar(uint32_t first_id, uint32_t count,
                                const uint8_t* begin, const uint8_t* end,
                                RankingId* out) {
  TOPK_DCHECK(count >= 1 && count <= kBlockEntries);
  out[0] = first_id;
  uint32_t previous = first_id;
  uint32_t group[4];
  size_t produced = 1;
  while (produced < count) {
    const size_t m = count - produced < 4 ? count - produced : 4;
    begin = GroupVarintDecodeGroup(begin, end, m, group);
    if (begin == nullptr) return false;
    for (size_t i = 0; i < m; ++i) {
      previous += group[i];
      out[produced + i] = previous;
    }
    produced += m;
  }
  return true;
}

/// Decodes one RankingId block of `count` entries into `out` (pre-sized
/// by the caller); bit-identical to DecodeIdBlockScalar. Under a SIMD
/// build the deltas land in `out` through the shuffle-table decode and
/// become absolute ids via the vectorized prefix sum, in place. Returns
/// false on a malformed stream. No allocation.
inline bool DecodeIdBlock(uint32_t first_id, uint32_t count,
                          const uint8_t* begin, const uint8_t* end,
                          RankingId* out) {
  TOPK_DCHECK(count >= 1 && count <= kBlockEntries);
  out[0] = first_id;
  if (count == 1) return true;
  if (DecodeValuesSimd(begin, end, count - 1, out + 1) == nullptr) {
    return false;
  }
  DeltaPrefixSumInPlace(out + 1, count - 1, first_id);
  return true;
}

/// Appends the payload of one AugmentedEntry block (ids ascending) to
/// `bytes`: rank0, then (delta_i, rank_i) per subsequent entry.
inline void EncodeAugmentedBlock(std::span<const AugmentedEntry> entries,
                                 std::vector<uint8_t>* bytes) {
  TOPK_DCHECK(!entries.empty() && entries.size() <= kBlockEntries);
  uint32_t values[2 * kBlockEntries];
  size_t count = 0;
  values[count++] = entries[0].rank;
  for (size_t i = 1; i < entries.size(); ++i) {
    TOPK_DCHECK(entries[i].id > entries[i - 1].id);
    values[count++] = entries[i].id - entries[i - 1].id;
    values[count++] = entries[i].rank;
  }
  GroupVarintEncode(values, count, bytes);
}

/// Scalar reference decode of one AugmentedEntry block of `count`
/// entries into `out` (pre-sized). Returns false on a malformed stream.
/// No allocation.
inline bool DecodeAugmentedBlockScalar(uint32_t first_id, uint32_t count,
                                       const uint8_t* begin,
                                       const uint8_t* end,
                                       AugmentedEntry* out) {
  TOPK_DCHECK(count >= 1 && count <= kBlockEntries);
  uint32_t values[2 * kBlockEntries];
  const size_t total = 2 * static_cast<size_t>(count) - 1;
  size_t decoded = 0;
  while (decoded < total) {
    const size_t m = total - decoded < 4 ? total - decoded : 4;
    begin = GroupVarintDecodeGroup(begin, end, m, values + decoded);
    if (begin == nullptr) return false;
    decoded += m;
  }
  out[0] = AugmentedEntry{first_id, values[0]};
  uint32_t previous = first_id;
  for (uint32_t i = 1; i < count; ++i) {
    previous += values[2 * i - 1];
    out[i] = AugmentedEntry{previous, values[2 * i]};
  }
  return true;
}

/// Decodes one AugmentedEntry block of `count` entries into `out`
/// (pre-sized); bit-identical to DecodeAugmentedBlockScalar. The
/// interleaved value stream decodes through the SIMD kernel; the
/// delta/rank de-interleave stays scalar (it is a fraction of the
/// varint cost). Returns false on a malformed stream. No allocation.
inline bool DecodeAugmentedBlock(uint32_t first_id, uint32_t count,
                                 const uint8_t* begin, const uint8_t* end,
                                 AugmentedEntry* out) {
  TOPK_DCHECK(count >= 1 && count <= kBlockEntries);
  uint32_t values[2 * kBlockEntries];
  const size_t total = 2 * static_cast<size_t>(count) - 1;
  if (DecodeValuesSimd(begin, end, total, values) == nullptr) return false;
  out[0] = AugmentedEntry{first_id, values[0]};
  uint32_t previous = first_id;
  for (uint32_t i = 1; i < count; ++i) {
    previous += values[2 * i - 1];
    out[i] = AugmentedEntry{previous, values[2 * i]};
  }
  return true;
}

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_POSTING_CODEC_H_
