// Block-level posting codec: delta + group-varint over fixed-size blocks
// of ranking ids.
//
// A compressed posting list is a run of blocks of up to kBlockEntries
// entries. Each block's skip metadata (first id, last id, entry count,
// byte offset) lives uncompressed in the arena's block-meta array, so a
// block's bounds are readable without touching the byte stream, while
// the payload encodes the count-1 id deltas (ids strictly ascending
// within a list, so deltas are >= 1 and small for the frequent items that
// dominate entry volume).
//
// Both directions are exact inverses for any id-ascending input; the
// fuzz round-trip in tests/storage_compress_test.cc hammers that with
// printed failing seeds. Decoders write into caller-owned, pre-sized
// buffers and never allocate (`decode-noalloc` rule in
// scripts/check_invariants.py); a malformed stream makes them return
// false instead of reading past the block's byte range.
//
// The decoder exists twice: a *Scalar reference (the plain group loop,
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

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_POSTING_CODEC_H_
