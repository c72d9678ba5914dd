// CompressedPostingArena: the block-compressed, mmap-adoptable twin of
// the kernel CSR PostingArena.
//
// Flat sections replace the CSR pair (entries, offsets):
//
//   lists_    one CompressedListMeta per posting list: entry count plus
//             a head cursor into either the inline tier or the block
//             metadata array (bit 31 tags the tier);
//   blocks_   one CompressedBlockMeta per block of <= kBlockEntries
//             entries: first id, last id, count, byte offset — kept
//             uncompressed so a block's bounds are readable without
//             touching the byte stream;
//   inline_   raw entries of the short-list tier, concatenated: lists
//             of <= kInlineMaxEntries entries are stored uncompressed
//             (block + metadata overhead would exceed the savings) and
//             served as direct spans, zero decode;
//   bytes_    the delta + group-varint payload (storage/posting_codec.h)
//             of every block, in block order.
//
// Lists whose ids are not strictly ascending fall back to the inline
// tier whatever their length: the arena never produces wrong bytes, it
// just declines to compress what the delta codec cannot represent.
//
// Every section is a SpanArray: owned vectors when built via FromArena,
// non-owning views over an mmap'd snapshot section when adopted via
// Adopt (storage/snapshot.h). Adopt bounds-checks all metadata — list
// cursors, block counts, byte offsets — against the section sizes, so a
// hostile or truncated file fails with a Status instead of making a
// decode read outside the mapping; payload *content* is not read at
// adopt time (that would defeat the zero-copy load) and is covered by
// the snapshot's per-section checksums on demand.
//
// Decode contract: one block loop, DecodeBlocksInRange, serves every
// decode. It lands the blocks of a list whose [first_id, last_id] meets
// an id window in a caller-owned buffer, deciding on the uncompressed
// block metadata alone, so a block outside the window is never located
// in the byte stream (scripts/check_invariants.py `block-skip-guard`),
// and ticks kBlocksDecoded once per block it decodes. The whole-list
// decodes (DecodeList, DecodeListInto) are its kAllIds window; a split
// query's parts pass their own window (kernel/filter_phase.h), so P parts
// decode each block once, plus at most one block per list at each of the
// P - 1 window boundaries. DecodeList/DecodeListInRange grow the
// caller's scratch vector once up front and return a span (the per-block
// loop never allocates, linted by scripts/check_invariants.py); inline
// lists return the stored entries directly, whatever the window. The
// decoded blocks are byte-identical to the source arena's entries, which
// is what keeps every consumer bit-exact (tests/storage_compress_test.cc).

#ifndef TOPK_STORAGE_COMPRESSED_ARENA_H_
#define TOPK_STORAGE_COMPRESSED_ARENA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"
#include "kernel/id_split.h"
#include "kernel/posting_arena.h"
#include "storage/posting_codec.h"

namespace topk {
namespace storage {

/// Per-list directory entry (8 bytes). Bit 31 of `head` tags the inline
/// tier; the low 31 bits are an entry offset into the inline section
/// (inline lists) or a block index into the block-meta section.
struct CompressedListMeta {
  static constexpr uint32_t kInlineBit = 0x80000000u;
  uint32_t length;
  uint32_t head;
};
static_assert(sizeof(CompressedListMeta) == 8);

/// Per-block skip metadata (16 bytes, uncompressed by design).
struct CompressedBlockMeta {
  uint32_t first_id;     // first entry's id, not repeated in the payload
  uint32_t last_id;      // max id in the block
  uint32_t count;        // entries in this block, 1..kBlockEntries
  uint32_t byte_offset;  // payload start within the byte stream
};
static_assert(sizeof(CompressedBlockMeta) == 16);

/// A section that is either an owned vector (build path) or a borrowed
/// view into externally owned memory (mmap adoption). Copy/move safe:
/// accessors re-derive the view from whichever storage is live.
template <typename T>
class SpanArray {
 public:
  SpanArray() = default;

  std::span<const T> span() const {
    return mapped_ != nullptr ? std::span<const T>(mapped_, mapped_size_)
                              : std::span<const T>(owned_);
  }
  const T* data() const { return span().data(); }
  size_t size() const {
    return mapped_ != nullptr ? mapped_size_ : owned_.size();
  }

  std::vector<T>* mutable_owned() {
    TOPK_DCHECK(mapped_ == nullptr);
    return &owned_;
  }

  void Adopt(const T* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    mapped_ = data;
    mapped_size_ = size;
  }

  /// Heap bytes actually held (0 for adopted sections: the mapping pays).
  size_t OwnedBytes() const { return owned_.capacity() * sizeof(T); }

 private:
  std::vector<T> owned_;
  const T* mapped_ = nullptr;
  size_t mapped_size_ = 0;
};

/// Instantiated for RankingId (plain posting lists) in the .cc.
template <typename Entry>
class CompressedPostingArena {
 public:
  /// Lists of up to this many entries take the inline uncompressed tier.
  static constexpr uint32_t kInlineMaxEntries = 8;

  CompressedPostingArena() = default;

  /// Compresses every list of `arena`. Lossless for any arena; lists
  /// whose ids are not strictly ascending are stored inline verbatim.
  static CompressedPostingArena FromArena(const PostingArena<Entry>& arena);

  /// Wraps mmap'd snapshot sections (which must outlive the arena) after
  /// bounds-validating all metadata. Fails with InvalidArgument on any
  /// inconsistency instead of risking an out-of-mapping decode.
  static Result<CompressedPostingArena> Adopt(
      std::span<const CompressedListMeta> lists,
      std::span<const CompressedBlockMeta> blocks,
      std::span<const Entry> inline_entries, std::span<const uint8_t> bytes);

  size_t num_lists() const { return lists_.size(); }
  size_t num_entries() const { return num_entries_; }

  size_t list_length(size_t i) const {
    return i < lists_.size() ? lists_.data()[i].length : 0;
  }

  bool is_inline(size_t i) const {
    TOPK_DCHECK(i < lists_.size());
    return (lists_.data()[i].head & CompressedListMeta::kInlineBit) != 0;
  }

  /// List `i` as a span: inline lists come straight from the inline
  /// section (no copy, no decode); block lists decode into `scratch`
  /// (grown once, reused across calls). Ids outside the directory yield
  /// an empty span, mirroring PostingArena::list. The kAllIds window of
  /// DecodeListInRange.
  std::span<const Entry> DecodeList(size_t i, std::vector<Entry>* scratch,
                                    Statistics* stats = nullptr) const {
    return DecodeListInRange(i, kAllIds, scratch, stats);
  }

  /// The blocks of list `i` that meet `window`, decoded into `scratch`,
  /// ascending: every entry of the list inside the window, plus the rest
  /// of the blocks that straddle its ends (a caller trims those by binary
  /// search). Inline lists come back whole as direct spans, whatever the
  /// window; a block list over an empty window as an empty span. A
  /// malformed payload (an adopted snapshot whose checksums were never
  /// verified) yields an empty span rather than stale scratch.
  std::span<const Entry> DecodeListInRange(size_t i, IdWindow window,
                                           std::vector<Entry>* scratch,
                                           Statistics* stats = nullptr) const;

  /// Decodes list `i` into `out` (pre-sized to list_length(i)); no
  /// allocation. Returns false if the payload is malformed — impossible
  /// for a FromArena build, and for adopted snapshots only when payload
  /// bytes are corrupt (run VerifySnapshotChecksums to detect that
  /// up front; decode stays memory-safe regardless).
  bool DecodeListInto(size_t i, Entry* out) const;

  /// The one block loop: writes to `out` (room for list_length(i)
  /// entries) every block of list `i` whose [first_id, last_id] meets
  /// `window`, in list order, and sets `*written` to the entries written;
  /// an inline list is copied whole whatever the window, and an empty
  /// window decodes no block. A block outside the window is skipped on
  /// its metadata alone, before its payload bytes are located.
  /// kBlocksDecoded ticks once per block decoded. Returns false, with
  /// `*written` covering the blocks before it, on the first malformed
  /// block payload; memory-safe either way.
  bool DecodeBlocksInRange(size_t i, IdWindow window, Entry* out,
                           size_t* written,
                           Statistics* stats = nullptr) const;

  /// Compressed footprint in bytes across all sections (whether owned
  /// or mapped) — the numerator of bytes/entry.
  size_t CompressedBytes() const {
    return lists_.size() * sizeof(CompressedListMeta) +
           blocks_.size() * sizeof(CompressedBlockMeta) +
           inline_.size() * sizeof(Entry) + bytes_.size();
  }

  double BytesPerEntry() const {
    return num_entries_ == 0 ? 0.0
                             : static_cast<double>(CompressedBytes()) /
                                   static_cast<double>(num_entries_);
  }

  /// Heap bytes actually held: ~0 when adopted from a mapping.
  size_t MemoryUsage() const {
    return lists_.OwnedBytes() + blocks_.OwnedBytes() + inline_.OwnedBytes() +
           bytes_.OwnedBytes();
  }

  size_t num_blocks() const { return blocks_.size(); }
  size_t num_inline_lists() const { return num_inline_lists_; }

  // Section views for the snapshot writer.
  std::span<const CompressedListMeta> list_metas() const {
    return lists_.span();
  }
  std::span<const CompressedBlockMeta> block_metas() const {
    return blocks_.span();
  }
  std::span<const Entry> inline_entries() const { return inline_.span(); }
  std::span<const uint8_t> byte_stream() const { return bytes_.span(); }

 private:
  /// Payload byte range of block `b` (blocks are laid out in block-array
  /// order, so a block ends where the next one starts).
  std::pair<const uint8_t*, const uint8_t*> BlockBytes(size_t b) const {
    const auto blocks = blocks_.span();
    const auto bytes = bytes_.span();
    const uint8_t* begin = bytes.data() + blocks[b].byte_offset;
    const uint8_t* end = b + 1 < blocks.size()
                             ? bytes.data() + blocks[b + 1].byte_offset
                             : bytes.data() + bytes.size();
    return {begin, end};
  }

  SpanArray<CompressedListMeta> lists_;
  SpanArray<CompressedBlockMeta> blocks_;
  SpanArray<Entry> inline_;
  SpanArray<uint8_t> bytes_;
  size_t num_entries_ = 0;
  size_t num_inline_lists_ = 0;
};

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_COMPRESSED_ARENA_H_
