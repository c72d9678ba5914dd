// mmap-backed store snapshots: the larger-than-RAM load path.
//
// A snapshot file freezes a RankingStore plus the compressed posting
// arena of its plain inverted index into one page-aligned, sectioned
// image, so OpenStoreSnapshot can mmap the file and serve queries
// zero-copy: the three store columns and the arena sections are pointed
// at in place (RankingStore::AdoptExternal, CompressedPostingArena::Adopt)
// and page in on demand. Nothing but the header, the section table, and
// the arena *metadata* sections is touched at open time — the posting
// payloads and the row columns stay cold until a query walks them, which
// is what makes a collection larger than RAM servable
// (bench/bench_storage.cc evidences this with mincore residency counts).
//
// The snapshot is the repo's only persistence format. Besides the
// serving image it can carry the coarse index's partitioning — the
// product of the distance-heavy clustering pass — so a cold start
// rebuilds the coarse index (StoreSnapshot::ReadPartitioning, then
// CoarseIndex::BuildFromPartitioning) without re-clustering.
//
// Layout (all integers in host byte order — this is cache persistence,
// not an interchange format; see DESIGN.md "On-disk formats". The header
// *records* the writer's byte order and element-layout fingerprint so a
// reader on a foreign ABI fails with a Status instead of misinterpreting
// the sections):
//
//   SnapshotHeader        magic "TOPKSNP4", version, byte-order and
//                         layout tags, counts (k, n, max_item, arena
//                         entries), and an FNV-1a checksum over the
//                         section table;
//   SectionEntry[9]       id, byte offset, byte size, FNV-1a checksum
//                         of the payload;
//   sections              each padded to a 4096-byte boundary:
//                         1 items, 2 sorted_items, 3 sorted_ranks,
//                         4 list metas, 5 block metas, 6 inline
//                         entries, 7 block byte stream (the compressed
//                         plain arena), then the optional partitioning:
//                         8 SnapshotPartition records (medoid, radius,
//                         member-end offset), 9 member ids. Both
//                         partitioning sections are empty when the
//                         snapshot was written without one.
//
// Integrity is two-tier by design: OpenStoreSnapshot verifies the
// header and the section-table checksum and bounds-checks every
// section (plus the arena metadata, via Adopt) — cheap, O(metadata).
// Per-section payload checksums — and the row checks the Add path
// would have made — are verified only by the separate
// VerifySnapshotChecksums, because checksumming gigabytes of payload
// at open would fault in every page and defeat the zero-copy load. The
// partitioning sections are read (and checksummed) only on demand, by
// StoreSnapshot::ReadPartitioning.

#ifndef TOPK_STORAGE_SNAPSHOT_H_
#define TOPK_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/partitioner.h"
#include "core/ranking.h"
#include "core/status.h"
#include "storage/compressed_index.h"

namespace topk {
namespace storage {

inline constexpr char kSnapshotMagic[8] = {'T', 'O', 'P', 'K',
                                           'S', 'N', 'P', '4'};
inline constexpr uint32_t kSnapshotVersion = 4;
inline constexpr uint32_t kSnapshotSectionCount = 9;
inline constexpr size_t kSnapshotPageSize = 4096;

/// Stored in the header as a native integer: a reader whose byte order
/// differs from the writer's sees the bytes permuted and rejects.
inline constexpr uint32_t kSnapshotByteOrder = 0x01020304u;

/// Element-layout fingerprint: the packed sizeofs of every type the
/// sections are reinterpreted as. A writer compiled with a different
/// struct layout (padding, word size) produces a different tag, and
/// the reader rejects instead of walking misaligned metadata.
inline constexpr uint32_t kSnapshotLayout =
    (static_cast<uint32_t>(sizeof(CompressedListMeta)) << 0) |
    (static_cast<uint32_t>(sizeof(CompressedBlockMeta)) << 8);

struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint32_t byte_order;  // kSnapshotByteOrder as written by the producer
  uint32_t layout;      // kSnapshotLayout of the producer's build
  uint32_t k;
  uint32_t max_item;
  uint64_t num_rankings;
  uint64_t num_arena_entries;
  uint64_t directory_checksum;  // FNV-1a over the section table bytes
};
static_assert(sizeof(SnapshotHeader) == 56);

struct SnapshotSection {
  enum Id : uint32_t {
    kItems = 1,
    kSortedItems = 2,
    kSortedRanks = 3,
    kListMetas = 4,
    kBlockMetas = 5,
    kInlineEntries = 6,
    kByteStream = 7,
    kPartitions = 8,
    kPartitionMembers = 9,
  };
  uint32_t id;
  uint32_t reserved;  // zero; keeps the 64-bit fields aligned
  uint64_t offset;    // from file start, kSnapshotPageSize-aligned
  uint64_t size;      // payload bytes (padding excluded)
  uint64_t checksum;  // FNV-1a of the payload bytes
};
static_assert(sizeof(SnapshotSection) == 32);

/// One record of the partitioning section: partition p's members are
/// member ids [member_end of p - 1 (0 for p = 0), member_end of p). Only
/// fixed-width fields with explicit padding, so the record has one
/// layout on every ABI the layout tag admits.
struct SnapshotPartition {
  RankingId medoid;
  uint32_t reserved;  // zero
  RawDistance radius;
  uint64_t member_end;
};
static_assert(sizeof(SnapshotPartition) == 24);

/// FNV-1a 64-bit over `size` bytes (section payloads and the table).
uint64_t SnapshotChecksum(const void* data, size_t size);

/// Writes `store` + the compressed arena of its plain inverted index as
/// a snapshot at `path`, plus `partitioning` when non-null. The store
/// must not be empty; the arena must have one list per item id in
/// [0, max_item]; a partitioning must pass the checks ReadPartitioning
/// makes (InvalidArgument otherwise, and nothing is written).
Status WriteStoreSnapshot(const RankingStore& store,
                          const CompressedPostingArena<RankingId>& arena,
                          const std::string& path,
                          const Partitioning* partitioning = nullptr);

/// An open snapshot: a frozen RankingStore plus its compressed plain
/// index, both served zero-copy out of one shared mmap'd region.
/// Move-only; the mapping unmaps when the last StoreSnapshot referencing
/// it dies.
class StoreSnapshot {
 public:
  StoreSnapshot(StoreSnapshot&&) = default;
  StoreSnapshot& operator=(StoreSnapshot&&) = default;

  const RankingStore& store() const { return store_; }
  const CompressedInvertedIndex& index() const { return index_; }

  /// Total bytes mapped (the file size).
  size_t mapped_bytes() const;

  /// Bytes of the mapping currently resident in memory (via mincore);
  /// returns 0 where unsupported. Right after open this is a small
  /// fraction of mapped_bytes() — the zero-copy evidence the storage
  /// bench records.
  size_t ResidentBytes() const;

  /// The partitioning stored with the snapshot, copied out of the
  /// mapping: NotFound when it was written without one. Reads only the
  /// two partitioning sections (open never touches them) and verifies
  /// their checksums, then rejects with InvalidArgument a partition
  /// that is empty or not led by its medoid, member-end offsets that do
  /// not ascend to exactly the member count, a member id >= n, and an
  /// id listed twice — so the result is safe to hand to
  /// CoarseIndex::BuildFromPartitioning over store().
  Result<Partitioning> ReadPartitioning() const;

 private:
  friend Result<StoreSnapshot> OpenStoreSnapshot(const std::string& path);

  class Mapping;  // RAII mmap region (defined in snapshot.cc)

  StoreSnapshot(std::shared_ptr<Mapping> mapping, RankingStore store,
                CompressedInvertedIndex index,
                const SnapshotSection& partitions,
                const SnapshotSection& members)
      : mapping_(std::move(mapping)),
        store_(std::move(store)),
        index_(std::move(index)),
        partitions_(partitions),
        members_(members) {}

  std::shared_ptr<Mapping> mapping_;
  RankingStore store_;
  CompressedInvertedIndex index_;
  /// Table entries of the partitioning sections, bounds-checked at open.
  SnapshotSection partitions_;
  SnapshotSection members_;
};

/// Maps `path` and wires the zero-copy store + index. Verifies the
/// header (including the byte-order and layout tags), the
/// section-table checksum, section bounds/alignment, and the arena
/// metadata; does NOT read the payload sections (see the header
/// comment for why).
Result<StoreSnapshot> OpenStoreSnapshot(const std::string& path);

/// Reads every section payload and verifies its checksum, plus the row
/// checks a snapshot's frozen store cannot make on the Add path: every
/// items entry is <= the header's max_item (the SIMD validator's rank
/// table is sized by it) and every sorted_items row strictly ascends.
/// O(file size), streamed through a bounded buffer rather than the
/// mapping; run this when integrity matters more than load latency
/// (SnapshotManager::OpenNewestValid does), not on every open.
Status VerifySnapshotChecksums(const std::string& path);

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_SNAPSHOT_H_
