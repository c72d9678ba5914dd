// mmap snapshot suite: write/open round-trip, zero-copy query
// differential against the RAM-resident engines, corruption and
// truncation at every layer of the format (header, section table,
// section payloads), older format versions, the checksum fields' full
// 64-bit width, lazy checksum verification and its row checks, the
// stored coarse partitioning (round trip, absence, corruption, hostile
// offsets and ids), and the MutableStore merge-emitted snapshot.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/bk_partitioner.h"
#include "coarse/coarse_index.h"
#include "core/ranking.h"
#include "core/types.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "mutate/mutable_store.h"
#include "storage/compressed_arena.h"
#include "storage/snapshot.h"
#include "storage/snapshot_manager.h"
#include "test_util.h"

namespace topk {
namespace {

using storage::CompressedPostingArena;
using storage::OpenStoreSnapshot;
using storage::SnapshotHeader;
using storage::SnapshotManager;
using storage::SnapshotPartition;
using storage::SnapshotSection;
using storage::StoreSnapshot;
using storage::VerifySnapshotChecksums;
using storage::WriteStoreSnapshot;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// The compressed plain index of `store`.
CompressedPostingArena<RankingId> ArenaOf(const RankingStore& store) {
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  return CompressedPostingArena<RankingId>::FromArena(plain.arena());
}

/// Writes a snapshot of `store` (and its plain index, compressed), with
/// `partitioning` when non-null.
void WriteSnapshotOf(const RankingStore& store, const std::string& path,
                     const Partitioning* partitioning = nullptr) {
  const Status written =
      WriteStoreSnapshot(store, ArenaOf(store), path, partitioning);
  ASSERT_TRUE(written.ok()) << written.ToString();
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) {  // fwrite(nullptr, ...) is UB even for 0 bytes
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
              bytes.size());
  }
  std::fclose(file);
}

/// The section table of a snapshot image.
struct Table {
  SnapshotSection sections[storage::kSnapshotSectionCount];
};

Table TableOf(const std::vector<uint8_t>& bytes) {
  Table table;
  std::memcpy(table.sections, bytes.data() + sizeof(SnapshotHeader),
              sizeof(table.sections));
  return table;
}

/// End of the last non-empty section payload: the file past it is page
/// padding (and empty sections sit at the file end).
size_t PayloadEnd(const std::vector<uint8_t>& bytes) {
  size_t end = 0;
  for (const SnapshotSection& section : TableOf(bytes).sections) {
    if (section.size > 0) {
      end = std::max(end, static_cast<size_t>(section.offset + section.size));
    }
  }
  return end;
}

/// Overwrites the bytes at `offset` with `value`.
template <typename T>
void Poke(std::vector<uint8_t>* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

template <typename T>
T Peek(const std::vector<uint8_t>& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

/// Overwrites bytes of a section, given the section's table entry.
using SectionPatch =
    std::function<void(const SnapshotSection&, std::vector<uint8_t>*)>;

/// Writes `value` at byte `offset` into the patched section.
template <typename T>
SectionPatch PokeAt(size_t offset, T value) {
  return [=](const SnapshotSection& section, std::vector<uint8_t>* bytes) {
    Poke(bytes, static_cast<size_t>(section.offset) + offset, value);
  };
}

/// Re-stamps section `index`'s payload checksum and the directory
/// checksum after a patch, so only the content checks can catch it.
void Restamp(std::vector<uint8_t>* bytes, size_t index) {
  Table table = TableOf(*bytes);
  SnapshotSection& section = table.sections[index];
  section.checksum = storage::SnapshotChecksum(
      bytes->data() + section.offset, static_cast<size_t>(section.size));
  std::memcpy(bytes->data() + sizeof(SnapshotHeader), table.sections,
              sizeof(table.sections));
  Poke(bytes, offsetof(SnapshotHeader, directory_checksum),
       storage::SnapshotChecksum(table.sections, sizeof(table.sections)));
}

/// Section indexes (table position = id - 1).
constexpr size_t kItemsIndex = SnapshotSection::kItems - 1;
constexpr size_t kSortedItemsIndex = SnapshotSection::kSortedItems - 1;
constexpr size_t kListMetasIndex = SnapshotSection::kListMetas - 1;
constexpr size_t kBlockMetasIndex = SnapshotSection::kBlockMetas - 1;
constexpr size_t kPartitionsIndex = SnapshotSection::kPartitions - 1;
constexpr size_t kMembersIndex = SnapshotSection::kPartitionMembers - 1;

/// A clustered store and its strict BK partitioning (several partitions,
/// most with more than one member).
struct PartitionedStore {
  RankingStore store = testutil::MakeClusteredStore(10, 800, 302);
  Partitioning partitioning =
      BkPartition(store, RawThreshold(0.3, 10), BkPartitionMode::kStrict);
};

TEST(StoreSnapshot, RoundTripsStoreAndIndex) {
  const RankingStore store = testutil::MakeClusteredStore(10, 400, 3);
  const std::string path = TempPath("roundtrip.snap");
  WriteSnapshotOf(store, path);

  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value();
  ASSERT_TRUE(snapshot.store().external());
  ASSERT_EQ(snapshot.store().size(), store.size());
  ASSERT_EQ(snapshot.store().k(), store.k());
  ASSERT_EQ(snapshot.store().max_item(), store.max_item());
  for (RankingId id = 0; id < store.size(); ++id) {
    const auto expected = store.view(id).items();
    const auto actual = snapshot.store().view(id).items();
    ASSERT_EQ(0, std::memcmp(actual.data(), expected.data(),
                             expected.size_bytes()))
        << "row " << id;
  }
  EXPECT_TRUE(VerifySnapshotChecksums(path).ok());
  // Written without a partitioning: both sections empty, and asking for
  // one is NotFound.
  const Table table = TableOf(ReadFile(path));
  EXPECT_EQ(table.sections[kPartitionsIndex].size, 0u);
  EXPECT_EQ(table.sections[kMembersIndex].size, 0u);
  EXPECT_EQ(snapshot.ReadPartitioning().status().code(),
            Status::Code::kNotFound);
  std::remove(path.c_str());
}

TEST(StoreSnapshot, MmapQueriesMatchRamEngines) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 5);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const std::string path = TempPath("differential.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value();

  const RawDistance dmax = MaxDistance(store.k());
  for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                              DropMode::kPositionRefined}) {
    FilterValidateEngine reference(&store, &plain, {drop});
    storage::CompressedFilterValidateEngine tier(&snapshot.store(),
                                                 &snapshot.index(), {drop});
    for (const auto& query : testutil::MakeQueries(store, 8, 17)) {
      for (const RawDistance theta : {dmax / 4, dmax / 2, dmax}) {
        Statistics ref_stats;
        Statistics tier_stats;
        const auto expected = reference.Query(query, theta, &ref_stats);
        const auto actual = tier.Query(query, theta, &tier_stats);
        ASSERT_EQ(actual, expected)
            << "drop=" << static_cast<int>(drop) << " theta=" << theta;
        ASSERT_TRUE(testutil::TickersEqualExcept(tier_stats, ref_stats,
                                                 Ticker::kBlocksDecoded));
        ASSERT_EQ(tier_stats.Get(Ticker::kBlocksDecoded),
                  testutil::RangeSearchBlocks(snapshot.index(), store.k(),
                                                query.view(), theta, drop));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, OpenIsZeroCopy) {
  const RankingStore store = testutil::MakeClusteredStore(10, 2000, 9);
  const std::string path = TempPath("lazy.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Zero-copy contract, part 1 (deterministic): the adopted store and
  // index hold NO heap copies of the mapped sections — every byte is
  // served out of the mapping.
  EXPECT_GT(opened.value().mapped_bytes(), size_t{0});
  EXPECT_EQ(opened.value().store().MemoryUsage(), size_t{0});
  EXPECT_EQ(opened.value().index().MemoryUsage(), size_t{0});
  // Part 2 (residency): mincore counts page-cache residency, and a
  // freshly written file is fully cached, so evict it first (the pages
  // are clean after fdatasync); after eviction the mapping must not be
  // fully resident — open touched only metadata. Skipped silently where
  // eviction is unsupported.
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  ::fdatasync(fd);
  const bool evicted =
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  if (evicted) {
    EXPECT_LT(opened.value().ResidentBytes(), opened.value().mapped_bytes())
        << "open faulted in the entire snapshot";
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, RejectsMissingAndEmptyAndTruncatedFiles) {
  // Absence is NotFound (callers build fresh); everything below is
  // InvalidArgument (evidence of corruption).
  EXPECT_EQ(OpenStoreSnapshot(TempPath("does-not-exist.snap")).status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(VerifySnapshotChecksums(TempPath("does-not-exist.snap")).code(),
            Status::Code::kNotFound);

  const std::string path = TempPath("degenerate.snap");
  WriteBytes(path, {});  // zero-length file
  EXPECT_FALSE(OpenStoreSnapshot(path).ok());
  EXPECT_FALSE(VerifySnapshotChecksums(path).ok());

  const RankingStore store = testutil::MakeClusteredStore(8, 120, 13);
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);
  // The last payload byte's end (NOT the file end: the file is padded
  // out to a page boundary, and shaving padding alone is not corruption).
  const size_t last_payload_end = PayloadEnd(good);
  ASSERT_GT(last_payload_end, size_t{0});
  // Truncation at every structural boundary: mid-header, mid-table,
  // mid-payload, one payload byte short.
  for (const size_t keep :
       {sizeof(SnapshotHeader) / 2, sizeof(SnapshotHeader) + 16,
        good.size() / 2, last_payload_end - 1}) {
    WriteBytes(path, std::vector<uint8_t>(good.begin(),
                                          good.begin() +
                                              static_cast<ptrdiff_t>(keep)));
    EXPECT_FALSE(OpenStoreSnapshot(path).ok()) << "keep=" << keep;
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok()) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, RejectsHeaderAndTableCorruption) {
  const RankingStore store = testutil::MakeClusteredStore(8, 120, 15);
  const std::string path = TempPath("corrupt-meta.snap");
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);

  // Bad magic, bad version, corrupted section table (directory checksum
  // catches the flip), corrupted byte-order tag.
  const size_t offsets[] = {0, 8, sizeof(SnapshotHeader) + 8, 16};
  for (const size_t offset : offsets) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= 0xff;
    WriteBytes(path, bad);
    EXPECT_FALSE(OpenStoreSnapshot(path).ok()) << "offset=" << offset;
  }
  // A TOPKSNP2, TOPKSNP3 or TOPKSNP4 (FNV-1a checksums) file (the
  // magic's last byte and the version field) is an unsupported version,
  // not a stranger, and recovery quarantines it. The magic and version
  // are checked before anything else is read, so the older formats'
  // other header fields, section tables and checksums need no emulation.
  for (const uint32_t version : {2u, 3u, 4u}) {
    SCOPED_TRACE(version);
    std::vector<uint8_t> older = good;
    older[7] = static_cast<uint8_t>('0' + version);
    Poke<uint32_t>(&older, offsetof(SnapshotHeader, version), version);
    WriteBytes(path, older);
    const auto opened = OpenStoreSnapshot(path);
    EXPECT_EQ(opened.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find("unsupported snapshot version"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_EQ(VerifySnapshotChecksums(path).code(),
              Status::Code::kInvalidArgument);

    const std::string dir = TempPath("older-version");
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    SnapshotManager manager(dir);
    WriteBytes(manager.GenerationPath(1), older);
    Statistics stats;
    EXPECT_EQ(manager.OpenNewestValid(&stats).status().code(),
              Status::Code::kNotFound);
    EXPECT_EQ(manager.QuarantinedCount(), 1u);
    EXPECT_EQ(stats.Get(Ticker::kSnapshotsQuarantined), 1u);
    EXPECT_TRUE(manager.ListGenerations().empty());
    std::filesystem::remove_all(dir);
  }
  // Hostile ranking counts: one whose n * k * 4 wraps 64 bits (only the
  // overflow-safe division-form check catches it) and one merely larger
  // than the columns. The header is outside every checksum.
  for (const uint64_t n : {~uint64_t{0} / 2, uint64_t{store.size()} + 1}) {
    std::vector<uint8_t> bad = good;
    Poke(&bad, offsetof(SnapshotHeader, num_rankings), n);
    WriteBytes(path, bad);
    const auto opened = OpenStoreSnapshot(path);
    EXPECT_EQ(opened.status().code(), Status::Code::kInvalidArgument)
        << "n=" << n;
    EXPECT_EQ(VerifySnapshotChecksums(path).code(),
              Status::Code::kInvalidArgument)
        << "n=" << n;
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, ChecksumFieldsCompareAllSixtyFourBits) {
  // The CRC32C sits zero-extended in u64 fields: a stored value that is
  // the right CRC plus a set upper bit is a mismatch, not a match.
  const PartitionedStore fixture;
  const std::string path = TempPath("upper-bits.snap");
  WriteSnapshotOf(fixture.store, path, &fixture.partitioning);
  const std::vector<uint8_t> good = ReadFile(path);
  constexpr uint64_t kBit40 = uint64_t{1} << 40;
  for (size_t index = 0; index < storage::kSnapshotSectionCount; ++index) {
    SCOPED_TRACE("section index " + std::to_string(index));
    std::vector<uint8_t> bad = good;
    Table table = TableOf(bad);
    ASSERT_LT(table.sections[index].checksum, uint64_t{1} << 32);
    table.sections[index].checksum |= kBit40;
    std::memcpy(bad.data() + sizeof(SnapshotHeader), table.sections,
                sizeof(table.sections));
    // Re-seal the table so the section check is the one that fires.
    Poke(&bad, offsetof(SnapshotHeader, directory_checksum),
         storage::SnapshotChecksum(table.sections, sizeof(table.sections)));
    WriteBytes(path, bad);
    const Status verified = VerifySnapshotChecksums(path);
    EXPECT_EQ(verified.code(), Status::Code::kInvalidArgument);
    EXPECT_NE(verified.ToString().find("section checksum mismatch"),
              std::string::npos)
        << verified.ToString();
    if (index == kPartitionsIndex || index == kMembersIndex) {
      auto opened = OpenStoreSnapshot(path);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      EXPECT_EQ(opened.value().ReadPartitioning().status().code(),
                Status::Code::kInvalidArgument);
    }
  }
  std::vector<uint8_t> bad = good;
  const auto directory =
      Peek<uint64_t>(bad, offsetof(SnapshotHeader, directory_checksum));
  ASSERT_LT(directory, uint64_t{1} << 32);
  Poke(&bad, offsetof(SnapshotHeader, directory_checksum),
       directory | kBit40);
  WriteBytes(path, bad);
  const auto opened = OpenStoreSnapshot(path);
  EXPECT_EQ(opened.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(opened.status().ToString().find("table checksum mismatch"),
            std::string::npos)
      << opened.status().ToString();
  EXPECT_EQ(VerifySnapshotChecksums(path).code(),
            Status::Code::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(StoreSnapshot, PayloadCorruptionIsCaughtByVerifyNotOpen) {
  const PartitionedStore fixture;
  const std::string path = TempPath("corrupt-payload.snap");
  WriteSnapshotOf(fixture.store, path, &fixture.partitioning);
  const std::vector<uint8_t> good = ReadFile(path);
  // Flip one bit at the first, the middle and the last payload byte of
  // every section (NOT the trailing page padding, which no checksum
  // covers): the full verify must catch each flip. Open stays lazy and
  // cheap — of the payloads it reads only the two arena metadata
  // sections, which Adopt bounds-checks — so a flip anywhere else still
  // opens, and ReadPartitioning, which checksums the partitioning
  // sections it reads, rejects a flip there.
  for (size_t index = 0; index < storage::kSnapshotSectionCount; ++index) {
    const SnapshotSection section = TableOf(good).sections[index];
    ASSERT_GT(section.size, uint64_t{0}) << "section index " << index;
    for (const uint64_t at : {uint64_t{0}, section.size / 2,
                              section.size - 1}) {
      SCOPED_TRACE("section index " + std::to_string(index) + " byte " +
                   std::to_string(at));
      std::vector<uint8_t> bad = good;
      bad[static_cast<size_t>(section.offset + at)] ^= 0x10;
      WriteBytes(path, bad);
      EXPECT_EQ(VerifySnapshotChecksums(path).code(),
                Status::Code::kInvalidArgument);
      auto opened = OpenStoreSnapshot(path);
      if (index == kListMetasIndex || index == kBlockMetasIndex) continue;
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      if (index == kPartitionsIndex || index == kMembersIndex) {
        const auto read = opened.value().ReadPartitioning();
        EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
        EXPECT_NE(read.status().ToString().find("checksum"),
                  std::string::npos)
            << read.status().ToString();
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, MergeEmitsLoadableSnapshot) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 300, 23);
  const std::string dir = TempPath("merge-emitted");
  std::filesystem::remove_all(dir);
  MutableStoreOptions options;
  options.snapshot_dir = dir;
  MutableStore live(initial, options);

  // Mutate, then merge: the snapshot must freeze the rebuilt segment.
  const RankingStore extra = testutil::MakeClusteredStore(10, 50, 29);
  for (RankingId id = 0; id < extra.size(); ++id) {
    live.Insert(extra.view(id));
  }
  ASSERT_TRUE(live.Delete(3));
  ASSERT_TRUE(live.MergeNow());
  ASSERT_TRUE(live.last_snapshot_status().ok())
      << live.last_snapshot_status().ToString();

  SnapshotManager manager(dir);
  auto opened = manager.OpenNewestValid();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().generation, 1u);
  const StoreSnapshot& snapshot = opened.value().snapshot;
  EXPECT_EQ(snapshot.store().size(), live.live_size());
  // Merge emission carries no partitioning.
  EXPECT_EQ(snapshot.ReadPartitioning().status().code(),
            Status::Code::kNotFound);

  // The frozen rows answer queries identically to a plain engine over
  // the same rows.
  const RankingStore& frozen = snapshot.store();
  RankingStore rebuilt(frozen.k());
  for (RankingId id = 0; id < frozen.size(); ++id) {
    rebuilt.AddUnchecked(frozen.view(id).items());
  }
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(rebuilt);
  FilterValidateEngine reference(&rebuilt, &plain, {});
  storage::CompressedFilterValidateEngine tier(&frozen, &snapshot.index(),
                                               {});
  const RawDistance theta = MaxDistance(frozen.k()) / 3;
  for (const auto& query : testutil::MakeQueries(rebuilt, 6, 31)) {
    EXPECT_EQ(tier.Query(query, theta), reference.Query(query, theta));
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreSnapshot, RejectsForeignByteOrderAndLayout) {
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 37);
  const std::string path = TempPath("foreign-abi.snap");
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);
  // The byte_order and layout tags sit at header offsets 16 and 20; the
  // directory checksum covers only the section table, so tampering with
  // either tag needs no checksum re-fix to reach the guard.
  {
    // A byte-swapped writer: the reader sees the tag permuted.
    std::vector<uint8_t> bad = good;
    std::reverse(bad.begin() + 16, bad.begin() + 20);
    WriteBytes(path, bad);
    auto opened = OpenStoreSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().ToString().find("byte order"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  }
  {
    // A writer with different struct padding / word sizes: layout tag
    // disagrees with this build's fingerprint.
    std::vector<uint8_t> bad = good;
    bad[20] ^= 0xff;
    WriteBytes(path, bad);
    auto opened = OpenStoreSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().ToString().find("layout"), std::string::npos)
        << opened.status().ToString();
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, VerifyRejectsRowsTheAddPathWouldReject) {
  // Valid checksums, but rows RankingStore::Add would refuse: an item
  // past the header's max_item (the SIMD validator sizes its rank table
  // by max_item, so serving the row would read out of bounds), and a
  // sorted row that no longer ascends (two neighbours of the last row
  // swapped, so the check must cover the final chunk too).
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 47);
  const auto unsorted_row = [](const SnapshotSection& sorted,
                               std::vector<uint8_t>* bytes) {
    const size_t at = static_cast<size_t>(sorted.offset + sorted.size) -
                      2 * sizeof(ItemId);
    const auto first = Peek<ItemId>(*bytes, at);
    const auto second = Peek<ItemId>(*bytes, at + sizeof(ItemId));
    Poke(bytes, at, second);
    Poke(bytes, at + sizeof(ItemId), first);
  };
  const struct {
    size_t index;
    SectionPatch patch;
    const char* message;
  } cases[] = {
      {kItemsIndex, PokeAt<ItemId>(5 * sizeof(ItemId), store.max_item() + 1),
       "max_item"},
      {kSortedItemsIndex, unsorted_row, "strictly increasing"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    const std::string dir = TempPath("invalid-rows");
    std::filesystem::remove_all(dir);
    SnapshotManager manager(dir);
    ASSERT_TRUE(manager.WriteSnapshot(store, ArenaOf(store)).ok());
    const std::string path = manager.GenerationPath(1);
    std::vector<uint8_t> bytes = ReadFile(path);
    c.patch(TableOf(bytes).sections[c.index], &bytes);
    Restamp(&bytes, c.index);
    WriteBytes(path, bytes);
    const Status verified = VerifySnapshotChecksums(path);
    EXPECT_EQ(verified.code(), Status::Code::kInvalidArgument);
    EXPECT_NE(verified.ToString().find(c.message), std::string::npos)
        << verified.ToString();
    // OpenNewestValid trusts a generation only after the full verify, so
    // it quarantines the file.
    Statistics stats;
    EXPECT_EQ(manager.OpenNewestValid(&stats).status().code(),
              Status::Code::kNotFound);
    EXPECT_EQ(manager.QuarantinedCount(), 1u);
    EXPECT_EQ(stats.Get(Ticker::kSnapshotsQuarantined), 1u);
    std::filesystem::remove_all(dir);
  }
}

// --- The stored partitioning ----------------------------------------------

TEST(StoreSnapshot, PartitioningRoundTripsAndRebuildsAnIdenticalCoarseIndex) {
  const PartitionedStore fixture;
  ASSERT_GT(fixture.partitioning.partitions.size(), size_t{1});
  const std::string path = TempPath("partitioned.snap");
  WriteSnapshotOf(fixture.store, path, &fixture.partitioning);
  EXPECT_TRUE(VerifySnapshotChecksums(path).ok());
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto read = opened.value().ReadPartitioning();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().partitions.size(),
            fixture.partitioning.partitions.size());
  for (size_t p = 0; p < read.value().partitions.size(); ++p) {
    const Partition& want = fixture.partitioning.partitions[p];
    const Partition& got = read.value().partitions[p];
    EXPECT_EQ(got.medoid, want.medoid);
    EXPECT_EQ(got.radius, want.radius);
    EXPECT_EQ(got.members, want.members);
  }

  CoarseOptions options;
  options.theta_c = 0.3;
  const CoarseIndex fresh = CoarseIndex::BuildFromPartitioning(
      &fixture.store, options, fixture.partitioning);
  const CoarseIndex rebuilt = CoarseIndex::BuildFromPartitioning(
      &opened.value().store(), options, std::move(read).ValueOrDie());
  const RawDistance dmax = MaxDistance(fixture.store.k());
  for (const auto& query : testutil::MakeQueries(fixture.store, 10, 303)) {
    for (RawDistance theta = 0; theta <= dmax; theta += 2) {
      const auto expected = fresh.Query(query, theta);
      ASSERT_EQ(rebuilt.Query(query, theta), expected) << "theta=" << theta;
      ASSERT_EQ(expected, testutil::BruteForce(fixture.store, query, theta))
          << "theta=" << theta;
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, ReadPartitioningRejectsHostileSections) {
  const PartitionedStore fixture;
  // The first and the last partition need two members or more: one to
  // patch that is not the medoid (which must lead), and a last end that
  // can shrink and still ascend.
  Partitioning parts = fixture.partitioning;
  const auto multi = std::find_if(
      parts.partitions.begin() + 1, parts.partitions.end() - 1,
      [](const Partition& p) { return p.members.size() > 1; });
  ASSERT_NE(multi, parts.partitions.end() - 1);
  std::swap(*multi, parts.partitions.back());
  const size_t victim = parts.partitions[0].members.size() - 1;
  ASSERT_GT(victim, size_t{0});
  const size_t last = parts.partitions.size() - 1;
  const uint64_t members = parts.total_members();
  const auto n = static_cast<RankingId>(fixture.store.size());
  const RankingId taken = parts.partitions[1].medoid;
  const auto field = [](size_t p, size_t offset) {
    return p * sizeof(SnapshotPartition) + offset;
  };
  const size_t end = offsetof(SnapshotPartition, member_end);
  constexpr uint64_t kFar = uint64_t{1} << 40;
  // Each patch keeps the checksums valid (re-stamped below), so open and
  // verify pass and only ReadPartitioning's content checks can catch it.
  const struct {
    size_t index;
    SectionPatch patch;
    const char* message;
  } cases[] = {
      // An offset that wraps any `begin + count` arithmetic.
      {kPartitionsIndex, PokeAt(field(0, end), ~uint64_t{0}), "past the"},
      // Offsets that stay ascending far past the member section: the
      // per-record bound must stop them before any member is read there.
      {kPartitionsIndex,
       [&](const SnapshotSection& records, std::vector<uint8_t>* bytes) {
         PokeAt(field(0, end), kFar)(records, bytes);
         PokeAt(field(1, end), kFar + 1)(records, bytes);
       },
       "past the"},
      {kPartitionsIndex, PokeAt(field(last, end), members + 1), "past the"},
      {kPartitionsIndex, PokeAt(field(last, end), members - 1),
       "do not cover"},
      {kPartitionsIndex, PokeAt(field(0, end), uint64_t{0}), "out of order"},
      {kPartitionsIndex, PokeAt(field(1, end), uint64_t{0}), "out of order"},
      {kPartitionsIndex,
       PokeAt(field(0, offsetof(SnapshotPartition, reserved)), uint32_t{1}),
       "reserved"},
      {kPartitionsIndex,
       PokeAt(field(0, offsetof(SnapshotPartition, medoid)), taken),
       "medoid must lead"},
      {kMembersIndex, PokeAt(victim * sizeof(RankingId), n),
       "outside the store"},
      {kMembersIndex, PokeAt(victim * sizeof(RankingId), taken), "twice"},
  };
  const std::string path = TempPath("hostile-partitions.snap");
  WriteSnapshotOf(fixture.store, path, &parts);
  const std::vector<uint8_t> good = ReadFile(path);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    std::vector<uint8_t> bad = good;
    c.patch(TableOf(bad).sections[c.index], &bad);
    Restamp(&bad, c.index);
    WriteBytes(path, bad);
    EXPECT_TRUE(VerifySnapshotChecksums(path).ok());
    auto opened = OpenStoreSnapshot(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const Status read = opened.value().ReadPartitioning().status();
    EXPECT_EQ(read.code(), Status::Code::kInvalidArgument);
    EXPECT_NE(read.ToString().find(c.message), std::string::npos)
        << read.ToString();
  }

  // A partition section whose size is not a whole number of records, or
  // that runs past the file, fails already at open.
  for (const uint64_t size :
       {uint64_t{sizeof(SnapshotPartition)} * (last + 1) + 1,
        uint64_t{good.size()}}) {
    std::vector<uint8_t> bad = good;
    Table table = TableOf(bad);
    table.sections[kPartitionsIndex].size = size;
    std::memcpy(bad.data() + sizeof(SnapshotHeader), table.sections,
                sizeof(table.sections));
    Poke(&bad, offsetof(SnapshotHeader, directory_checksum),
         storage::SnapshotChecksum(table.sections, sizeof(table.sections)));
    WriteBytes(path, bad);
    EXPECT_EQ(OpenStoreSnapshot(path).status().code(),
              Status::Code::kInvalidArgument)
        << "size=" << size;
  }
  std::remove(path.c_str());

  // The writer refuses the id cases instead of producing a file the
  // reader would reject.
  const auto arena = ArenaOf(fixture.store);
  for (const RankingId id : {n, taken}) {
    Partitioning hostile = parts;
    hostile.partitions[0].members[victim] = id;
    const std::string refused = TempPath("refused.snap");
    std::remove(refused.c_str());
    EXPECT_EQ(WriteStoreSnapshot(fixture.store, arena, refused, &hostile)
                  .code(),
              Status::Code::kInvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(refused));
  }
}

TEST(StoreSnapshot, WriteRejectsEmptyStore) {
  const RankingStore store(5);
  const CompressedPostingArena<RankingId> arena;
  EXPECT_FALSE(
      WriteStoreSnapshot(store, arena, TempPath("empty.snap")).ok());
}

}  // namespace
}  // namespace topk
