#include "storage/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/failpoint.h"

namespace topk {
namespace storage {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvUpdate(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

size_t PageAlign(size_t offset) {
  return (offset + kSnapshotPageSize - 1) & ~(kSnapshotPageSize - 1);
}

/// One section to be written: payload pointer + size.
struct SectionPayload {
  const void* data;
  size_t size;
};

template <typename T>
SectionPayload Payload(std::span<const T> elements) {
  return {elements.data(), elements.size_bytes()};
}

/// RAII stdio handle so every early return closes the file.
struct FileCloser {
  explicit FileCloser(std::FILE* f) : file(f) {}
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);  // syscall-ok: RAII cleanup
  }
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;
  std::FILE* file;
};

bool WritePadded(std::FILE* file, const void* data, size_t size,
                 size_t padded_size) {
  if (size > 0 && std::fwrite(data, 1, size, file) != size) return false;
  static constexpr char kZeros[256] = {};
  size_t pad = padded_size - size;
  while (pad > 0) {
    const size_t chunk = pad < sizeof(kZeros) ? pad : sizeof(kZeros);
    if (std::fwrite(kZeros, 1, chunk, file) != chunk) return false;
    pad -= chunk;
  }
  return true;
}

/// The partitioning checks that WriteStoreSnapshot and ReadPartitioning
/// share: everything CoarseIndex::BuildFromPartitioning needs to index
/// `n` rankings safely — each partition non-empty and led by its medoid,
/// member-end offsets ascending to exactly members.size(), every member
/// id < n and listed once. The offsets are bounded by the member count
/// (itself the section size over the element size) before anything is
/// allocated.
Status CheckPartitionSections(std::span<const SnapshotPartition> partitions,
                              std::span<const RankingId> members, size_t n) {
  if (partitions.empty() || members.size() > n) {
    return Status::InvalidArgument(
        "snapshot partitioning sections do not fit the store");
  }
  uint64_t begin = 0;
  for (const SnapshotPartition& p : partitions) {
    if (p.reserved != 0) {
      return Status::InvalidArgument("snapshot partition record reserved "
                                     "field not zero");
    }
    if (p.member_end <= begin || p.member_end > members.size()) {
      return Status::InvalidArgument(
          "snapshot partition member offsets out of order or past the "
          "member section");
    }
    if (members[begin] != p.medoid) {
      return Status::InvalidArgument(
          "partition invariant violated (medoid must lead members)");
    }
    begin = p.member_end;
  }
  if (begin != members.size()) {
    return Status::InvalidArgument(
        "snapshot partition member offsets do not cover the member section");
  }
  std::vector<bool> seen(n);
  for (const RankingId id : members) {
    if (id >= n) {
      return Status::InvalidArgument("snapshot partition member id outside "
                                     "the store");
    }
    if (seen[id]) {
      return Status::InvalidArgument("snapshot partitioning lists a ranking "
                                     "twice");
    }
    seen[id] = true;
  }
  return Status::OK();
}

/// Verify's row checks over one fread chunk of whole rows.
bool ItemsWithin(std::span<const ItemId> items, ItemId max_item) {
  ItemId top = 0;
  for (const ItemId item : items) top = std::max(top, item);
  return top <= max_item;
}

bool RowsStrictlyAscend(std::span<const ItemId> rows, uint32_t k) {
  bool descends = false;  // branch-free: a failing row is the rare case
  for (size_t row = 0; row < rows.size(); row += k) {
    for (uint32_t p = 1; p < k; ++p) {
      descends |= rows[row + p - 1] >= rows[row + p];
    }
  }
  return !descends;
}

}  // namespace

uint64_t SnapshotChecksum(const void* data, size_t size) {
  return FnvUpdate(kFnvOffset, data, size);
}

Status WriteStoreSnapshot(const RankingStore& store,
                          const CompressedPostingArena<RankingId>& arena,
                          const std::string& path,
                          const Partitioning* partitioning) {
  if (store.empty()) {
    return Status::InvalidArgument("cannot snapshot an empty store");
  }
  std::vector<SnapshotPartition> partitions;
  std::vector<RankingId> members;
  if (partitioning != nullptr) {
    partitions.reserve(partitioning->partitions.size());
    members.reserve(partitioning->total_members());
    for (const Partition& p : partitioning->partitions) {
      members.insert(members.end(), p.members.begin(), p.members.end());
      partitions.push_back({p.medoid, 0, p.radius, members.size()});
    }
    Status checked = CheckPartitionSections(partitions, members, store.size());
    if (!checked.ok()) return checked;
  }
  // Table order: section s has id s + 1.
  const SectionPayload payloads[kSnapshotSectionCount] = {
      Payload(store.flat_items()),
      Payload(store.flat_sorted_items()),
      Payload(store.flat_sorted_ranks()),
      Payload(arena.list_metas()),
      Payload(arena.block_metas()),
      Payload(arena.inline_entries()),
      Payload(arena.byte_stream()),
      Payload<SnapshotPartition>(partitions),
      Payload<RankingId>(members),
  };

  SnapshotSection table[kSnapshotSectionCount] = {};
  size_t offset = PageAlign(sizeof(SnapshotHeader) + sizeof(table));
  for (uint32_t s = 0; s < kSnapshotSectionCount; ++s) {
    table[s].id = s + 1;
    table[s].reserved = 0;
    table[s].offset = offset;
    table[s].size = payloads[s].size;
    table[s].checksum = SnapshotChecksum(payloads[s].data, payloads[s].size);
    offset = PageAlign(offset + payloads[s].size);
  }

  SnapshotHeader header = {};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.section_count = kSnapshotSectionCount;
  header.byte_order = kSnapshotByteOrder;
  header.layout = kSnapshotLayout;
  header.k = store.k();
  header.max_item = store.max_item();
  header.num_rankings = store.size();
  header.num_arena_entries = arena.num_entries();
  header.directory_checksum = SnapshotChecksum(table, sizeof(table));

  // Crash-safe protocol: write everything to `path`.tmp, fsync the file,
  // atomically rename over the final name, then fsync the parent
  // directory so the rename itself survives power loss. A SIGKILL at any
  // injected point below leaves either the previous file intact or the
  // complete new one — never a torn final file; leftover .tmp files are
  // swept by SnapshotManager's startup scan (storage_crash_test proves
  // recovery at every one of these failpoints). Injected failures set
  // errno = EIO so they take the exact annotation path a real kernel
  // error takes.
  const std::string tmp_path = path + ".tmp";
  const auto fail = [&tmp_path](Status status) {
    ::unlink(tmp_path.c_str());  // syscall-ok: best-effort cleanup
    return status;
  };

  FileCloser out(std::fopen(tmp_path.c_str(), "wb"));
  const bool open_failed = TOPK_FAILPOINT("storage.snapshot.open")
                               ? (errno = EIO, true)
                               : out.file == nullptr;
  if (open_failed) {
    return fail(Status::IOErrorFromErrno("open " + tmp_path, errno));
  }
  const size_t preamble = sizeof(header) + sizeof(table);
  bool ok = std::fwrite(&header, 1, sizeof(header), out.file) ==
                sizeof(header) &&
            std::fwrite(table, 1, sizeof(table), out.file) == sizeof(table) &&
            WritePadded(out.file, nullptr, 0, PageAlign(preamble) - preamble);
  for (uint32_t s = 0; ok && s < kSnapshotSectionCount; ++s) {
    if (TOPK_FAILPOINT("storage.snapshot.write")) {
      errno = EIO;
      ok = false;
      break;
    }
    const size_t padded = (s + 1 < kSnapshotSectionCount
                               ? table[s + 1].offset
                               : PageAlign(table[s].offset + table[s].size)) -
                          table[s].offset;
    ok = WritePadded(out.file, payloads[s].data, payloads[s].size, padded);
  }
  if (!ok || std::fflush(out.file) != 0) {
    return fail(Status::IOErrorFromErrno("write " + tmp_path, errno));
  }
  const bool fsync_failed = TOPK_FAILPOINT("storage.snapshot.fsync")
                                ? (errno = EIO, true)
                                : ::fsync(::fileno(out.file)) != 0;
  if (fsync_failed) {
    return fail(Status::IOErrorFromErrno("fsync " + tmp_path, errno));
  }
  {
    std::FILE* file = out.file;
    out.file = nullptr;  // the explicit close below owns it now
    if (std::fclose(file) != 0) {
      return fail(Status::IOErrorFromErrno("close " + tmp_path, errno));
    }
  }
  const bool rename_failed =
      TOPK_FAILPOINT("storage.snapshot.rename")
          ? (errno = EIO, true)
          : std::rename(tmp_path.c_str(), path.c_str()) != 0;
  if (rename_failed) {
    return fail(
        Status::IOErrorFromErrno("rename " + tmp_path + " -> " + path,
                                 errno));
  }
  // Durability of the rename needs the directory entry flushed too.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IOErrorFromErrno("open directory " + dir, errno);
  }
  const bool dirsync_failed = TOPK_FAILPOINT("storage.snapshot.dirsync")
                                  ? (errno = EIO, true)
                                  : ::fsync(dir_fd) != 0;
  const int dirsync_errno = errno;
  ::close(dir_fd);  // syscall-ok: read-only directory handle
  if (dirsync_failed) {
    return Status::IOErrorFromErrno("fsync directory " + dir, dirsync_errno);
  }
  return Status::OK();
}

/// RAII mmap of a whole file, read-only.
class StoreSnapshot::Mapping {
 public:
  static Result<std::shared_ptr<Mapping>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      const int err = errno;
      if (err == ENOENT) {
        return Status::NotFound("cannot open snapshot: " + path);
      }
      return Status::IOErrorFromErrno("open snapshot " + path, err);
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);  // syscall-ok: error-path cleanup
      return Status::IOErrorFromErrno("stat snapshot " + path, err);
    }
    if (st.st_size < 0) {
      ::close(fd);  // syscall-ok: error-path cleanup
      return Status::InvalidArgument("cannot stat snapshot: " + path);
    }
    const auto size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);  // syscall-ok: error-path cleanup
      return Status::InvalidArgument("snapshot file is empty: " + path);
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    int err = errno;
    ::close(fd);  // syscall-ok: the mapping keeps its own reference
    if (TOPK_FAILPOINT("storage.snapshot.mmap") && base != MAP_FAILED) {
      // The degraded-read path treats an injected mmap failure exactly
      // like ENOMEM from the kernel: unwind and report.
      ::munmap(base, size);  // syscall-ok: unwinding the injected failure
      base = MAP_FAILED;
      err = EIO;
    }
    if (base == MAP_FAILED) {
      return Status::IOErrorFromErrno("mmap snapshot " + path, err);
    }
    // Posting access at query time is random by item id; default mmap
    // readahead would fault megabytes around every touched page and
    // defeat the larger-than-RAM story (and the residency evidence).
    // Best-effort: a kernel that rejects the hint just reads ahead.
    ::madvise(base, size, MADV_RANDOM);  // syscall-ok: best-effort hint
    return std::make_shared<Mapping>(static_cast<const uint8_t*>(base), size);
  }

  Mapping(const uint8_t* base, size_t size) : base_(base), size_(size) {}
  ~Mapping() {
    ::munmap(const_cast<uint8_t*>(base_), size_);  // syscall-ok: destructor
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const uint8_t* base() const { return base_; }
  size_t size() const { return size_; }

  size_t ResidentBytes() const {
#ifdef __linux__
    const size_t pages = (size_ + kSnapshotPageSize - 1) / kSnapshotPageSize;
    std::vector<unsigned char> residency(pages);
    if (::mincore(const_cast<uint8_t*>(base_), size_, residency.data()) !=
        0) {
      return 0;
    }
    size_t resident = 0;
    for (const unsigned char page : residency) {
      if ((page & 1u) != 0) ++resident;
    }
    return resident * kSnapshotPageSize;
#else
    return 0;
#endif
  }

 private:
  const uint8_t* base_;
  size_t size_;
};

size_t StoreSnapshot::mapped_bytes() const { return mapping_->size(); }

size_t StoreSnapshot::ResidentBytes() const {
  return mapping_->ResidentBytes();
}

namespace {

/// Element size of each section, in table order: a section's size must
/// be a whole number of them.
constexpr size_t kSectionElementSize[kSnapshotSectionCount] = {
    sizeof(ItemId),               // items
    sizeof(ItemId),               // sorted_items
    sizeof(Rank),                 // sorted_ranks
    sizeof(CompressedListMeta),   // list metas
    sizeof(CompressedBlockMeta),  // block metas
    sizeof(RankingId),            // inline entries
    1,                            // byte stream
    sizeof(SnapshotPartition),    // partition records
    sizeof(RankingId),            // partition members
};

/// The structural checks open and verify share, all O(metadata): the
/// header's tags and counts, the section-table checksum, and per
/// section its id, page alignment, bounds within a `file_size`-byte
/// file and element-size multiple, plus the n * k column sizes and the
/// max_item + 1 list directory.
Status CheckLayout(const SnapshotHeader& header,
                   const SnapshotSection (&table)[kSnapshotSectionCount],
                   uint64_t file_size) {
  // The magic's last byte is the format version: an older TOPKSNP file
  // is a version mismatch, not a stranger.
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic) - 1) !=
      0) {
    return Status::InvalidArgument("not a snapshot file (bad magic)");
  }
  if (header.magic[7] != kSnapshotMagic[7] ||
      header.version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  if (header.section_count != kSnapshotSectionCount) {
    return Status::InvalidArgument("unexpected snapshot section count");
  }
  if (header.byte_order != kSnapshotByteOrder) {
    return Status::InvalidArgument(
        "snapshot byte order differs from this machine's (snapshots are "
        "host-endian cache files, not an interchange format)");
  }
  if (header.layout != kSnapshotLayout) {
    return Status::InvalidArgument(
        "snapshot element layout differs from this build's (word size or "
        "struct layout mismatch)");
  }
  if (header.k == 0 || header.num_rankings == 0) {
    return Status::InvalidArgument("snapshot declares an empty store");
  }
  if (SnapshotChecksum(table, sizeof(table)) != header.directory_checksum) {
    return Status::InvalidArgument("snapshot section table checksum "
                                   "mismatch");
  }
  // Overflow-safe n * k: a hostile header cannot wrap the cell count
  // into coincidental agreement with the section sizes.
  if (header.num_rankings > (UINT64_MAX / sizeof(ItemId)) / header.k) {
    return Status::InvalidArgument("snapshot ranking count implausibly "
                                   "large");
  }
  const uint64_t column_bytes =
      header.num_rankings * header.k * sizeof(ItemId);
  const uint64_t directory_bytes =
      (uint64_t{header.max_item} + 1) * sizeof(CompressedListMeta);
  for (uint32_t s = 0; s < kSnapshotSectionCount; ++s) {
    const SnapshotSection& section = table[s];
    if (section.id != s + 1 || section.reserved != 0) {
      return Status::InvalidArgument("snapshot section table id mismatch");
    }
    if ((section.offset % kSnapshotPageSize) != 0) {
      return Status::InvalidArgument("snapshot section offset misaligned");
    }
    if (section.offset > file_size ||
        section.size > file_size - section.offset) {
      return Status::InvalidArgument("snapshot section outside the file");
    }
    if ((section.size % kSectionElementSize[s]) != 0) {
      return Status::InvalidArgument("snapshot section size not a multiple "
                                     "of its element size");
    }
    if (section.id <= SnapshotSection::kSortedRanks &&
        section.size != column_bytes) {
      return Status::InvalidArgument("snapshot column sections do not match "
                                     "n * k");
    }
    if (section.id == SnapshotSection::kListMetas &&
        section.size != directory_bytes) {
      return Status::InvalidArgument("snapshot list directory does not cover "
                                     "max_item");
    }
  }
  return Status::OK();
}

/// A section of the mapping as typed elements (CheckLayout has bounded
/// and sized it; page alignment makes the cast aligned).
template <typename T>
std::span<const T> Typed(const uint8_t* base, const SnapshotSection& section) {
  return {reinterpret_cast<const T*>(base + section.offset),
          static_cast<size_t>(section.size / sizeof(T))};
}

}  // namespace

Result<StoreSnapshot> OpenStoreSnapshot(const std::string& path) {
  auto mapping_result = StoreSnapshot::Mapping::Open(path);
  if (!mapping_result.ok()) return mapping_result.status();
  std::shared_ptr<StoreSnapshot::Mapping> mapping =
      std::move(mapping_result).ValueOrDie();
  const uint8_t* base = mapping->base();
  const size_t file_size = mapping->size();

  SnapshotHeader header;
  SnapshotSection table[kSnapshotSectionCount];
  if (file_size < sizeof(header) + sizeof(table)) {
    return Status::InvalidArgument("snapshot truncated before the header");
  }
  std::memcpy(&header, base, sizeof(header));
  std::memcpy(table, base + sizeof(header), sizeof(table));
  Status layout = CheckLayout(header, table, file_size);
  if (!layout.ok()) return layout;

  // The partitioning sections (table[7], table[8]) are only
  // bounds-checked here; ReadPartitioning reads them on demand.
  auto arena = CompressedPostingArena<RankingId>::Adopt(
      Typed<CompressedListMeta>(base, table[3]),
      Typed<CompressedBlockMeta>(base, table[4]),
      Typed<RankingId>(base, table[5]), Typed<uint8_t>(base, table[6]));
  if (!arena.ok()) return arena.status();
  if (arena.value().num_entries() != header.num_arena_entries) {
    return Status::InvalidArgument("snapshot arena entry count mismatch");
  }

  RankingStore store = RankingStore::AdoptExternal(
      header.k, static_cast<size_t>(header.num_rankings), header.max_item,
      Typed<ItemId>(base, table[0]).data(),
      Typed<ItemId>(base, table[1]).data(),
      Typed<Rank>(base, table[2]).data());
  CompressedInvertedIndex index = CompressedInvertedIndex::FromParts(
      std::move(arena).ValueOrDie(),
      static_cast<size_t>(header.num_rankings));
  return StoreSnapshot(std::move(mapping), std::move(store),
                       std::move(index), table[7], table[8]);
}

Result<Partitioning> StoreSnapshot::ReadPartitioning() const {
  if (partitions_.size == 0 && members_.size == 0) {
    return Status::NotFound("snapshot carries no partitioning");
  }
  const auto partitions =
      Typed<SnapshotPartition>(mapping_->base(), partitions_);
  const auto members = Typed<RankingId>(mapping_->base(), members_);
  if (SnapshotChecksum(partitions.data(), partitions.size_bytes()) !=
          partitions_.checksum ||
      SnapshotChecksum(members.data(), members.size_bytes()) !=
          members_.checksum) {
    return Status::InvalidArgument("snapshot partitioning checksum "
                                   "mismatch");
  }
  Status checked = CheckPartitionSections(partitions, members, store_.size());
  if (!checked.ok()) return checked;

  Partitioning partitioning;
  partitioning.partitions.resize(partitions.size());
  size_t begin = 0;
  for (size_t i = 0; i < partitions.size(); ++i) {
    Partition& out = partitioning.partitions[i];
    const auto end = static_cast<size_t>(partitions[i].member_end);
    out.medoid = partitions[i].medoid;
    out.radius = partitions[i].radius;
    const std::span<const RankingId> own = members.subspan(begin, end - begin);
    out.members.assign(own.begin(), own.end());
    begin = end;
  }
  return partitioning;
}

Status VerifySnapshotChecksums(const std::string& path) {
  FileCloser in(std::fopen(path.c_str(), "rb"));
  if (in.file == nullptr) {
    const int err = errno;
    if (err == ENOENT) {
      return Status::NotFound("cannot open snapshot: " + path);
    }
    return Status::IOErrorFromErrno("open snapshot " + path, err);
  }
  SnapshotHeader header;
  SnapshotSection table[kSnapshotSectionCount];
  if (std::fread(&header, 1, sizeof(header), in.file) != sizeof(header) ||
      std::fread(table, 1, sizeof(table), in.file) != sizeof(table)) {
    return Status::InvalidArgument("snapshot truncated before the header");
  }
  if (std::fseek(in.file, 0, SEEK_END) != 0) {
    return Status::IOErrorFromErrno("seek snapshot " + path, errno);
  }
  const long file_size = std::ftell(in.file);
  if (file_size < 0) {
    return Status::IOErrorFromErrno("size snapshot " + path, errno);
  }
  Status layout =
      CheckLayout(header, table, static_cast<uint64_t>(file_size));
  if (!layout.ok()) return layout;

  // Chunks are whole rows (CheckLayout pinned both item columns to
  // n * k cells), so the row checks never straddle two reads; a row is
  // at most a column, itself inside the file.
  const size_t row_bytes = size_t{header.k} * sizeof(ItemId);
  const size_t chunk_rows = std::max<size_t>(1, (size_t{1} << 20) / row_bytes);
  std::vector<ItemId> buffer(chunk_rows * header.k);
  const size_t buffer_bytes = buffer.size() * sizeof(ItemId);
  for (const SnapshotSection& section : table) {
    if (std::fseek(in.file, static_cast<long>(section.offset), SEEK_SET) !=
        0) {
      return Status::InvalidArgument("snapshot section unreadable");
    }
    uint64_t hash = kFnvOffset;
    uint64_t remaining = section.size;
    while (remaining > 0) {
      const size_t chunk = remaining < buffer_bytes
                               ? static_cast<size_t>(remaining)
                               : buffer_bytes;
      if (std::fread(buffer.data(), 1, chunk, in.file) != chunk) {
        return Status::InvalidArgument("snapshot section truncated");
      }
      hash = FnvUpdate(hash, buffer.data(), chunk);
      const std::span<const ItemId> cells(buffer.data(),
                                          chunk / sizeof(ItemId));
      if (section.id == SnapshotSection::kItems &&
          !ItemsWithin(cells, header.max_item)) {
        return Status::InvalidArgument("snapshot row item above the "
                                       "header's max_item");
      }
      if (section.id == SnapshotSection::kSortedItems &&
          !RowsStrictlyAscend(cells, header.k)) {
        return Status::InvalidArgument("snapshot sorted row not strictly "
                                       "increasing");
      }
      remaining -= chunk;
    }
    if (hash != section.checksum) {
      return Status::InvalidArgument("snapshot section checksum mismatch "
                                     "(section id " +
                                     std::to_string(section.id) + ")");
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace topk
