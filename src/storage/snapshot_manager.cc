#include "storage/snapshot_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

namespace topk {
namespace storage {

namespace fs = std::filesystem;

namespace {

constexpr char kGenerationPrefix[] = "gen-";
constexpr char kGenerationSuffix[] = ".topksnp";
constexpr char kQuarantineSuffix[] = ".bad";
constexpr char kTempSuffix[] = ".tmp";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Parses "gen-<digits>.topksnp" into its generation number; false for
/// anything else (quarantined files, temp files, strangers).
bool ParseGenerationName(const std::string& name, uint64_t* generation) {
  const std::string prefix(kGenerationPrefix);
  const std::string suffix(kGenerationSuffix);
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (!EndsWith(name, suffix)) return false;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  *generation = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

}  // namespace

SnapshotManager::SnapshotManager(std::string directory,
                                 SnapshotManagerOptions options)
    : directory_(std::move(directory)), options_(options) {
  if (options_.keep_generations == 0) options_.keep_generations = 1;
}

std::string SnapshotManager::GenerationFileName(uint64_t generation) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s%020llu%s", kGenerationPrefix,
                static_cast<unsigned long long>(generation),
                kGenerationSuffix);
  return buffer;
}

std::string SnapshotManager::GenerationPath(uint64_t generation) const {
  return directory_ + "/" + GenerationFileName(generation);
}

Status SnapshotManager::EnsureDirectory() {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot directory " + directory_ +
                           ": " + ec.message());
  }
  return Status::OK();
}

std::vector<uint64_t> SnapshotManager::ListGenerations() const {
  std::vector<uint64_t> generations;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    uint64_t generation = 0;
    if (ParseGenerationName(entry.path().filename().string(), &generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

size_t SnapshotManager::QuarantinedCount() const {
  size_t count = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (EndsWith(entry.path().filename().string(), kQuarantineSuffix)) {
      ++count;
    }
  }
  return count;
}

void SnapshotManager::SweepOrphans() {
  std::error_code ec;
  std::vector<fs::path> orphans;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (EndsWith(entry.path().filename().string(), kTempSuffix)) {
      orphans.push_back(entry.path());
    }
  }
  for (const fs::path& orphan : orphans) {
    std::error_code remove_ec;
    fs::remove(orphan, remove_ec);  // best-effort; rescanned next time
  }
}

void SnapshotManager::PruneOldGenerations() {
  std::vector<uint64_t> generations = ListGenerations();
  while (generations.size() > options_.keep_generations) {
    std::error_code ec;
    fs::remove(GenerationPath(generations.front()), ec);
    generations.erase(generations.begin());
  }
}

void SnapshotManager::Quarantine(const std::string& path,
                                 const std::string& reason,
                                 Statistics* stats) {
  const std::string quarantined = path + kQuarantineSuffix;
  std::error_code ec;
  fs::rename(path, quarantined, ec);
  if (ec) return;  // the file vanished or the rename lost a race; rescan
  if (std::FILE* f = std::fopen((quarantined + ".reason").c_str(), "w")) {
    // Best effort: the reason file is operator breadcrumbs, not state
    // the recovery protocol depends on.
    std::fputs(reason.c_str(), f);  // syscall-ok: best-effort breadcrumb
    std::fputs("\n", f);            // syscall-ok: best-effort breadcrumb
    std::fclose(f);                 // syscall-ok: best-effort breadcrumb file
  }
  AddTicker(stats, Ticker::kSnapshotsQuarantined);
}

Status SnapshotManager::WriteSnapshot(
    const RankingStore& store, const CompressedPostingArena<RankingId>& arena,
    const Partitioning* partitioning) {
  Status dir_status = EnsureDirectory();
  if (!dir_status.ok()) return dir_status;
  SweepOrphans();
  const std::vector<uint64_t> generations = ListGenerations();
  const uint64_t next = generations.empty() ? 1 : generations.back() + 1;
  Status status =
      WriteStoreSnapshot(store, arena, GenerationPath(next), partitioning);
  if (!status.ok()) return status;
  PruneOldGenerations();
  return Status::OK();
}

Result<OpenedSnapshot> SnapshotManager::OpenNewestValid(Statistics* stats) {
  SweepOrphans();
  std::vector<uint64_t> generations = ListGenerations();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string path = GenerationPath(*it);
    // Full payload verification before trusting a generation: open-time
    // checks alone would accept a file whose metadata survived a torn
    // write but whose cold payload pages did not.
    Status verified = VerifySnapshotChecksums(path);
    if (verified.code() == Status::Code::kNotFound) continue;  // raced away
    if (!verified.ok()) {
      Quarantine(path, verified.ToString(), stats);
      continue;
    }
    Result<StoreSnapshot> opened = OpenStoreSnapshot(path);
    if (!opened.ok()) {
      // Quarantine only evidence of corruption (InvalidArgument from the
      // format checks). IOError here is environmental — an mmap that ran
      // out of address space says nothing about the bytes on disk — so
      // the file stays eligible for the next recovery attempt.
      if (opened.status().code() == Status::Code::kInvalidArgument) {
        Quarantine(path, opened.status().ToString(), stats);
      }
      continue;
    }
    OpenedSnapshot result{*it, path, std::move(opened).ValueOrDie()};
    return result;
  }
  return Status::NotFound("no valid snapshot generation in " + directory_);
}

}  // namespace storage
}  // namespace topk
