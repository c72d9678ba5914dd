// Crash-safe snapshot generation lifecycle.
//
// WriteStoreSnapshot makes one file durable; SnapshotManager makes a
// *directory* of them a recoverable store. Each emission becomes a new
// generation file `gen-<%020u>.topksnp` (the atomic temp/rename/dirsync
// protocol lives in snapshot.cc), the newest `keep_generations` are
// retained, and recovery scans the directory, fully checksum-verifies
// candidates newest-first, quarantines anything corrupt or torn
// (renamed to `<name>.bad` + a `<name>.bad.reason` text file so an
// operator can see why), sweeps orphaned `.tmp` leftovers from crashed
// writers, and opens the newest generation that proves valid. Because
// the writer never publishes a file until it is fully fsynced, a clean
// run quarantines nothing — storage_crash_test asserts both directions
// (recovery after SIGKILL at every write failpoint, zero quarantine
// false positives without faults).
//
// Synchronization: externally synchronized like the rest of the storage
// layer — MutableStore serializes emissions through its single
// merge-in-flight slot; concurrent OpenNewestValid against a writer is
// safe (it only ever sees fully published generations) but two
// concurrent writers on one directory are not supported.

#ifndef TOPK_STORAGE_SNAPSHOT_MANAGER_H_
#define TOPK_STORAGE_SNAPSHOT_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/statistics.h"
#include "core/status.h"
#include "storage/snapshot.h"

namespace topk {
namespace storage {

struct SnapshotManagerOptions {
  /// Newest generations retained after a successful write (>= 1).
  size_t keep_generations = 3;
};

/// A successfully recovered generation.
struct OpenedSnapshot {
  uint64_t generation = 0;
  std::string path;
  StoreSnapshot snapshot;
};

class SnapshotManager {
 public:
  explicit SnapshotManager(std::string directory,
                           SnapshotManagerOptions options = {});

  const std::string& directory() const { return directory_; }

  /// Emits the next generation (max existing + 1), carrying
  /// `partitioning` when non-null (see WriteStoreSnapshot), and prunes
  /// old ones. Creates the directory on first use. Failures leave prior
  /// generations untouched.
  Status WriteSnapshot(
      const RankingStore& store,
      const CompressedPostingArena<RankingId>& arena,
      const CompressedPostingArena<AugmentedEntry>& augmented_arena,
      const Partitioning* partitioning = nullptr);
  /// Convenience overload building the augmented arena at write time.
  Status WriteSnapshot(const RankingStore& store,
                       const CompressedPostingArena<RankingId>& arena);

  /// Startup recovery: sweep orphans, then walk generations newest-first
  /// verifying full payload checksums; corrupt/torn files are
  /// quarantined (and ticked as kSnapshotsQuarantined) and the next
  /// older generation is tried. NotFound when no valid generation
  /// exists.
  Result<OpenedSnapshot> OpenNewestValid(Statistics* stats = nullptr);

  /// Published (non-quarantined) generations, ascending.
  std::vector<uint64_t> ListGenerations() const;
  /// Quarantined snapshot files currently in the directory.
  size_t QuarantinedCount() const;
  /// Removes `.tmp` leftovers from writers that died mid-emission.
  void SweepOrphans();

  static std::string GenerationFileName(uint64_t generation);
  std::string GenerationPath(uint64_t generation) const;

 private:
  Status EnsureDirectory();
  void PruneOldGenerations();
  void Quarantine(const std::string& path, const std::string& reason,
                  Statistics* stats);

  std::string directory_;
  SnapshotManagerOptions options_;
};

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_SNAPSHOT_MANAGER_H_
