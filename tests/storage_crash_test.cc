// Crash-safe snapshot lifecycle: SnapshotManager generation rotation,
// startup recovery, quarantine of corrupt/torn files (and ONLY those —
// clean runs must never quarantine), orphan sweeping, and the
// fork/SIGKILL differential: a child process is killed at every
// failpoint the snapshot write path crosses while it writes a
// generation that carries a partitioning, and the parent must recover a
// bit-exact store (and partitioning) from the directory afterwards. The
// crash
// half needs -DTOPK_FAILPOINTS=ON (the CI failpoints leg); it skips
// cleanly elsewhere.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/bk_partitioner.h"
#include "core/failpoint.h"
#include "core/ranking.h"
#include "invidx/plain_inverted_index.h"
#include "storage/compressed_arena.h"
#include "storage/compressed_augmented.h"
#include "storage/snapshot_manager.h"
#include "test_util.h"

namespace topk {
namespace {

namespace fs = std::filesystem;
using storage::CompressedPostingArena;
using storage::OpenedSnapshot;
using storage::SnapshotManager;
using storage::SnapshotManagerOptions;

/// Fresh empty directory under the test tempdir.
std::string MakeDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

CompressedPostingArena<RankingId> ArenaOf(const RankingStore& store) {
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  return CompressedPostingArena<RankingId>::FromArena(plain.arena());
}

/// Row-for-row byte equality between a recovered snapshot and `expected`.
bool StoresBitExact(const RankingStore& actual, const RankingStore& expected) {
  if (actual.size() != expected.size() || actual.k() != expected.k()) {
    return false;
  }
  for (RankingId id = 0; id < expected.size(); ++id) {
    const auto want = expected.view(id).items();
    const auto got = actual.view(id).items();
    if (std::memcmp(got.data(), want.data(), want.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

bool PartitioningsEqual(const Partitioning& actual,
                        const Partitioning& expected) {
  if (actual.partitions.size() != expected.partitions.size()) return false;
  for (size_t p = 0; p < expected.partitions.size(); ++p) {
    const Partition& got = actual.partitions[p];
    const Partition& want = expected.partitions[p];
    if (got.medoid != want.medoid || got.radius != want.radius ||
        got.members != want.members) {
      return false;
    }
  }
  return true;
}

/// Flips one byte inside the first section payload (the first section
/// starts at the first page boundary — payload corruption the cheap
/// open-time metadata checks alone would miss).
void CorruptPayload(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(file, nullptr);
  const long offset = static_cast<long>(storage::kSnapshotPageSize);
  ASSERT_EQ(std::fseek(file, offset, SEEK_SET), 0);
  int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(byte ^ 0xFF, file), EOF);
  ASSERT_EQ(std::fclose(file), 0);
}

size_t CountFilesWithSuffix(const std::string& dir, const std::string& suffix) {
  size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++count;
    }
  }
  return count;
}

TEST(SnapshotManagerTest, EmptyDirectoryIsNotFound) {
  SnapshotManager manager(MakeDir("snapmgr_empty"));
  const auto opened = manager.OpenNewestValid();
  EXPECT_EQ(opened.status().code(), Status::Code::kNotFound);
}

TEST(SnapshotManagerTest, GenerationsAdvanceAndOldOnesPrune) {
  const std::string dir = MakeDir("snapmgr_prune");
  SnapshotManagerOptions options;
  options.keep_generations = 2;
  SnapshotManager manager(dir, options);
  const RankingStore store = testutil::MakeClusteredStore(8, 200, 11);
  const auto arena = ArenaOf(store);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(manager.WriteSnapshot(store, arena).ok());
  }
  EXPECT_EQ(manager.ListGenerations(), (std::vector<uint64_t>{3, 4}));
}

TEST(SnapshotManagerTest, OpensNewestAndNeverQuarantinesCleanRuns) {
  const std::string dir = MakeDir("snapmgr_clean");
  SnapshotManager manager(dir);
  const RankingStore old_store = testutil::MakeClusteredStore(8, 150, 21);
  const RankingStore new_store = testutil::MakeClusteredStore(8, 220, 22);
  ASSERT_TRUE(manager.WriteSnapshot(old_store, ArenaOf(old_store)).ok());
  ASSERT_TRUE(manager.WriteSnapshot(new_store, ArenaOf(new_store)).ok());

  Statistics stats;
  auto opened = manager.OpenNewestValid(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().generation, 2u);
  EXPECT_TRUE(StoresBitExact(opened.value().snapshot.store(), new_store));
  // Zero quarantine false positives: intact generations are never
  // condemned by the recovery scan.
  EXPECT_EQ(manager.QuarantinedCount(), 0u);
  EXPECT_EQ(stats.Get(Ticker::kSnapshotsQuarantined), 0u);
}

TEST(SnapshotManagerTest, CorruptNewestIsQuarantinedAndOlderServes) {
  const std::string dir = MakeDir("snapmgr_corrupt");
  SnapshotManager manager(dir);
  const RankingStore old_store = testutil::MakeClusteredStore(8, 150, 31);
  const RankingStore new_store = testutil::MakeClusteredStore(8, 220, 32);
  ASSERT_TRUE(manager.WriteSnapshot(old_store, ArenaOf(old_store)).ok());
  ASSERT_TRUE(manager.WriteSnapshot(new_store, ArenaOf(new_store)).ok());
  CorruptPayload(manager.GenerationPath(2));

  Statistics stats;
  auto opened = manager.OpenNewestValid(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().generation, 1u);
  EXPECT_TRUE(StoresBitExact(opened.value().snapshot.store(), old_store));
  EXPECT_EQ(manager.QuarantinedCount(), 1u);
  EXPECT_EQ(stats.Get(Ticker::kSnapshotsQuarantined), 1u);
  // Operator breadcrumbs: the condemned file and its reason survive.
  EXPECT_EQ(CountFilesWithSuffix(dir, ".bad"), 1u);
  EXPECT_EQ(CountFilesWithSuffix(dir, ".bad.reason"), 1u);
  // Recovery is idempotent: the quarantined file is out of the rotation.
  EXPECT_EQ(manager.ListGenerations(), (std::vector<uint64_t>{1}));
}

TEST(SnapshotManagerTest, TruncatedNewestIsQuarantined) {
  const std::string dir = MakeDir("snapmgr_trunc");
  SnapshotManager manager(dir);
  const RankingStore old_store = testutil::MakeClusteredStore(8, 150, 41);
  const RankingStore new_store = testutil::MakeClusteredStore(8, 220, 42);
  ASSERT_TRUE(manager.WriteSnapshot(old_store, ArenaOf(old_store)).ok());
  ASSERT_TRUE(manager.WriteSnapshot(new_store, ArenaOf(new_store)).ok());
  const std::string newest = manager.GenerationPath(2);
  fs::resize_file(newest, fs::file_size(newest) / 2);

  auto opened = manager.OpenNewestValid();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().generation, 1u);
  EXPECT_TRUE(StoresBitExact(opened.value().snapshot.store(), old_store));
  EXPECT_EQ(manager.QuarantinedCount(), 1u);
}

TEST(SnapshotManagerTest, OrphanTempFilesAreSwept) {
  const std::string dir = MakeDir("snapmgr_orphan");
  SnapshotManager manager(dir);
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 51);
  ASSERT_TRUE(manager.WriteSnapshot(store, ArenaOf(store)).ok());
  {  // a writer that died mid-emission leaves its temp file behind
    std::FILE* file = std::fopen((dir + "/gen-junk.topksnp.tmp").c_str(), "w");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fclose(file), 0);
  }
  ASSERT_TRUE(manager.OpenNewestValid().ok());
  EXPECT_EQ(CountFilesWithSuffix(dir, ".tmp"), 0u);
  EXPECT_EQ(manager.QuarantinedCount(), 0u);
}

// ---------------------------------------------------------------------------
// The SIGKILL differential. One clean traced write discovers every
// failpoint the emission path crosses; then, per site, a forked child
// arms crash-at-first-hit and attempts a write of a generation that
// carries a partitioning. The kernel kills it mid-protocol, and the
// parent must (a) recover the prior generation bit-exact — or the new
// one, partitioning included, (b) quarantine nothing (a torn write is
// never published, so there is nothing to condemn), and (c) complete a
// later write normally.

TEST(SnapshotCrashTest, RecoversBitExactAfterSigkillAtEveryWriteSite) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  auto& registry = FailpointRegistry::Instance();
  registry.DisarmAll();

  const RankingStore old_store = testutil::MakeClusteredStore(8, 150, 61);
  const RankingStore new_store = testutil::MakeClusteredStore(8, 220, 62);
  const auto old_arena = ArenaOf(old_store);
  const auto new_arena = ArenaOf(new_store);
  const auto new_augmented =
      storage::CompressedAugmentedIndex::Build(new_store);
  const Partitioning new_partitioning = BkPartition(
      new_store, RawThreshold(0.3, new_store.k()), BkPartitionMode::kStrict);
  const auto write_new = [&](SnapshotManager* manager) {
    return manager->WriteSnapshot(new_store, new_arena,
                                  new_augmented.arena(), &new_partitioning);
  };

  // Trace which storage-layer sites one clean emission crosses.
  std::vector<std::string> sites;
  {
    const std::string dir = MakeDir("snapcrash_trace");
    SnapshotManager manager(dir);
    registry.ResetCounts();
    ASSERT_TRUE(write_new(&manager).ok());
    for (const std::string& site : registry.SitesHit()) {
      if (site.rfind("storage.snapshot.", 0) == 0) sites.push_back(site);
    }
  }
  ASSERT_GE(sites.size(), 4u) << "write path lost its failpoint coverage";

  for (const std::string& site : sites) {
    SCOPED_TRACE(site);
    const std::string dir = MakeDir("snapcrash_" + site);
    SnapshotManager manager(dir);
    ASSERT_TRUE(manager.WriteSnapshot(old_store, old_arena).ok());

    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: die by SIGKILL at the first hit of `site` while emitting
      // generation 2. No gtest machinery here — _exit codes flag the
      // only unexpected outcome (the site was never reached).
      FailpointRegistry::Instance().DisarmAll();
      FailpointRegistry::Instance().ResetCounts();
      if (!FailpointRegistry::Instance()
               .ArmFromSpecString(site + "=crash@1")
               .ok()) {
        _exit(40);
      }
      SnapshotManager child_manager(dir);
      const Status status = write_new(&child_manager);
      _exit(status.ok() ? 41 : 42);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited instead of crashing";
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // Recovery: the directory holds either the old generation alone
    // (crash before publish) or old + a fully valid new one (crash
    // after the rename made it durable). Either way the newest valid
    // snapshot is bit-exact to one of the two writes — never a blend —
    // and nothing is quarantined.
    Statistics stats;
    auto opened = manager.OpenNewestValid(&stats);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const OpenedSnapshot& recovered = opened.value();
    if (recovered.generation == 1) {
      EXPECT_TRUE(StoresBitExact(recovered.snapshot.store(), old_store));
      EXPECT_EQ(recovered.snapshot.ReadPartitioning().status().code(),
                Status::Code::kNotFound);
    } else {
      EXPECT_EQ(recovered.generation, 2u);
      EXPECT_TRUE(StoresBitExact(recovered.snapshot.store(), new_store));
      const auto partitioning = recovered.snapshot.ReadPartitioning();
      ASSERT_TRUE(partitioning.ok()) << partitioning.status().ToString();
      EXPECT_TRUE(PartitioningsEqual(partitioning.value(), new_partitioning));
    }
    EXPECT_EQ(manager.QuarantinedCount(), 0u);
    EXPECT_EQ(stats.Get(Ticker::kSnapshotsQuarantined), 0u);
    EXPECT_EQ(CountFilesWithSuffix(dir, ".tmp"), 0u);  // orphans swept

    // The survivor keeps working: the next emission and recovery are
    // ordinary.
    ASSERT_TRUE(write_new(&manager).ok());
    auto reopened = manager.OpenNewestValid();
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(StoresBitExact(reopened.value().snapshot.store(), new_store));
    const auto partitioning = reopened.value().snapshot.ReadPartitioning();
    ASSERT_TRUE(partitioning.ok()) << partitioning.status().ToString();
    EXPECT_TRUE(PartitioningsEqual(partitioning.value(), new_partitioning));
  }
}

}  // namespace
}  // namespace topk
