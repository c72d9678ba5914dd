// Persistence workflow: generate a collection once, save it together with
// its (expensive) partitioning as one snapshot generation, then serve
// queries from a cold start by opening the newest valid generation and
// rebuilding the coarse index from the stored partitioning — no
// re-clustering. Exits non-zero if any cold-start answer differs from the
// answer given before the save.
//
//   build/examples/persistence [snapshot-directory]

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "topk.h"

int main(int argc, char** argv) {
  using namespace topk;
  const std::string dir =
      argc > 1 ? argv[1] : "/tmp/topk_persistence_example";
  CoarseOptions options;
  options.theta_c = 0.4;
  const RawDistance theta_raw = RawThreshold(0.2, 10);
  storage::SnapshotManager manager(dir);

  // --- First run: build everything, answer, persist. ---
  std::vector<PreparedQuery> queries;
  std::vector<std::vector<RankingId>> answers;
  {
    std::cout << "building collection + partitioning...\n";
    const RankingStore store = Generate(NytLikeOptions(15000, 10, 77));
    Stopwatch partition_watch;
    const Partitioning partitioning = BkPartition(
        store, RawThreshold(options.theta_c, store.k()),
        BkPartitionMode::kStrict);
    std::cout << "  partitioned " << store.size() << " rankings into "
              << partitioning.partitions.size() << " partitions in "
              << FormatDouble(partition_watch.ElapsedMillis(), 1) << " ms\n";

    const CoarseIndex index =
        CoarseIndex::BuildFromPartitioning(&store, options, partitioning);
    WorkloadOptions wopts;
    wopts.num_queries = 3;
    wopts.seed = 3;
    queries = MakeWorkload(store, wopts);
    for (const PreparedQuery& query : queries) {
      answers.push_back(index.Query(query, theta_raw));
    }

    const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
    const auto arena =
        storage::CompressedPostingArena<RankingId>::FromArena(plain.arena());
    const auto augmented = storage::CompressedAugmentedIndex::Build(store);
    if (Status s = manager.WriteSnapshot(store, arena, augmented.arena(),
                                         &partitioning);
        !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    std::cout << "  saved dataset + partitioning to " << dir << "\n\n";
  }

  // --- Cold start: recover, rebuild the cheap structures, serve. ---
  std::cout << "cold start: loading...\n";
  Stopwatch load_watch;
  auto opened = manager.OpenNewestValid();
  if (!opened.ok()) {
    std::cerr << opened.status().ToString() << "\n";
    return 1;
  }
  const storage::StoreSnapshot& snapshot = opened.value().snapshot;
  auto partitioning = snapshot.ReadPartitioning();
  if (!partitioning.ok()) {
    std::cerr << partitioning.status().ToString() << "\n";
    return 1;
  }
  const CoarseIndex index = CoarseIndex::BuildFromPartitioning(
      &snapshot.store(), options, std::move(partitioning).ValueOrDie());
  std::cout << "  ready in " << FormatDouble(load_watch.ElapsedMillis(), 1)
            << " ms (generation " << opened.value().generation << ", "
            << index.num_partitions() << " partitions)\n\n";

  int mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    Statistics stats;
    const auto results = index.Query(queries[i], theta_raw, &stats);
    const bool same = results == answers[i];
    if (!same) ++mismatches;
    std::cout << "query #" << i << ": " << results.size() << " results, "
              << stats.Get(Ticker::kDistanceCalls) << " distance calls"
              << (same ? "" : "  MISMATCH vs. before the save") << "\n";
  }

  // Remove the generation written here; the directory goes only if
  // nothing else is in it.
  std::error_code ec;
  std::filesystem::remove(opened.value().path, ec);
  std::filesystem::remove(dir, ec);
  return mismatches == 0 ? 0 : 1;
}
