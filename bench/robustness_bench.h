// The `robustness` benchmark section: what fault tolerance costs when
// nothing is failing, shared by the standalone bench_robustness binary.
//
// Three experiments per dataset:
//
//   deadline_overhead   the price of deadline/cancellation plumbing on
//                       the healthy path: the same workload through
//                       MutableStore with no QueryControl vs an
//                       infinite-deadline control (amortized kStride
//                       polls, precise first poll). The contract the
//                       serving layer makes is overhead_pct < 2.
//   degraded_read       serving latency of ResilientReader's two tiers —
//                       the preferred mmap snapshot tier vs the in-RAM
//                       fallback the reader degrades to when the device
//                       fails — with the two verified bit-identical.
//   snapshot_lifecycle  the crash-safe generation protocol end to end:
//                       WriteSnapshot (temp + fsync + rename + dirsync +
//                       prune) and the OpenNewestValid recovery scan
//                       (orphan sweep + full checksum verify).

#ifndef TOPK_BENCH_ROBUSTNESS_BENCH_H_
#define TOPK_BENCH_ROBUSTNESS_BENCH_H_

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/deadline.h"
#include "core/types.h"
#include "invidx/plain_inverted_index.h"
#include "json_writer.h"
#include "mutate/mutable_store.h"
#include "serve/resilient_reader.h"
#include "storage/compressed_arena.h"
#include "storage/snapshot_manager.h"

namespace topk {
namespace bench {

namespace robustness_detail {

using Clock = std::chrono::steady_clock;

inline double ElapsedMsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace robustness_detail

/// Emits the `robustness` array (caller owns the surrounding object).
inline void EmitRobustnessSection(JsonWriter* json, const BenchArgs& args) {
  using robustness_detail::Clock;
  using robustness_detail::ElapsedMsSince;
  constexpr uint32_t kK = 10;
  const double theta = 0.1;
  const RawDistance theta_raw = RawThreshold(theta, kK);
  constexpr uint32_t kReps = 3;  // best-of to tame scheduler noise

  struct Dataset {
    const char* name;
    RankingStore store;
  };
  Dataset datasets[] = {
      {"nyt_like", MakeNyt(args, kK)},
      {"yago_like", MakeYago(args, kK)},
  };

  json->Key("robustness");
  json->BeginArray();
  for (Dataset& dataset : datasets) {
    const RankingStore& store = dataset.store;
    const auto queries = MakeBenchWorkload(store, args);

    // --- deadline_overhead: control-free vs infinite-deadline pass. ---
    {
      MutableStore live(store);
      std::vector<std::vector<RankingId>> expected(queries.size());
      // Untimed warm-up so the control-free pass does not absorb the
      // one-time cache/page-fault cost (it would read as negative
      // overhead for the control pass).
      for (size_t i = 0; i < queries.size(); ++i) {
        expected[i] = live.RangeQuery(queries[i], theta_raw);
      }
      double no_control_ms = 0;
      for (uint32_t rep = 0; rep < kReps; ++rep) {
        const auto start = Clock::now();
        for (size_t i = 0; i < queries.size(); ++i) {
          expected[i] = live.RangeQuery(queries[i], theta_raw);
        }
        const double ms = ElapsedMsSince(start);
        if (rep == 0 || ms < no_control_ms) no_control_ms = ms;
      }
      bool exact = true;
      double with_control_ms = 0;
      std::vector<RankingId> out;
      for (uint32_t rep = 0; rep < kReps; ++rep) {
        const auto start = Clock::now();
        for (size_t i = 0; i < queries.size(); ++i) {
          QueryControl control;  // infinite deadline, polls still run
          exact = exact &&
                  live.RangeQuery(queries[i], theta_raw, &control, &out).ok() &&
                  out == expected[i];
        }
        const double ms = ElapsedMsSince(start);
        if (rep == 0 || ms < with_control_ms) with_control_ms = ms;
      }
      const double overhead_pct =
          no_control_ms > 0
              ? 100.0 * (with_control_ms - no_control_ms) / no_control_ms
              : 0;
      json->BeginObject();
      json->Key("bench");
      json->String("deadline_overhead");
      json->Key("dataset");
      json->String(dataset.name);
      json->Key("n");
      json->Uint(store.size());
      json->Key("k");
      json->Uint(kK);
      json->Key("theta");
      json->Double(theta);
      json->Key("queries");
      json->Uint(queries.size());
      json->Key("reps");
      json->Uint(kReps);
      json->Key("no_control_wall_ms");
      json->Double(no_control_ms);
      json->Key("with_control_wall_ms");
      json->Double(with_control_ms);
      json->Key("overhead_pct");
      json->Double(overhead_pct);
      json->Key("exact_match");
      json->Bool(exact);
      json->EndObject();
      std::cerr << "  robustness deadline_overhead " << dataset.name << " "
                << overhead_pct << "%" << (exact ? " exact" : " MISMATCH")
                << "\n";
    }

    // The snapshot generation directory both remaining experiments use.
    const std::string dir =
        std::string("BENCH_robustness_snapdir_") + dataset.name + ".tmp";
    std::filesystem::remove_all(dir);
    const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
    const auto arena =
        storage::CompressedPostingArena<RankingId>::FromArena(plain.arena());

    // --- snapshot_lifecycle: crash-safe write + recovery scan. ---
    {
      storage::SnapshotManager manager(dir);
      const auto write_start = Clock::now();
      const Status written = manager.WriteSnapshot(store, arena);
      const double write_ms = ElapsedMsSince(write_start);
      if (!written.ok()) {
        std::cerr << "  robustness snapshot write FAILED: "
                  << written.ToString() << "\n";
        std::filesystem::remove_all(dir);
        continue;
      }
      const auto open_start = Clock::now();
      auto opened = manager.OpenNewestValid();
      const double open_ms = ElapsedMsSince(open_start);
      if (!opened.ok()) {
        std::cerr << "  robustness snapshot open FAILED: "
                  << opened.status().ToString() << "\n";
        std::filesystem::remove_all(dir);
        continue;
      }
      const uint64_t file_bytes =
          std::filesystem::file_size(manager.GenerationPath(1));
      json->BeginObject();
      json->Key("bench");
      json->String("snapshot_lifecycle");
      json->Key("dataset");
      json->String(dataset.name);
      json->Key("n");
      json->Uint(store.size());
      json->Key("k");
      json->Uint(kK);
      json->Key("file_bytes");
      json->Uint(file_bytes);
      json->Key("write_wall_ms");
      json->Double(write_ms);
      json->Key("open_wall_ms");
      json->Double(open_ms);
      json->EndObject();
      std::cerr << "  robustness snapshot_lifecycle " << dataset.name
                << " write=" << write_ms << "ms open=" << open_ms << "ms\n";
    }

    // --- degraded_read: snapshot tier vs the RAM fallback tier. ---
    {
      ResilientReader snapshot_reader(&store, {dir, 3});
      const Status opened = snapshot_reader.OpenSnapshotTier();
      if (!opened.ok()) {
        std::cerr << "  robustness degraded_read open FAILED: "
                  << opened.ToString() << "\n";
        std::filesystem::remove_all(dir);
        continue;
      }
      ResilientReader ram_reader(&store, {"", 3});  // RAM-only fallback

      struct Tier {
        const char* name;
        ResilientReader* reader;
        double wall_ms = 0;
        std::vector<std::vector<RankingId>> results;
        bool ok = true;
      };
      Tier tiers[] = {{"snapshot", &snapshot_reader, 0, {}, true},
                      {"ram_fallback", &ram_reader, 0, {}, true}};
      for (Tier& tier : tiers) {
        tier.results.resize(queries.size());
        for (uint32_t rep = 0; rep < kReps; ++rep) {
          const auto start = Clock::now();
          for (size_t i = 0; i < queries.size(); ++i) {
            const Status status = tier.reader->RangeQuery(
                queries[i], theta_raw, nullptr, &tier.results[i]);
            if (!status.ok()) {
              std::cerr << "  robustness degraded_read " << tier.name
                        << " query FAILED: " << status.ToString() << "\n";
              tier.ok = false;
            }
          }
          const double ms = ElapsedMsSince(start);
          if (rep == 0 || ms < tier.wall_ms) tier.wall_ms = ms;
        }
      }
      const bool exact = tiers[0].ok && tiers[1].ok &&
                         tiers[0].results == tiers[1].results;
      for (const Tier& tier : tiers) {
        json->BeginObject();
        json->Key("bench");
        json->String("degraded_read");
        json->Key("dataset");
        json->String(dataset.name);
        json->Key("tier");
        json->String(tier.name);
        json->Key("n");
        json->Uint(store.size());
        json->Key("k");
        json->Uint(kK);
        json->Key("theta");
        json->Double(theta);
        json->Key("queries");
        json->Uint(queries.size());
        json->Key("reps");
        json->Uint(kReps);
        json->Key("exact_match");
        json->Bool(exact);
        json->Key("wall_ms");
        json->Double(tier.wall_ms);
        json->Key("mean_ms_per_query");
        json->Double(tier.wall_ms / static_cast<double>(queries.size()));
        json->EndObject();
        std::cerr << "  robustness degraded_read " << dataset.name << "/"
                  << tier.name << " " << tier.wall_ms << "ms"
                  << (exact ? " exact" : " MISMATCH") << "\n";
      }
    }

    std::filesystem::remove_all(dir);
  }
  json->EndArray();
}

}  // namespace bench
}  // namespace topk

#endif  // TOPK_BENCH_ROBUSTNESS_BENCH_H_
