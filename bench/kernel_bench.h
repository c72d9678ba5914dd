// The `kernel` benchmark section: micro-measurements of the src/kernel/
// layer, shared by the standalone bench_kernel binary and bench_baseline
// (which embeds the section into BENCH_baseline.json).
//
// Four experiments:
//
//   validate           one query vs. a span of candidates, the validate
//                      phase's inner loop: naive O(k^2) kernel, scalar
//                      merge kernel, and the batched validator (rank table
//                      bound once per query + early exit against theta).
//   posting_iteration  sweeping posting lists by item in random probe
//                      order: one std::vector per item (the pre-arena
//                      layout, rebuilt here for comparison) vs. the CSR
//                      posting arena all indices now share.
//   validate_scattered the batched validator over a shuffled span of
//                      every id of a 1M-row NYT-like store (40 MB of
//                      items, far beyond any core's L2): each row gather
//                      misses the private caches, so this is the row that
//                      sees ValidateSpan's row prefetch.
//   knn_sweep          a store-wide SweepNearest (j = 10) over the same
//                      store, the LinearScan k-NN hot loop, whose
//                      threshold starts unbounded and tightens with the
//                      heap.
//
// The last two rows are fixed-size (independent of --nyt-n) and name the
// compiled backend, so CI-scale runs match the committed rows of the same
// backend only.
//
// Every row reports ns per unit and the derived M units/s; the checksum
// accumulated across kernels doubles as a correctness cross-check (all
// three validate kernels must count the same accepted candidates).

#ifndef TOPK_BENCH_KERNEL_BENCH_H_
#define TOPK_BENCH_KERNEL_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/footrule.h"
#include "core/neighbor.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"
#include "data/generator.h"
#include "invidx/blocked_inverted_index.h"
#include "invidx/plain_inverted_index.h"
#include "json_writer.h"
#include "kernel/footrule_batch.h"
#include "kernel/simd.h"

namespace topk {
namespace bench {

namespace kernel_detail {

using Clock = std::chrono::steady_clock;

inline double ElapsedNsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Repeats `pass()` (which returns the number of units processed) until
/// ~40ms elapsed and reports ns per unit.
template <typename Pass>
double MeasureNsPerUnit(Pass&& pass) {
  uint64_t units = pass();  // warm-up, faults in code and data
  constexpr double kMinNs = 40e6;
  units = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    units += pass();
    elapsed = ElapsedNsSince(start);
  } while (elapsed < kMinNs);
  return elapsed / static_cast<double>(units);
}

struct ValidateRow {
  const char* kernel;
  double ns_per_candidate;
};

/// Order-insensitive checksum of a result id multiset; the scalar and
/// SIMD rows of one configuration must print the same value or the sweep
/// itself is a failing differential.
inline uint64_t ResultChecksum(uint64_t acc,
                               const std::vector<RankingId>& ids) {
  for (const RankingId id : ids) acc += MixId64(id);
  return acc + MixId64(ids.size());
}

/// Checksums are emitted as hex strings: compare_benchmarks.py treats
/// strings as row identity, so a checksum regression surfaces as a
/// changed row instead of a meaningless numeric delta.
inline std::string ChecksumHex(uint64_t checksum) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(checksum));
  return buf;
}

}  // namespace kernel_detail

/// Emits the `kernel` array (caller owns the surrounding object).
inline void EmitKernelSection(JsonWriter* json, const BenchArgs& args) {
  using kernel_detail::MeasureNsPerUnit;
  json->Key("kernel");
  json->BeginArray();

  // --- validate: one query vs. many candidates, per k. ---
  for (const uint32_t k : {5u, 10u, 25u}) {
    const size_t n = 4096;
    Rng rng(args.seed + k);
    RankingStore store(k);
    std::vector<ItemId> items;
    for (size_t i = 0; i < n; ++i) {
      items.clear();
      while (items.size() < k) {
        const auto item = static_cast<ItemId>(rng.Below(8 * k));
        if (std::find(items.begin(), items.end(), item) == items.end()) {
          items.push_back(item);
        }
      }
      store.AddUnchecked(items);
    }
    WorkloadOptions workload;
    workload.num_queries = 16;
    workload.perturbed_fraction = 0.7;
    workload.seed = args.seed + 99;
    const auto queries = MakeWorkload(store, workload);
    const double theta = 0.3;
    const RawDistance theta_raw = RawThreshold(theta, k);
    std::vector<RankingId> all(store.size());
    for (RankingId id = 0; id < store.size(); ++id) all[id] = id;

    uint64_t sink = 0;
    const double naive_ns = MeasureNsPerUnit([&] {
      for (const PreparedQuery& query : queries) {
        for (RankingId id = 0; id < store.size(); ++id) {
          sink += FootruleDistanceNaive(query.view(), store.view(id)) <=
                  theta_raw;
        }
      }
      return queries.size() * store.size();
    });
    const double merge_ns = MeasureNsPerUnit([&] {
      for (const PreparedQuery& query : queries) {
        const SortedRankingView q = query.sorted_view();
        for (RankingId id = 0; id < store.size(); ++id) {
          sink += FootruleDistance(q, store.sorted(id)) <= theta_raw;
        }
      }
      return queries.size() * store.size();
    });
    FootruleValidator validator;
    std::vector<RankingId> out;
    const double batched_ns = MeasureNsPerUnit([&] {
      for (const PreparedQuery& query : queries) {
        validator.BindQuery(query.view());
        out.clear();
        validator.ValidateSpan(store, all, theta_raw, &out, nullptr);
        sink += out.size();
      }
      return queries.size() * store.size();
    });
    if (sink == UINT64_MAX) std::cerr << "unreachable\n";

    const kernel_detail::ValidateRow rows[] = {
        {"footrule_naive", naive_ns},
        {"footrule_merge", merge_ns},
        {"footrule_batched", batched_ns},
    };
    for (const auto& row : rows) {
      json->BeginObject();
      json->Key("bench");
      json->String("validate");
      json->Key("kernel");
      json->String(row.kernel);
      json->Key("k");
      json->Uint(k);
      json->Key("theta");
      json->Double(theta);
      json->Key("ns_per_candidate");
      json->Double(row.ns_per_candidate);
      json->Key("mcandidates_per_sec");
      json->Double(1e3 / row.ns_per_candidate);
      json->Key("speedup_vs_merge");
      json->Double(merge_ns / row.ns_per_candidate);
      json->EndObject();
    }
    std::cerr << "  kernel validate k=" << k << " done\n";
  }

  // --- posting_iteration: per-item vectors vs. the CSR arena. ---
  {
    const uint32_t k = 10;
    const RankingStore store = MakeNyt(args, k);
    const PlainInvertedIndex index = PlainInvertedIndex::Build(store);
    // Rebuild the pre-arena layout for comparison.
    std::vector<std::vector<RankingId>> vector_lists(
        static_cast<size_t>(store.max_item()) + 1);
    for (RankingId id = 0; id < store.size(); ++id) {
      for (ItemId item : store.view(id).items()) {
        vector_lists[item].push_back(id);
      }
    }
    // Random probe order over the item directory: the access pattern of a
    // query stream, where posting lookups are scattered.
    Rng rng(args.seed + 7);
    std::vector<ItemId> probes(1 << 14);
    for (ItemId& probe : probes) {
      probe = static_cast<ItemId>(rng.Below(vector_lists.size()));
    }

    uint64_t sink = 0;
    struct Layout {
      const char* name;
      double ns_per_entry;
    };
    const double vec_ns = MeasureNsPerUnit([&] {
      uint64_t entries = 0;
      for (const ItemId probe : probes) {
        for (const RankingId id : vector_lists[probe]) sink += id;
        entries += vector_lists[probe].size();
      }
      return entries;
    });
    const double arena_ns = MeasureNsPerUnit([&] {
      uint64_t entries = 0;
      for (const ItemId probe : probes) {
        const auto list = index.list(probe);
        for (const RankingId id : list) sink += id;
        entries += list.size();
      }
      return entries;
    });
    if (sink == UINT64_MAX) std::cerr << "unreachable\n";

    const Layout layouts[] = {
        {"vector_lists", vec_ns},
        {"csr_arena", arena_ns},
    };
    for (const Layout& layout : layouts) {
      json->BeginObject();
      json->Key("bench");
      json->String("posting_iteration");
      json->Key("layout");
      json->String(layout.name);
      json->Key("k");
      json->Uint(k);
      json->Key("ns_per_entry");
      json->Double(layout.ns_per_entry);
      json->Key("mentries_per_sec");
      json->Double(1e3 / layout.ns_per_entry);
      json->Key("speedup_vs_vector_lists");
      json->Double(vec_ns / layout.ns_per_entry);
      json->EndObject();
    }
    std::cerr << "  kernel posting iteration done\n";
  }

  // --- validate_scattered and knn_sweep: a store beyond the caches. ---
  {
    const uint32_t k = 10;
    const uint32_t n = 1u << 20;
    const RankingStore store = Generate(NytLikeOptions(n, k, args.seed));
    WorkloadOptions workload;
    workload.num_queries = 8;
    workload.perturbed_fraction = 0.7;
    workload.seed = args.seed + 99;
    const auto queries = MakeWorkload(store, workload);
    const double theta = 0.3;
    const RawDistance theta_raw = RawThreshold(theta, k);
    std::vector<RankingId> shuffled(store.size());
    for (RankingId id = 0; id < store.size(); ++id) shuffled[id] = id;
    Rng rng(args.seed + 11);
    rng.Shuffle(&shuffled);

    FootruleValidator validator;
    const size_t item_domain = static_cast<size_t>(store.max_item()) + 1;
    std::vector<RankingId> out;
    uint64_t sink = 0;
    const double scattered_ns = MeasureNsPerUnit([&] {
      for (const PreparedQuery& query : queries) {
        validator.BindQuery(query.view(), item_domain);
        out.clear();
        validator.ValidateSpan(store, shuffled, theta_raw, &out, nullptr);
        sink += out.size();
      }
      return queries.size() * store.size();
    });
    const uint32_t j = 10;
    const double sweep_ns = MeasureNsPerUnit([&] {
      for (const PreparedQuery& query : queries) {
        validator.BindQuery(query.view(), item_domain);
        NeighborHeap heap(j);
        validator.SweepNearest(store, &heap, nullptr);
        sink += heap.Bound();
      }
      return queries.size() * store.size();
    });
    if (sink == UINT64_MAX) std::cerr << "unreachable\n";

    json->BeginObject();
    json->Key("bench");
    json->String("validate_scattered");
    json->Key("kernel");
    json->String("footrule_batched");
    json->Key("backend");
    json->String(FootruleValidator::SimdBackendName());
    json->Key("k");
    json->Uint(k);
    json->Key("n");
    json->Uint(n);
    json->Key("theta");
    json->Double(theta);
    json->Key("ns_per_candidate");
    json->Double(scattered_ns);
    json->Key("mcandidates_per_sec");
    json->Double(1e3 / scattered_ns);
    json->EndObject();

    json->BeginObject();
    json->Key("bench");
    json->String("knn_sweep");
    json->Key("kernel");
    json->String("footrule_batched");
    json->Key("backend");
    json->String(FootruleValidator::SimdBackendName());
    json->Key("k");
    json->Uint(k);
    json->Key("n");
    json->Uint(n);
    json->Key("j");
    json->Uint(j);
    json->Key("ns_per_row");
    json->Double(sweep_ns);
    json->Key("mrows_per_sec");
    json->Double(1e3 / sweep_ns);
    json->EndObject();
    std::cerr << "  kernel validate_scattered / knn_sweep done\n";
  }

  json->EndArray();
}

/// Emits the `simd` array: the scalar-vs-SIMD-vs-block-skip sweep (caller
/// owns the surrounding object). Every row carries a result checksum; rows
/// of one configuration must agree on it (the bench doubles as a coarse
/// differential) and a mismatch is reported on stderr.
inline void EmitSimdSection(JsonWriter* json, const BenchArgs& args) {
  using kernel_detail::MeasureNsPerUnit;
  using kernel_detail::ResultChecksum;
  json->Key("simd");
  json->BeginArray();

  // --- validate: forced-scalar vs the compiled vector backend. ---
  for (const uint32_t k : {5u, 10u, 25u}) {
    const size_t n = 4096;
    Rng rng(args.seed + 31 * k);
    RankingStore store(k);
    std::vector<ItemId> items;
    for (size_t i = 0; i < n; ++i) {
      items.clear();
      while (items.size() < k) {
        const auto item = static_cast<ItemId>(rng.Below(8 * k));
        if (std::find(items.begin(), items.end(), item) == items.end()) {
          items.push_back(item);
        }
      }
      store.AddUnchecked(items);
    }
    WorkloadOptions workload;
    workload.num_queries = 16;
    workload.perturbed_fraction = 0.7;
    workload.seed = args.seed + 77;
    const auto queries = MakeWorkload(store, workload);
    const double theta = 0.3;
    const RawDistance theta_raw = RawThreshold(theta, k);
    std::vector<RankingId> all(store.size());
    for (RankingId id = 0; id < store.size(); ++id) all[id] = id;

    struct Backend {
      const char* name;
      bool use_simd;
      double ns_per_candidate = 0;
      uint64_t checksum = 0;
    };
    Backend backends[] = {
        {"scalar", false},
        {FootruleValidator::SimdBackendName(), true},
    };
    // Without a compiled vector backend the second row would re-measure
    // the identical scalar code; measure (and emit) it only when it is a
    // real variant.
    const size_t rows = FootruleValidator::SimdCompiled() ? 2 : 1;
    for (size_t b = 0; b < rows; ++b) {
      Backend& backend = backends[b];
      FootruleValidator validator;
      validator.set_use_simd(backend.use_simd);
      std::vector<RankingId> out;
      uint64_t checksum = 0;
      backend.ns_per_candidate = MeasureNsPerUnit([&] {
        checksum = 0;
        for (const PreparedQuery& query : queries) {
          validator.BindQuery(query.view());
          out.clear();
          validator.ValidateSpan(store, all, theta_raw, &out, nullptr);
          checksum = ResultChecksum(checksum, out);
        }
        return queries.size() * store.size();
      });
      backend.checksum = checksum;
    }
    if (rows == 2 && backends[0].checksum != backends[1].checksum) {
      std::cerr << "CHECKSUM MISMATCH: simd validate k=" << k
                << " scalar=" << backends[0].checksum
                << " simd=" << backends[1].checksum << "\n";
    }
    for (size_t b = 0; b < rows; ++b) {
      const Backend& backend = backends[b];
      json->BeginObject();
      json->Key("bench");
      json->String("validate");
      json->Key("kernel");
      json->String("footrule_batched");
      json->Key("backend");
      json->String(backend.name);
      json->Key("k");
      json->Uint(k);
      json->Key("theta");
      json->Double(theta);
      json->Key("ns_per_candidate");
      json->Double(backend.ns_per_candidate);
      json->Key("mcandidates_per_sec");
      json->Double(1e3 / backend.ns_per_candidate);
      json->Key("speedup_vs_scalar");
      json->Double(backends[0].ns_per_candidate / backend.ns_per_candidate);
      json->Key("checksum");
      json->String(kernel_detail::ChecksumHex(backend.checksum));
      json->EndObject();
    }
    std::cerr << "  simd validate k=" << k << " done ("
              << FootruleValidator::SimdBackendName() << " "
              << backends[0].ns_per_candidate /
                     backends[rows - 1].ns_per_candidate
              << "x)\n";
  }

  // --- block_skip: the windowed blocked engine's tightened sweep. ---
  for (const uint32_t k : {10u, 25u}) {
    const RankingStore store = MakeNyt(args, k);
    const BlockedInvertedIndex index = BlockedInvertedIndex::Build(store);
    BlockedEngine engine(&store, &index,
                         BlockedOptions{DropMode::kNone,
                                        /*scheduled=*/false});
    WorkloadOptions workload;
    workload.num_queries = 32;
    workload.perturbed_fraction = 0.7;
    workload.seed = args.seed + 78;
    const auto queries = MakeWorkload(store, workload);
    const double theta = 0.3;
    const RawDistance theta_raw = RawThreshold(theta, k);

    // One accounted pass for the scan/skip tickers and the checksum...
    Statistics stats;
    uint64_t checksum = 0;
    for (const PreparedQuery& query : queries) {
      checksum = ResultChecksum(checksum,
                                engine.Query(query, theta_raw, &stats));
    }
    // ...then timed passes.
    const double ns_per_query = MeasureNsPerUnit([&] {
      uint64_t sink = 0;
      for (const PreparedQuery& query : queries) {
        sink += engine.Query(query, theta_raw, nullptr).size();
      }
      if (sink == UINT64_MAX) std::cerr << "unreachable\n";
      return queries.size();
    });

    json->BeginObject();
    json->Key("bench");
    json->String("block_skip");
    json->Key("mode");
    json->String("windowed_sweep");
    json->Key("k");
    json->Uint(k);
    json->Key("theta");
    json->Double(theta);
    json->Key("ns_per_query");
    json->Double(ns_per_query);
    json->Key("entries_scanned_per_query");
    json->Double(static_cast<double>(
                     stats.Get(Ticker::kPostingEntriesScanned)) /
                 static_cast<double>(queries.size()));
    json->Key("entries_skipped_per_query");
    json->Double(static_cast<double>(
                     stats.Get(Ticker::kPostingEntriesSkipped)) /
                 static_cast<double>(queries.size()));
    json->Key("checksum");
    json->String(kernel_detail::ChecksumHex(checksum));
    json->EndObject();
    std::cerr << "  simd block_skip k=" << k << " done\n";
  }

  json->EndArray();
}

}  // namespace bench
}  // namespace topk

#endif  // TOPK_BENCH_KERNEL_BENCH_H_
